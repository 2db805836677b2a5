//! Library gate kinds with known truth tables and O(1) prime sets.

use crate::truth::{Cube, TruthTable};

/// A named library gate.
///
/// Library gates carry their function implicitly from arity; primes of
/// the function and of its complement — needed at every step of the χ
/// recursion — are produced without running Quine–McCluskey.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GateKind {
    /// Identity of a single fanin.
    Buf,
    /// Complement of a single fanin.
    Not,
    /// Conjunction of all fanins.
    And,
    /// Disjunction of all fanins.
    Or,
    /// Complemented conjunction.
    Nand,
    /// Complemented disjunction.
    Nor,
    /// Odd parity of all fanins.
    Xor,
    /// Even parity of all fanins.
    Xnor,
    /// `fanin0 ? fanin2 : fanin1` (select, data0, data1).
    Mux,
    /// Constant false (no fanins).
    Const0,
    /// Constant true (no fanins).
    Const1,
}

impl GateKind {
    /// The gate's truth table at the given arity.
    ///
    /// # Panics
    ///
    /// Panics if the arity is not legal for the kind (`Buf`/`Not` need 1,
    /// `Mux` needs 3, constants need 0, the rest need ≥ 1).
    pub fn truth_table(self, arity: usize) -> TruthTable {
        self.check_arity(arity);
        match self {
            GateKind::Buf => TruthTable::var(1, 0),
            GateKind::Not => TruthTable::var(1, 0).complement(),
            GateKind::Const0 => TruthTable::constant(0, false),
            GateKind::Const1 => TruthTable::constant(0, true),
            GateKind::And | GateKind::Nand => {
                let mut acc = TruthTable::constant(arity, true);
                for i in 0..arity {
                    acc = acc.and(&TruthTable::var(arity, i));
                }
                if self == GateKind::Nand {
                    acc.complement()
                } else {
                    acc
                }
            }
            GateKind::Or | GateKind::Nor => {
                let mut acc = TruthTable::constant(arity, false);
                for i in 0..arity {
                    acc = acc.or(&TruthTable::var(arity, i));
                }
                if self == GateKind::Nor {
                    acc.complement()
                } else {
                    acc
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                let mut acc = TruthTable::constant(arity, false);
                for i in 0..arity {
                    acc = acc.xor(&TruthTable::var(arity, i));
                }
                if self == GateKind::Xnor {
                    acc.complement()
                } else {
                    acc
                }
            }
            GateKind::Mux => {
                let s = TruthTable::var(3, 0);
                let d0 = TruthTable::var(3, 1);
                let d1 = TruthTable::var(3, 2);
                let ns = s.complement();
                ns.and(&d0).or(&s.and(&d1))
            }
        }
    }

    fn check_arity(self, arity: usize) {
        let ok = match self {
            GateKind::Buf | GateKind::Not => arity == 1,
            GateKind::Mux => arity == 3,
            GateKind::Const0 | GateKind::Const1 => arity == 0,
            _ => (1..=TruthTable::MAX_VARS).contains(&arity),
        };
        assert!(ok, "illegal arity {arity} for {self:?}");
    }

    /// Primes of the gate function (`P_n^1` of the paper's recursion).
    pub fn primes(self, arity: usize) -> Vec<Cube> {
        self.check_arity(arity);
        let all = ((1u64 << arity) - 1) as u32;
        match self {
            GateKind::Buf => vec![Cube { pos: 1, neg: 0 }],
            GateKind::Not => vec![Cube { pos: 0, neg: 1 }],
            GateKind::Const0 => Vec::new(),
            GateKind::Const1 => vec![Cube::UNIVERSE],
            GateKind::And => vec![Cube { pos: all, neg: 0 }],
            GateKind::Nor => vec![Cube { pos: 0, neg: all }],
            GateKind::Or => (0..arity)
                .map(|i| Cube {
                    pos: 1 << i,
                    neg: 0,
                })
                .collect(),
            GateKind::Nand => (0..arity)
                .map(|i| Cube {
                    pos: 0,
                    neg: 1 << i,
                })
                .collect(),
            // No two on-set minterms of a parity function are adjacent,
            // so each one is prime. Ascending minterm order is the order
            // Quine–McCluskey returns them in.
            GateKind::Xor | GateKind::Xnor => {
                let odd = self == GateKind::Xor;
                (0..=all)
                    .filter(|m| (m.count_ones() % 2 == 1) == odd)
                    .map(|m| Cube {
                        pos: m,
                        neg: !m & all,
                    })
                    .collect()
            }
            GateKind::Mux => vec![
                // s·d1, ¬s·d0, d0·d1 (the consensus term is also prime)
                Cube { pos: 0b101, neg: 0 },
                Cube {
                    pos: 0b010,
                    neg: 0b001,
                },
                Cube { pos: 0b110, neg: 0 },
            ],
        }
    }

    /// Primes of the complemented gate function (`P_n^0`).
    pub fn primes_of_complement(self, arity: usize) -> Vec<Cube> {
        match self {
            GateKind::Buf => GateKind::Not.primes(arity),
            GateKind::Not => GateKind::Buf.primes(arity),
            GateKind::And => GateKind::Nand.primes(arity),
            GateKind::Nand => GateKind::And.primes(arity),
            GateKind::Or => GateKind::Nor.primes(arity),
            GateKind::Nor => GateKind::Or.primes(arity),
            GateKind::Xor => GateKind::Xnor.primes(arity),
            GateKind::Xnor => GateKind::Xor.primes(arity),
            GateKind::Const0 => GateKind::Const1.primes(arity),
            GateKind::Const1 => GateKind::Const0.primes(arity),
            GateKind::Mux => vec![
                Cube {
                    pos: 0b001,
                    neg: 0b100,
                },
                Cube { pos: 0, neg: 0b011 },
                Cube { pos: 0, neg: 0b110 },
            ],
        }
    }

    /// Parses an (ISCAS-style) gate name, case-insensitively.
    pub fn parse(name: &str) -> Option<GateKind> {
        match name.to_ascii_uppercase().as_str() {
            "BUF" | "BUFF" => Some(GateKind::Buf),
            "NOT" | "INV" => Some(GateKind::Not),
            "AND" => Some(GateKind::And),
            "OR" => Some(GateKind::Or),
            "NAND" => Some(GateKind::Nand),
            "NOR" => Some(GateKind::Nor),
            "XOR" => Some(GateKind::Xor),
            "XNOR" => Some(GateKind::Xnor),
            "MUX" => Some(GateKind::Mux),
            _ => None,
        }
    }
}

impl std::fmt::Display for GateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            GateKind::Buf => "BUF",
            GateKind::Not => "NOT",
            GateKind::And => "AND",
            GateKind::Or => "OR",
            GateKind::Nand => "NAND",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Mux => "MUX",
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [GateKind; 9] = [
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Mux,
    ];

    fn arity_of(kind: GateKind) -> usize {
        match kind {
            GateKind::Buf | GateKind::Not => 1,
            GateKind::Mux => 3,
            _ => 3,
        }
    }

    #[test]
    fn fast_primes_match_qm() {
        for kind in ALL {
            let arity = arity_of(kind);
            let tt = kind.truth_table(arity);
            let mut fast = kind.primes(arity);
            let mut slow = tt.primes();
            fast.sort();
            slow.sort();
            assert_eq!(fast, slow, "{kind} primes");
            let mut fastc = kind.primes_of_complement(arity);
            let mut slowc = tt.primes_of_complement();
            fastc.sort();
            slowc.sort();
            assert_eq!(fastc, slowc, "{kind} complement primes");
        }
        // Parity covers come in Quine–McCluskey's own order, so the χ
        // CNFs and BDDs built from them are built in the same order.
        for kind in [GateKind::Xor, GateKind::Xnor] {
            for arity in 1..=8 {
                let tt = kind.truth_table(arity);
                assert_eq!(kind.primes(arity), tt.primes(), "{kind}/{arity} primes");
                assert_eq!(
                    kind.primes_of_complement(arity),
                    tt.primes_of_complement(),
                    "{kind}/{arity} complement primes"
                );
            }
        }
    }

    #[test]
    fn truth_tables_match_semantics() {
        let t = GateKind::Mux.truth_table(3);
        // inputs: (s, d0, d1)
        assert!(!t.eval(&[false, false, true]));
        assert!(t.eval(&[false, true, false]));
        assert!(t.eval(&[true, false, true]));
        assert!(!t.eval(&[true, true, false]));
        let n = GateKind::Nand.truth_table(2);
        assert!(n.eval(&[false, true]));
        assert!(!n.eval(&[true, true]));
    }

    #[test]
    fn parse_names() {
        assert_eq!(GateKind::parse("nand"), Some(GateKind::Nand));
        assert_eq!(GateKind::parse("BUFF"), Some(GateKind::Buf));
        assert_eq!(GateKind::parse("INV"), Some(GateKind::Not));
        assert_eq!(GateKind::parse("frob"), None);
    }

    #[test]
    #[should_panic(expected = "illegal arity")]
    fn mux_arity_checked() {
        let _ = GateKind::Mux.truth_table(2);
    }

    #[test]
    fn constants_have_no_inputs() {
        assert!(GateKind::Const0.truth_table(0).is_constant(false));
        assert!(GateKind::Const1.truth_table(0).is_constant(true));
        assert!(GateKind::Const0.primes(0).is_empty());
        assert_eq!(GateKind::Const1.primes(0), vec![Cube::UNIVERSE]);
    }
}
