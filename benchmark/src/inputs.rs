//! Seeded workload inputs. Every circuit is generated, then rendered as
//! `.bench` text with its primary-input order permuted and every node
//! renamed by the seed; the program under test only ever sees the text.

use std::time::Duration;

use xrta_circuits::{array_multiplier, carry_skip_adder, iscas_rows, mcnc_rows, SuiteRow};
use xrta_core::Verdict;
use xrta_network::{GateKind, Network, NodeFunc, NodeId};
use xrta_rng::Rng;

/// Per-rung wall-clock allowance for C6288 on `mult_sat`: the row never
/// completes, so it runs to this timeout and counts as undecided.
pub const C6288_TIMEOUT: Duration = Duration::from_secs(3);

/// BDD node limit on `mcnc_bdd` (Table 1's cap).
pub const MCNC_NODE_LIMIT: usize = 2_000_000;

/// What the reference checks expect of a circuit's answers.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    /// A Table 2 row: the approx-2 Yes/No of EXPERIMENTS.md.
    Table2 {
        /// Non-trivial required times expected.
        nontrivial: bool,
    },
    /// A multiplier with no pinned verdict: every maximal point is
    /// re-proved by the exhaustive oracle instead.
    Multiplier,
    /// A Table 1 row: the `*` pattern follows the block style.
    Table1 {
        /// The surrogate's planted flexibility.
        style: Style,
    },
}

/// The flexibility a Table 1 surrogate plants, mirroring the
/// `BlockStyle` contract of `crates/circuits/src/suite.rs` (which the
/// circuits crate does not export by name).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Style {
    /// Parity blocks: trivial on every rung.
    Xor,
    /// Balanced multiplexers: visible to the exact rung only.
    Mux,
    /// Gated AND blocks: visible to exact and approx 1.
    Gated,
    /// Bypass false paths: visible to every rung.
    Bypass,
}

impl Style {
    fn of(row: &SuiteRow) -> Style {
        match format!("{:?}", row.style).as_str() {
            "Xor" => Style::Xor,
            "Mux" => Style::Mux,
            "Gated" => Style::Gated,
            "Bypass" => Style::Bypass,
            other => panic!("unknown block style {other}"),
        }
    }
}

/// One workload circuit as the program receives it.
pub struct Circuit {
    /// Row name (C432, i8, mult5, ...).
    pub name: String,
    /// The seeded `.bench` rendering.
    pub text: String,
    /// Reference expectation.
    pub expect: Expect,
    /// Per-rung timeout, when the row runs to one.
    pub timeout: Option<Duration>,
    /// Rungs requested on this circuit, one analysis each.
    pub rungs: Vec<Verdict>,
}

/// How the seed reshapes a netlist's text.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shuffle {
    /// Rename every node and permute the primary-input order.
    PermuteInputs,
    /// Rename every node only. The BDD rungs take the primary-input
    /// order as their variable order (reordering is off by default), so
    /// a random permutation turns Table 1 into a random-variable-order
    /// experiment: on this suite it sent the exact rung to the node cap
    /// on 8 of 10 rows and one pass from 3 s to 16 s. On the
    /// multipliers the input order sets the climb order, and one
    /// permutation against another moved mult5 between 2.4 s and 3.6 s,
    /// so the workload would measure the seed's permutation rather than
    /// the program.
    RenameOnly,
}

/// Renders `net` as `.bench` text with every node renamed and, under
/// [`Shuffle::PermuteInputs`], the primary inputs in a seeded order.
/// Outputs keep their order (required times are per output); gates keep
/// their topological order.
pub fn render_bench(net: &Network, rng: &mut Rng, shuffle: Shuffle) -> String {
    render_edited(net, rng, shuffle, None)
}

/// Like [`render_bench`], with the gate kind of `edit.0` replaced by
/// `edit.1` (a single-gate ECO).
pub fn render_edited(
    net: &Network,
    rng: &mut Rng,
    shuffle: Shuffle,
    edit: Option<(NodeId, GateKind)>,
) -> String {
    let mut ids: Vec<usize> = (0..net.node_count()).collect();
    rng.shuffle(&mut ids);
    let name = |id: NodeId| format!("w{}", ids[id.index()]);
    let mut inputs = net.inputs().to_vec();
    if shuffle == Shuffle::PermuteInputs {
        rng.shuffle(&mut inputs);
    }
    let mut out = String::new();
    for &i in &inputs {
        out.push_str(&format!("INPUT({})\n", name(i)));
    }
    for &o in net.outputs() {
        out.push_str(&format!("OUTPUT({})\n", name(o)));
    }
    for id in net.node_ids() {
        let node = net.node(id);
        if let NodeFunc::Gate { kind, .. } = &node.func {
            let kind = match edit {
                Some((at, k)) if at == id => k,
                _ => kind.expect("generated circuits use library gates"),
            };
            let args: Vec<String> = node.fanins.iter().map(|&f| name(f)).collect();
            out.push_str(&format!("{} = {}({})\n", name(id), kind, args.join(", ")));
        }
    }
    out
}

/// A kind-swapping single-gate edit that keeps the arity legal, or
/// `None` for gates without one (buffers, inverters, multiplexers).
pub fn swapped_kind(kind: GateKind) -> Option<GateKind> {
    Some(match kind {
        GateKind::And => GateKind::Or,
        GateKind::Or => GateKind::And,
        GateKind::Nand => GateKind::Nor,
        GateKind::Nor => GateKind::Nand,
        GateKind::Xor => GateKind::Xnor,
        GateKind::Xnor => GateKind::Xor,
        _ => return None,
    })
}

fn circuit(
    name: &str,
    net: &Network,
    rng: &mut Rng,
    expect: Expect,
    timeout: Option<Duration>,
    rungs: Vec<Verdict>,
) -> Circuit {
    let shuffle = match expect {
        Expect::Table2 { .. } => Shuffle::PermuteInputs,
        Expect::Table1 { .. } | Expect::Multiplier => Shuffle::RenameOnly,
    };
    Circuit {
        name: name.to_string(),
        text: render_bench(net, rng, shuffle),
        expect,
        timeout,
        rungs,
    }
}

/// `iscas_sat`: approx 2 on the nine ISCAS-85 surrogates that complete.
pub fn iscas_sat(seed: u64) -> Vec<Circuit> {
    let mut rng = Rng::seed_from_u64(seed);
    iscas_rows()
        .iter()
        .filter(|row| row.name != "C6288")
        .map(|row| {
            let expect = Expect::Table2 {
                nontrivial: row.paper_nontrivial,
            };
            circuit(
                row.name,
                &row.build(),
                &mut rng,
                expect,
                None,
                vec![Verdict::Approx2],
            )
        })
        .collect()
}

/// `mult_sat`: approx 2 on 4- and 5-bit array multipliers run to
/// completion, and on C6288 (16×16) under [`C6288_TIMEOUT`].
pub fn mult_sat(seed: u64) -> Vec<Circuit> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut out = Vec::new();
    for bits in [4usize, 5] {
        let net = array_multiplier(bits).expect("valid multiplier");
        out.push(circuit(
            &format!("mult{bits}"),
            &net,
            &mut rng,
            Expect::Multiplier,
            None,
            vec![Verdict::Approx2],
        ));
    }
    let row = iscas_rows()
        .into_iter()
        .find(|r| r.name == "C6288")
        .expect("C6288 is a Table 2 row");
    out.push(circuit(
        row.name,
        &row.build(),
        &mut rng,
        Expect::Multiplier,
        Some(C6288_TIMEOUT),
        vec![Verdict::Approx2],
    ));
    out
}

/// `mcnc_bdd`: the exact and approx-1 rungs on the MCNC surrogates i1–i9.
/// i10 is left out: its two analyses both hit the node cap and fall
/// through to the SAT-based approx-2 rung, which made them 55% of a pass
/// and put SAT work into the workload meant to bypass it.
pub fn mcnc_bdd(seed: u64) -> Vec<Circuit> {
    let mut rng = Rng::seed_from_u64(seed);
    mcnc_rows()
        .iter()
        .filter(|row| row.name != "i10")
        .map(|row| {
            circuit(
                row.name,
                &row.build(),
                &mut rng,
                Expect::Table1 {
                    style: Style::of(row),
                },
                None,
                vec![Verdict::Exact, Verdict::Approx1],
            )
        })
        .collect()
}

/// The netlists `serve_eco` replays requests over: the 8-bit carry-skip
/// adder and four ISCAS surrogates.
pub fn serve_nets() -> Vec<(String, Network)> {
    let mut out = vec![(
        "csk8x4".to_string(),
        carry_skip_adder(8, 4).expect("valid adder"),
    )];
    for row in iscas_rows() {
        if matches!(row.name, "C432" | "C880" | "C1908" | "C2670") {
            out.push((row.name.to_string(), row.build()));
        }
    }
    out
}

/// Expected approx-2 non-triviality of a Table 1 row answered at
/// `rung` (the `BlockStyle` contract of `crates/circuits/src/suite.rs`):
/// exact sees every planted style, approx 1 sees gated and bypass
/// blocks, approx 2 only bypass blocks, topological analysis nothing.
pub fn table1_nontrivial(style: Style, rung: Verdict) -> bool {
    match rung {
        Verdict::Exact => style != Style::Xor,
        Verdict::Approx1 => matches!(style, Style::Gated | Style::Bypass),
        Verdict::Approx2 => style == Style::Bypass,
        Verdict::Topological => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_round_trips_and_depends_on_the_seed() {
        let net = carry_skip_adder(8, 4).expect("valid adder");
        let render =
            |seed| render_bench(&net, &mut Rng::seed_from_u64(seed), Shuffle::PermuteInputs);
        let a = render(1);
        assert_ne!(a, render(2));
        assert_eq!(a, render(1));
        let parsed = xrta_network::parse_bench(&a).expect("rendered text parses");
        assert_eq!(parsed.inputs().len(), net.inputs().len());
        assert_eq!(parsed.outputs().len(), net.outputs().len());
        assert_eq!(parsed.gate_count(), net.gate_count());
    }
}
