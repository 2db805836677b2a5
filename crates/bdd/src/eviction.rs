//! Eviction differential: seeded operation sequences replayed on a
//! default manager and on one whose computed table is held at two
//! slots, where nearly every entry is evicted before it is read again.
//! A lost entry may only cost a recomputation, so after every operation
//! both managers must return the same handle, hold the same number of
//! nodes and keep their invariants. Up to six variables the results are
//! also checked against brute-force truth tables.

use xrta_rng::Rng;

use crate::manager::Bdd;
use crate::node::{Ref, Var};

/// Truth table over at most six variables: bit `m` is the value under
/// the assignment that gives variable `i` bit `i` of `m`.
type Table = u64;

fn bit(t: Table, m: u32) -> bool {
    t >> m & 1 == 1
}

fn with(m: u32, i: usize, value: bool) -> u32 {
    if value {
        m | 1 << i
    } else {
        m & !(1 << i)
    }
}

/// The operations under test, each with its brute-force meaning.
#[derive(Clone, Copy, Debug)]
enum Op {
    And,
    Or,
    Xor,
    Not,
    Ite,
    Exists,
    Forall,
    Restrict,
    Compose,
    MinimalWrt,
}

const OPS: [Op; 10] = [
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Not,
    Op::Ite,
    Op::Exists,
    Op::Forall,
    Op::Restrict,
    Op::Compose,
    Op::MinimalWrt,
];

/// One drawn operation with its operands.
struct Step {
    op: Op,
    f: usize,
    g: usize,
    h: usize,
    var: usize,
    value: bool,
    /// Variables quantified, or the lattice variables of `minimal_wrt`.
    set: Vec<usize>,
}

impl Step {
    fn apply(&self, bdd: &mut Bdd, vars: &[Var], pool: &[Ref]) -> Ref {
        let (f, g, h) = (pool[self.f], pool[self.g], pool[self.h]);
        let set: Vec<Var> = self.set.iter().map(|&i| vars[i]).collect();
        let v = vars[self.var];
        match self.op {
            Op::And => bdd.and(f, g),
            Op::Or => bdd.or(f, g),
            Op::Xor => bdd.xor(f, g),
            Op::Not => bdd.not(f),
            Op::Ite => bdd.ite(f, g, h),
            Op::Exists => bdd.exists(f, &set),
            Op::Forall => bdd.forall(f, &set),
            Op::Restrict => bdd.restrict(f, v, self.value),
            Op::Compose => bdd.compose(f, v, g),
            Op::MinimalWrt => bdd.minimal_wrt(f, &set),
        }
    }

    /// The result's truth table over `nvars` variables.
    fn expected(&self, nvars: usize, tables: &[Table]) -> Table {
        let (tf, tg, th) = (tables[self.f], tables[self.g], tables[self.h]);
        let minterms = 0..1u32 << nvars;
        let collect = |pred: &dyn Fn(u32) -> bool| {
            minterms
                .clone()
                .filter(|&m| pred(m))
                .fold(0, |t, m| t | 1 << m)
        };
        let quantify = |exists: bool| {
            self.set.iter().fold(tf, |t, &i| {
                collect(&|m| {
                    let (lo, hi) = (bit(t, with(m, i, false)), bit(t, with(m, i, true)));
                    if exists {
                        lo || hi
                    } else {
                        lo && hi
                    }
                })
            })
        };
        let lattice: u32 = self.set.iter().map(|&i| 1 << i).sum();
        match self.op {
            Op::And => tf & tg,
            Op::Or => tf | tg,
            Op::Xor => tf ^ tg,
            Op::Not => collect(&|m| !bit(tf, m)),
            Op::Ite => collect(&|m| if bit(tf, m) { bit(tg, m) } else { bit(th, m) }),
            Op::Exists => quantify(true),
            Op::Forall => quantify(false),
            Op::Restrict => collect(&|m| bit(tf, with(m, self.var, self.value))),
            Op::Compose => collect(&|m| bit(tf, with(m, self.var, bit(tg, m)))),
            Op::MinimalWrt => collect(&|m| {
                bit(tf, m)
                    && !minterms.clone().any(|p| {
                        p != m && p & !lattice == m & !lattice && p & !m == 0 && bit(tf, p)
                    })
            }),
        }
    }
}

/// Replays `ops` seeded operations over `nvars` variables on both
/// managers.
fn replay(seed: u64, nvars: usize, ops: usize) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut full = Bdd::new();
    let mut held = Bdd::with_computed_slots(2);
    let vars = full.fresh_vars(nvars);
    assert_eq!(held.fresh_vars(nvars), vars);
    let checked = nvars <= 6;
    // Tables are all zero (and unused) past six variables.
    let table = |pred: &dyn Fn(u32) -> bool| -> Table {
        if !checked {
            return 0;
        }
        (0..1u32 << nvars)
            .filter(|&m| pred(m))
            .fold(0, |t, m| t | 1 << m)
    };
    let mut pool = vec![Ref::FALSE, Ref::TRUE];
    let mut tables = vec![0, table(&|_| true)];
    for (i, &v) in vars.iter().enumerate() {
        let r = full.var(v);
        assert_eq!(held.var(v), r);
        pool.push(r);
        tables.push(table(&|m| m >> i & 1 == 1));
    }
    for k in 0..ops {
        let step = Step {
            op: *rng.pick(&OPS),
            f: rng.range(0, pool.len()),
            g: rng.range(0, pool.len()),
            h: rng.range(0, pool.len()),
            var: rng.range(0, nvars),
            value: rng.bool(),
            set: (0..nvars).filter(|_| rng.percent(40)).collect(),
        };
        let r = step.apply(&mut full, &vars, &pool);
        let what = format!("seed {seed}, step {k}: {:?}", step.op);
        assert_eq!(step.apply(&mut held, &vars, &pool), r, "{what}");
        assert_eq!(held.node_count(), full.node_count(), "{what}");
        assert!(full.check_invariants() && held.check_invariants(), "{what}");
        let t = if checked {
            step.expected(nvars, &tables)
        } else {
            0
        };
        if checked {
            for m in 0..1u32 << nvars {
                let assignment: Vec<bool> = (0..nvars).map(|i| m >> i & 1 == 1).collect();
                assert_eq!(full.eval(r, &assignment), bit(t, m), "{what}, minterm {m}");
            }
        }
        pool.push(r);
        tables.push(t);
    }
}

#[test]
fn evictions_never_change_a_handle_or_the_arena() {
    for seed in 0..48 {
        replay(seed, 3 + seed as usize % 4, 160);
    }
}

#[test]
fn evictions_never_change_a_handle_or_the_arena_on_wider_functions() {
    for seed in 100..108 {
        replay(seed, 12, 160);
    }
}
