//! Randomized tests: BDD operations against brute-force truth tables,
//! driven by a deterministic seeded generator (the workspace builds
//! offline, so `proptest` is replaced by explicit seed loops).

use xrta_bdd::{Bdd, Ref, Var};
use xrta_rng::Rng;

const NVARS: usize = 5;

/// A random Boolean expression over `NVARS` variables.
#[derive(Clone, Debug)]
enum Expr {
    Var(usize),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
    Const(bool),
}

/// Generates a random expression of bounded depth.
fn gen_expr(rng: &mut Rng, depth: usize) -> Expr {
    if depth == 0 || rng.percent(25) {
        return if rng.percent(80) {
            Expr::Var(rng.range(0, NVARS))
        } else {
            Expr::Const(rng.bool())
        };
    }
    match rng.range(0, 5) {
        0 => Expr::Not(Box::new(gen_expr(rng, depth - 1))),
        1 => Expr::And(
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
        2 => Expr::Or(
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
        3 => Expr::Xor(
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
        _ => Expr::Ite(
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
    }
}

fn eval_expr(e: &Expr, a: &[bool]) -> bool {
    match e {
        Expr::Var(i) => a[*i],
        Expr::Const(b) => *b,
        Expr::Not(x) => !eval_expr(x, a),
        Expr::And(x, y) => eval_expr(x, a) && eval_expr(y, a),
        Expr::Or(x, y) => eval_expr(x, a) || eval_expr(y, a),
        Expr::Xor(x, y) => eval_expr(x, a) ^ eval_expr(y, a),
        Expr::Ite(c, t, f) => {
            if eval_expr(c, a) {
                eval_expr(t, a)
            } else {
                eval_expr(f, a)
            }
        }
    }
}

fn build(bdd: &mut Bdd, vars: &[Var], e: &Expr) -> Ref {
    match e {
        Expr::Var(i) => bdd.var(vars[*i]),
        Expr::Const(b) => bdd.constant(*b),
        Expr::Not(x) => {
            let fx = build(bdd, vars, x);
            bdd.not(fx)
        }
        Expr::And(x, y) => {
            let fx = build(bdd, vars, x);
            let fy = build(bdd, vars, y);
            bdd.and(fx, fy)
        }
        Expr::Or(x, y) => {
            let fx = build(bdd, vars, x);
            let fy = build(bdd, vars, y);
            bdd.or(fx, fy)
        }
        Expr::Xor(x, y) => {
            let fx = build(bdd, vars, x);
            let fy = build(bdd, vars, y);
            bdd.xor(fx, fy)
        }
        Expr::Ite(c, t, f) => {
            let fc = build(bdd, vars, c);
            let ft = build(bdd, vars, t);
            let ff = build(bdd, vars, f);
            bdd.ite(fc, ft, ff)
        }
    }
}

fn assignments() -> impl Iterator<Item = Vec<bool>> {
    (0..1usize << NVARS).map(|m| (0..NVARS).map(|i| (m >> i) & 1 == 1).collect())
}

/// Runs `check` on a fresh BDD + random expression per seed.
fn for_random_exprs(cases: u64, mut check: impl FnMut(&mut Bdd, &[Var], &Expr)) {
    for seed in 0..cases {
        let mut rng = Rng::seed_from_u64(0xB0D5 + seed);
        let e = gen_expr(&mut rng, 4);
        let mut bdd = Bdd::new();
        let vars = bdd.fresh_vars(NVARS);
        check(&mut bdd, &vars, &e);
    }
}

#[test]
fn build_matches_semantics() {
    for_random_exprs(64, |bdd, vars, e| {
        let f = build(bdd, vars, e);
        for a in assignments() {
            assert_eq!(bdd.eval(f, &a), eval_expr(e, &a), "{e:?} at {a:?}");
        }
    });
}

#[test]
fn sat_count_matches_enumeration() {
    for_random_exprs(64, |bdd, vars, e| {
        let f = build(bdd, vars, e);
        let expected = assignments().filter(|a| eval_expr(e, a)).count() as f64;
        assert_eq!(bdd.sat_count(f), expected, "{e:?}");
    });
}

#[test]
fn exists_matches_enumeration() {
    for_random_exprs(32, |bdd, vars, e| {
        for which in 0..NVARS {
            let f = build(bdd, vars, e);
            let q = bdd.exists(f, &[vars[which]]);
            for mut a in assignments() {
                a[which] = false;
                let lo = eval_expr(e, &a);
                a[which] = true;
                let hi = eval_expr(e, &a);
                assert_eq!(bdd.eval(q, &a), lo || hi, "{e:?} var {which}");
            }
        }
    });
}

#[test]
fn forall_matches_enumeration() {
    for_random_exprs(32, |bdd, vars, e| {
        for which in 0..NVARS {
            let f = build(bdd, vars, e);
            let q = bdd.forall(f, &[vars[which]]);
            for mut a in assignments() {
                a[which] = false;
                let lo = eval_expr(e, &a);
                a[which] = true;
                let hi = eval_expr(e, &a);
                assert_eq!(bdd.eval(q, &a), lo && hi, "{e:?} var {which}");
            }
        }
    });
}

#[test]
fn cubes_cover_exactly() {
    for_random_exprs(64, |bdd, vars, e| {
        let f = build(bdd, vars, e);
        let cubes = bdd.cubes(f);
        for a in assignments() {
            let covered = cubes
                .iter()
                .any(|cube| cube.iter().all(|&(v, val)| a[v.index()] == val));
            assert_eq!(covered, eval_expr(e, &a), "{e:?} at {a:?}");
        }
    });
}

#[test]
fn minimal_elements_are_minimal_and_complete() {
    for_random_exprs(32, |bdd, vars, e| {
        let f = build(bdd, vars, e);
        // Use the first three variables as the lattice, the rest as
        // parameters.
        let lattice = &vars[..3];
        let m = bdd.minimal_wrt(f, lattice);
        let sat: Vec<Vec<bool>> = assignments().filter(|a| eval_expr(e, a)).collect();
        let leq = |x: &[bool], y: &[bool]| {
            // y ≤ x on lattice vars, equal on parameters, y != x
            let mut strict = false;
            for i in 0..NVARS {
                if i < 3 {
                    if y[i] && !x[i] {
                        return false;
                    }
                    if x[i] && !y[i] {
                        strict = true;
                    }
                } else if x[i] != y[i] {
                    return false;
                }
            }
            strict
        };
        for a in assignments() {
            let in_f = eval_expr(e, &a);
            let is_min = in_f && !sat.iter().any(|y| leq(&a, y));
            assert_eq!(bdd.eval(m, &a), is_min, "{e:?} at {a:?}");
        }
    });
}

#[test]
fn upper_closure_is_dominating_set() {
    for_random_exprs(32, |bdd, vars, e| {
        let f = build(bdd, vars, e);
        let lattice = &vars[..3];
        let up = bdd.upper_closure_wrt(f, lattice);
        let sat: Vec<Vec<bool>> = assignments().filter(|a| eval_expr(e, a)).collect();
        let dominates = |x: &[bool], y: &[bool]| {
            // x ≥ y on lattice, equal on params
            (0..NVARS).all(|i| if i < 3 { x[i] || !y[i] } else { x[i] == y[i] })
        };
        for a in assignments() {
            let expect = sat.iter().any(|y| dominates(&a, y));
            assert_eq!(bdd.eval(up, &a), expect, "{e:?} at {a:?}");
        }
    });
}

#[test]
fn compose_matches_substitution() {
    for seed in 0..32u64 {
        let mut rng = Rng::seed_from_u64(0xC0405E + seed);
        let e = gen_expr(&mut rng, 4);
        let g = gen_expr(&mut rng, 3);
        let which = rng.range(0, NVARS);
        let mut bdd = Bdd::new();
        let vars = bdd.fresh_vars(NVARS);
        let f = build(&mut bdd, &vars, &e);
        let gg = build(&mut bdd, &vars, &g);
        let h = bdd.compose(f, vars[which], gg);
        for mut a in assignments() {
            let gval = eval_expr(&g, &a);
            let expect = {
                let saved = a[which];
                a[which] = gval;
                let r = eval_expr(&e, &a);
                a[which] = saved;
                r
            };
            assert_eq!(bdd.eval(h, &a), expect, "{e:?} o {g:?} @ var {which}");
        }
    }
}
