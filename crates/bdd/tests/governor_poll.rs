//! Regression tests: the governor's deadline must bind inside the
//! long cache-hit-heavy traversals too, not only on `mk`'s
//! node-creation slow path.
//!
//! Each test arranges a traversal that creates **no fresh nodes** —
//! every `mk`/`ite` call hits a cache — so before polls were added to
//! the `isop`/`quant` entry points, an already-expired deadline
//! was never noticed and the call ran to completion. The traversals
//! here are small; what matters is that the expired deadline is seen
//! *at all*, and promptly (each poll is at most ~1024 cheap recursion
//! steps away, well under 10ms of work).

use std::time::{Duration, Instant};

use xrta_bdd::{Bdd, BddError, Ref};

/// A function over `n` interleaved variable pairs with plenty of
/// internal sharing: x0·x1 + x2·x3 + …
fn pairs(bdd: &mut Bdd, n: usize) -> Ref {
    let vs = bdd.fresh_vars(2 * n);
    let mut f = Ref::FALSE;
    for k in 0..n {
        let a = bdd.var(vs[2 * k]);
        let b = bdd.var(vs[2 * k + 1]);
        let t = bdd.and(a, b);
        f = bdd.or(f, t);
    }
    f
}

fn expired() -> Option<Instant> {
    Some(Instant::now() - Duration::from_millis(1))
}

#[test]
fn quantifying_an_unused_var_respects_the_deadline() {
    let mut bdd = Bdd::new();
    let f = pairs(&mut bdd, 6);
    let unused = bdd.fresh_var();
    // Quantifying a variable outside the support rebuilds `f` purely
    // from unique-table hits: zero node creations, zero `mk` polls.
    bdd.set_deadline(expired());
    let t0 = Instant::now();
    let r = bdd.try_exists(f, &[unused]);
    assert_eq!(r, Err(BddError::Deadline), "deadline must bind in quant");
    assert!(t0.elapsed() < Duration::from_secs(1));

    bdd.set_deadline(None);
    assert_eq!(bdd.try_exists(f, &[unused]), Ok(f), "and clear again");
}

#[test]
fn warmed_isop_respects_the_deadline() {
    let mut bdd = Bdd::new();
    let f = pairs(&mut bdd, 6);
    // Warm every operation cache: the second run is pure cache hits.
    let (cubes, g) = bdd.try_isop_between(f, f).unwrap();
    assert!(!cubes.is_empty());
    assert_eq!(g, f);
    bdd.set_deadline(expired());
    assert_eq!(
        bdd.try_isop_between(f, f).map(|(c, _)| c.len()),
        Err(BddError::Deadline),
        "deadline must bind in isop even when every subcall hits a cache"
    );
}

#[test]
fn deadline_in_the_near_future_binds_promptly() {
    // End-to-end timing check: a deadline a few ms out stops a long
    // chain of cache-hit traversals well within the test's generous
    // bound (the poll interval is ~1024 cheap steps, i.e. ≪ 10ms).
    let mut bdd = Bdd::new();
    let f = pairs(&mut bdd, 8);
    let unused = bdd.fresh_var();
    bdd.set_deadline(Some(Instant::now() + Duration::from_millis(20)));
    let t0 = Instant::now();
    let mut saw_deadline = false;
    for _ in 0..1_000_000 {
        match bdd.try_exists(f, &[unused]) {
            Ok(_) => {}
            Err(BddError::Deadline) => {
                saw_deadline = true;
                break;
            }
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
    let elapsed = t0.elapsed();
    assert!(saw_deadline, "the deadline never bound");
    assert!(
        elapsed < Duration::from_millis(500),
        "deadline overshoot too large: {elapsed:?}"
    );
}
