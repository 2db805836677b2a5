//! Degradation-ladder integration tests: starved budgets must produce
//! structured errors or sound lower-rung answers — never a panic, never
//! a hang.

use std::time::{Duration, Instant};

use xrta::circuits;
use xrta::prelude::*;

/// A small cross-section of the bundled circuit families.
fn suite() -> Vec<Network> {
    vec![
        circuits::fig4(),
        circuits::c17(),
        circuits::two_mux_bypass(),
        circuits::carry_skip_adder(4, 2).expect("valid adder"),
    ]
}

fn topo_required_at_inputs(net: &Network, req: &[Time]) -> Vec<Time> {
    let all = required_times(net, &UnitDelay, req);
    net.inputs().iter().map(|i| all[i.index()]).collect()
}

/// A session answer is sound when every deadline vector it blesses is
/// validated by ungoverned functional timing analysis — or, for the
/// topological rung, equals the classical backward sweep.
fn assert_sound(net: &Network, req: &[Time], report: &SessionReport) {
    match &report.answer {
        SessionAnswer::Topological(at_inputs) => {
            assert_eq!(at_inputs, &topo_required_at_inputs(net, req));
        }
        SessionAnswer::Approx2(r) => {
            assert_eq!(r.r_bottom, topo_required_at_inputs(net, req));
            for m in &r.maximal {
                let ft = FunctionalTiming::new(net, &UnitDelay, m.clone(), EngineKind::Sat);
                assert!(
                    ft.meets(req),
                    "unsafe maximal point {m:?} on {}",
                    net.name()
                );
            }
        }
        // The BDD rungs only answer when their budget sufficed; their
        // soundness is covered by the per-algorithm unit tests.
        SessionAnswer::Exact(_) | SessionAnswer::Approx1(_) => {}
    }
}

#[test]
fn tiny_node_limit_degrades_cleanly_across_suite() {
    for net in suite() {
        let req = topological_delays(&net, &UnitDelay);
        let opts = SessionOptions {
            budget: Budget::unlimited().with_node_limit(Some(8)),
            fallback: true,
            ..SessionOptions::default()
        };
        let report = run_with_fallback(&net, &UnitDelay, &req, Verdict::Exact, &opts)
            .unwrap_or_else(|e| panic!("{} must degrade, not fail: {e}", net.name()));
        assert!(
            report.degraded(),
            "{}: 8 BDD nodes cannot be enough",
            net.name()
        );
        assert!(matches!(
            report.exhaustion_reason(),
            Some(AnalysisError::Capacity { limit: 8 })
        ));
        assert_sound(&net, &req, &report);
    }
}

#[test]
fn one_conflict_sat_budget_is_conservative_not_panicking() {
    for net in suite() {
        let req = topological_delays(&net, &UnitDelay);
        let opts = SessionOptions {
            budget: Budget::unlimited().with_sat_conflicts(Some(1)),
            fallback: true,
            ..SessionOptions::default()
        };
        // approx2 treats exhausted oracle queries as "not provably
        // safe", so the session answers at the requested rung with a
        // conservative (possibly bottom-only) maximal set.
        let report = run_with_fallback(&net, &UnitDelay, &req, Verdict::Approx2, &opts)
            .unwrap_or_else(|e| panic!("{} must stay conservative: {e}", net.name()));
        assert_eq!(report.verdict, Verdict::Approx2);
        assert_sound(&net, &req, &report);
    }
}

#[test]
fn near_zero_deadline_lands_on_sound_rung() {
    for net in suite() {
        let req = topological_delays(&net, &UnitDelay);
        let opts = SessionOptions {
            budget: Budget::unlimited(),
            timeout: Some(Duration::ZERO),
            fallback: true,
            ..SessionOptions::default()
        };
        let report = run_with_fallback(&net, &UnitDelay, &req, Verdict::Exact, &opts)
            .unwrap_or_else(|e| panic!("{} must degrade, not fail: {e}", net.name()));
        assert_eq!(
            report.exhaustion_reason(),
            Some(AnalysisError::DeadlineExceeded),
            "{}",
            net.name()
        );
        // approx2 truncates to a sound partial result under a dead
        // deadline, so the ladder never needs the last rung — but
        // whichever rung answered must be sound.
        assert_sound(&net, &req, &report);
        if let SessionAnswer::Approx2(r) = &report.answer {
            assert!(
                r.maximal.contains(&r.r_bottom) || r.maximal.iter().any(|m| m != &r.r_bottom),
                "{}: truncated climb keeps at least the bottom point",
                net.name()
            );
        }
    }
}

#[test]
fn zero_budgets_degrade_without_panicking() {
    for net in suite() {
        let req = topological_delays(&net, &UnitDelay);
        // A zero node limit starves every BDD rung outright; a zero SAT
        // conflict budget makes every oracle query inconclusive. Both
        // must walk the ladder to a sound answer — never panic, never
        // report an unsafe point.
        let budgets = [
            Budget::unlimited().with_node_limit(Some(0)),
            Budget::unlimited().with_sat_conflicts(Some(0)),
            Budget::unlimited()
                .with_node_limit(Some(0))
                .with_sat_conflicts(Some(0)),
        ];
        for (k, budget) in budgets.into_iter().enumerate() {
            let zero_nodes = k != 1;
            let opts = SessionOptions {
                budget,
                fallback: true,
                ..SessionOptions::default()
            };
            let report = run_with_fallback(&net, &UnitDelay, &req, Verdict::Exact, &opts)
                .unwrap_or_else(|e| {
                    panic!("{} budget {k} must degrade, not fail: {e}", net.name())
                });
            if zero_nodes {
                assert!(
                    report.degraded(),
                    "{}: zero BDD nodes cannot satisfy the exact rung",
                    net.name()
                );
            }
            assert_sound(&net, &req, &report);
        }
    }
}

#[test]
fn fallback_off_returns_structured_errors() {
    let net = circuits::carry_skip_adder(4, 2).expect("valid adder");
    let req = topological_delays(&net, &UnitDelay);
    let base = SessionOptions {
        fallback: false,
        ..SessionOptions::default()
    };

    let starved_nodes = SessionOptions {
        budget: Budget::unlimited().with_node_limit(Some(8)),
        ..base.clone()
    };
    assert_eq!(
        run_with_fallback(&net, &UnitDelay, &req, Verdict::Exact, &starved_nodes).unwrap_err(),
        AnalysisError::Capacity { limit: 8 }
    );

    let starved_clock = SessionOptions {
        timeout: Some(Duration::ZERO),
        ..base
    };
    assert_eq!(
        run_with_fallback(&net, &UnitDelay, &req, Verdict::Approx1, &starved_clock).unwrap_err(),
        AnalysisError::DeadlineExceeded
    );
}

#[test]
fn cancellation_mid_approx2_returns_promptly() {
    // Table 2's setting, required time 0 at every output: an 8x8
    // multiplier's climb then runs for seconds, so the cancel lands
    // mid-climb. At each output's topological delay the χ clamp settles
    // the climb in milliseconds, before the cancel.
    let net = circuits::array_multiplier(8).expect("valid multiplier");
    let req = vec![Time::ZERO; net.outputs().len()];
    let opts = SessionOptions {
        fallback: true,
        ..SessionOptions::default()
    };
    let flag = opts.budget.cancel_flag();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        flag.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    let t0 = Instant::now();
    let err = run_with_fallback(&net, &UnitDelay, &req, Verdict::Approx2, &opts)
        .expect_err("cancelled session must not answer");
    assert_eq!(err, AnalysisError::Interrupted);
    // Generous bound: the point is "promptly", i.e. the worker pool
    // drained instead of finishing the full climb or hanging.
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "cancellation took {:?}",
        t0.elapsed()
    );
    canceller.join().expect("canceller thread exits");
}
