//! # xrta — exact required time analysis via false path detection
//!
//! Umbrella crate for the Rust reproduction of Kukimoto & Brayton,
//! *Exact Required Time Analysis via False Path Detection* (UCB/ERL
//! M97/44, 1997). It re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`bdd`] | `xrta-bdd` | BDD package with minimal-element operators |
//! | [`sat`] | `xrta-sat` | CDCL SAT solver with assumptions and budgets |
//! | [`network`] | `xrta-network` | Boolean networks, BLIF/BENCH io, primes, cones |
//! | [`timing`] | `xrta-timing` | topological arrival/required/slack (Figure 3) |
//! | [`chi`] | `xrta-chi` | XBD0 χ-function analysis, BDD + SAT engines |
//! | [`core`] | `xrta-core` | the paper's §4 algorithms and §5 subcircuit flexibility |
//! | [`circuits`] | `xrta-circuits` | generators, worked examples, surrogate suite |
//! | [`verify`] | `xrta-verify` | exhaustive oracle, differential fuzzing, shrinking, corpus |
//! | [`robust`] | `xrta-robust` | failpoints, atomic writes, CRC'd journals, backoff |
//! | [`batch`] | `xrta-batch` | crash-resilient batch runner with checkpoint/resume |
//! | [`serve`] | `xrta-serve` | analysis daemon: result cache, single-flight, admission control |
//! | [`router`] | `xrta-router` | sharded serving: consistent-hash routing, health checks, failover, drain |
//! | [`resynth`] | `xrta-resynth` | slack-guided AND-OR restructuring with verified equivalence |
//!
//! ## Quickstart: the paper's Figure 4
//!
//! ```
//! use xrta::prelude::*;
//!
//! let net = xrta::circuits::fig4();
//! // Topological analysis: both inputs required at 0. The paper's
//! // parametric analysis relaxes x2's settle-to-0 deadline to 1.
//! let analysis = approx1_required_times(
//!     &net, &UnitDelay, &[Time::new(2)], Approx1Options::default(),
//! ).unwrap();
//! assert!(analysis.has_nontrivial_requirement());
//! ```

pub mod cli;

pub use xrta_batch as batch;
pub use xrta_bdd as bdd;
pub use xrta_chi as chi;
pub use xrta_circuits as circuits;
pub use xrta_core as core;
pub use xrta_network as network;
pub use xrta_resynth as resynth;
pub use xrta_robust as robust;
pub use xrta_router as router;
pub use xrta_sat as sat;
pub use xrta_serve as serve;
pub use xrta_timing as timing;
pub use xrta_verify as verify;

/// Convenient glob import for applications.
pub mod prelude {
    pub use xrta_chi::{EngineKind, FunctionalTiming};
    pub use xrta_core::{
        approx1_required_times, approx2_required_times, exact_required_times, run_with_fallback,
        subcircuit_arrival_times, subcircuit_required_times, true_slack, AnalysisError,
        Approx1Options, Approx2Options, ArrivalFlexOptions, Budget, ExactOptions,
        RequiredTimeTuple, SessionAnswer, SessionOptions, SessionReport, ValueTimes, Verdict,
    };
    pub use xrta_network::{GateKind, Network, NodeId};
    pub use xrta_timing::{
        analyze, arrival_times, required_times, topological_delays, Time, UnitDelay,
    };
}
