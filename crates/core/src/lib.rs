//! # xrta-core — exact required time analysis via false path detection
//!
//! Rust reproduction of Kukimoto & Brayton, *Exact Required Time
//! Analysis via False Path Detection* (UCB/ERL M97/44, 1997).
//!
//! Given a combinational network, per-gate max delays (XBD0 model) and
//! required times at the primary outputs, this crate computes required
//! times at the primary inputs (or at arbitrary internal cuts) that
//! account for **false paths** — deadlines that are provably looser than
//! the classical topological backward sweep, generalized from constants
//! to *relations* where a signal's deadline depends on the values of the
//! other signals.
//!
//! Three algorithms from §4 of the paper:
//!
//! * [`exact_required_times`] — the exact Boolean relation over unknown
//!   leaf χ variables, with minimal-element extraction for the latest
//!   conditions (§4.1);
//! * [`approx1_required_times`] — the parametric α/β encoding whose
//!   monotone `F(α,β)`'s primes are the latest input-uniform conditions
//!   (§4.2);
//! * [`approx2_required_times`] — lattice climbing over candidate
//!   deadline vectors validated by full functional timing analysis
//!   (§4.3, the scalable SAT-backed scheme).
//!
//! §5's subcircuit flexibility is in [`subcircuit_arrival_times`]
//! (value-dependent arrivals at subcircuit inputs, Figure 6),
//! [`subcircuit_required_times`] (deadlines at subcircuit outputs via
//! the cut network `N_FO`) and [`coupled_flexibility`] (§5.3). The true
//! false-path-aware slack of §3 is [`true_slack`].
//!
//! ## Example: the paper's Figure 4
//!
//! ```
//! use xrta_network::{Network, GateKind};
//! use xrta_timing::{Time, UnitDelay};
//! use xrta_core::{approx1_required_times, Approx1Options};
//!
//! // z = AND(buf(x1), x2, buf(x2)), unit delays, req(z) = 2.
//! let mut net = Network::new("fig4");
//! let x1 = net.add_input("x1")?;
//! let x2 = net.add_input("x2")?;
//! let y1 = net.add_gate("y1", GateKind::Buf, &[x1])?;
//! let y2 = net.add_gate("y2", GateKind::Buf, &[x2])?;
//! let z = net.add_gate("z", GateKind::And, &[y1, x2, y2])?;
//! net.mark_output(z);
//!
//! let a = approx1_required_times(&net, &UnitDelay, &[Time::new(2)],
//!                                Approx1Options::default()).unwrap();
//! // Topological analysis demands both inputs at time 0; the paper's
//! // analysis relaxes x2's settle-to-0 deadline to time 1.
//! assert!(a.has_nontrivial_requirement());
//! let c = &a.conditions[0];
//! assert_eq!(c.per_input[1].value0, Time::new(1));
//! # Ok::<(), xrta_network::NetworkError>(())
//! ```

mod approx1;
mod approx2;
pub mod cone;
pub mod dominance;
mod exact;
mod flex;
pub mod governor;
mod leaves;
mod macro_model;
mod oracle_pool;
mod plan;
pub mod report;
pub mod session;
mod slack;
pub mod stripes;
mod types;

pub use approx1::{
    approx1_required_times, approx1_required_times_governed, Approx1Analysis, Approx1Options,
};
pub use approx2::{
    approx2_required_times, approx2_required_times_governed, Approx2Options, Approx2Result,
};
pub use cone::{analyze_cone, slice_cones, splice, ConeSlice};
pub use dominance::DominanceCache;
pub use exact::{exact_required_times, exact_required_times_governed, ExactAnalysis, ExactOptions};
pub use flex::{
    coupled_flexibility, subcircuit_arrival_times, subcircuit_required_times, ArrivalClass,
    ArrivalFlexOptions, CoupledClass, SubcircuitArrivals, SubcircuitRequired,
};
pub use governor::{AnalysisError, Budget};
// Deterministic fault injection (named sites, seeded schedules) lives
// in the leaf crate `xrta-robust` so the BDD/SAT layers can host
// sites too; re-exported here as `core::failpoint` for discovery.
pub use leaves::{LeafMode, LeafVarKey, ParamVarKey, PlannedLeaves};
pub use macro_model::{macro_model, MacroModel};
pub use plan::{plan_leaves, LeafPlan, LeafTimes};
pub use session::{
    run_with_fallback, Answer, RungAttempt, SessionAnswer, SessionOptions, SessionReport, Verdict,
};
pub use slack::{true_slack, TrueSlack};
pub use stripes::{support_fingerprint, Claim, StripedVerdictCache};
pub use types::{RequiredTimeTuple, ValueTimes};
pub use xrta_robust::failpoint;
