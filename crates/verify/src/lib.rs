//! # xrta-verify — differential verification for the analysis engines
//!
//! The paper's claims are only as good as the engines implementing
//! them. This crate checks those engines against something much
//! dumber and therefore much more trustworthy:
//!
//! * [`oracle`] — an exhaustive XBD0 oracle. For circuits with a
//!   handful of primary inputs it enumerates every input minterm and
//!   simulates guaranteed settle times directly — no BDDs, no SAT,
//!   no χ-functions — giving ground truth for true arrival times,
//!   condition safety and per-minterm maximal required-time tuples.
//! * [`harness`] — the differential matrix: functional timing (BDD and
//!   SAT backends), `approx2` (both backends, governed/ungoverned),
//!   `approx1` and `exact`, each validated
//!   against the oracle and against the ordering lattice
//!   `exact ⊒ approx1 ⊒ approx2 ⊒ topological`. Includes the engine
//!   differential's per-case step [`harness::fuzz`] and deliberate
//!   [`harness::Fault`] injection to prove the checks have teeth.
//! * [`mod@fuzz`] — the one seeded driver every differential runs under:
//!   case loop, time cap, cancel flag, corpus filing and progress
//!   lines, around a per-case step supplied by [`harness`], [`edits`]
//!   or [`mod@resynth_fuzz`].
//! * [`mod@shrink`] — greedy netlist minimisation (drop outputs, bypass
//!   gates, ground inputs) that turns a failing random DAG into a
//!   readable reproducer.
//! * [`corpus`] — `.bench`-based persistence for shrunk failures in
//!   `netlists/corpus/`, replayed by the integration tests.
//! * [`edits`] — the ECO differential: seeded edit scripts (delay
//!   resizes, gate swaps, rewires, PO duplication, buffer insertion,
//!   gate deletion) applied to base netlists, checking after every
//!   edit that a warm fingerprint-keyed cone cache splices the
//!   byte-identical report a cold from-scratch analysis produces.
//!   Failures shrink to a minimal edit script and land in the corpus
//!   as `_before`/`_after` pairs.
//! * [`mod@resynth_fuzz`] — the resynthesis differential: seeded bases and
//!   delay perturbations, each rewrite re-judged for equivalence and
//!   true-delay non-regression. Failures land as `_pre`/`_post` pairs.

pub mod corpus;
pub mod edits;
pub mod fuzz;
pub mod harness;
pub mod oracle;
pub mod resynth_fuzz;
pub mod shrink;

pub use corpus::{load_dir, parse_entry, save, to_bench, CorpusEntry};
pub use edits::{
    apply_edit, apply_sequence, eco_fuzz, first_disagreement, random_edit, replay_pair,
    shrink_edits, EditOp,
};
pub use fuzz::{FuzzFailure, FuzzOptions, FuzzReport};
pub use harness::{check_case, check_network, fuzz, CheckOptions, Failure, Fault};
pub use oracle::{
    condition_safe, condition_safe_at, exhaustive_true_arrivals, point_safe, settle_times,
    settle_times_cond, MAX_ORACLE_INPUTS,
};
pub use resynth_fuzz::{replay_resynth_pair, resynth_fuzz};
pub use shrink::{shrink, TestCase};
