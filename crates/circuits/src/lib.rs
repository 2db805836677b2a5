//! # xrta-circuits — benchmark circuits for the reproduction
//!
//! Generators (adders with planted false paths, bypass chains, parity
//! trees, comparators, priority chains, array multipliers, seeded random
//! DAGs), the paper's worked examples ([`fig4`], [`fig6`],
//! [`two_mux_bypass`], [`c17`]), and the surrogate suite backing the
//! Table 1 / Table 2 reproduction ([`mcnc_rows`], [`iscas_rows`]).
//!
//! ## Example
//!
//! ```
//! use xrta_circuits::carry_skip_adder;
//!
//! let adder = carry_skip_adder(8, 4)?;
//! assert_eq!(adder.inputs().len(), 17);   // a, b, cin
//! assert_eq!(adder.outputs().len(), 9);   // s, cout
//! # Ok::<(), xrta_network::NetworkError>(())
//! ```

mod adders;
mod chains;
mod examples;
mod mult;
mod random_dag;
mod suite;

pub use adders::{carry_select_adder, carry_skip_adder, ripple_carry_adder};
pub use chains::{bypass_chain, comparator, parity_tree, priority_chain, shared_select_bypass};
pub use examples::{c17, fig4, fig6, two_mux_bypass};
pub use mult::array_multiplier;
pub use random_dag::{random_circuit, RandomCircuitSpec};
pub use suite::{block_circuit, iscas_rows, mcnc_rows, BlockStyle, SuiteRow};
