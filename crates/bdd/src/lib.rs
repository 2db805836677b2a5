//! # xrta-bdd — reduced ordered binary decision diagrams
//!
//! A self-contained BDD package built for the reproduction of Kukimoto &
//! Brayton, *Exact Required Time Analysis via False Path Detection*
//! (UCB/ERL M97/44, 1997). Besides the usual Boolean operations it
//! provides the two less common operators that paper needs:
//!
//! * [`Bdd::minimal_wrt`] / [`Bdd::maximal_wrt`] — minimal/maximal
//!   elements of a set of assignments under the Boolean lattice, with a
//!   designated subset of "lattice" variables and the rest treated as
//!   fixed parameters (used to extract the *latest* required-time
//!   sub-relation, §4.1 of the paper);
//! * [`Bdd::monotone_primes`] — prime implicants of a monotone increasing
//!   function via minimal satisfying assignments (Theorem 1, §4.2).
//!
//! The variable order is fixed: it is the order variables are created
//! in, so a variable's index is its level, and the arena only grows. A
//! configurable node limit ([`Bdd::with_node_limit`]) reproduces the
//! `memory out` behaviour the paper reports for its exact algorithm on
//! large circuits.
//!
//! ## Example
//!
//! ```
//! use xrta_bdd::{Bdd, Ref};
//!
//! let mut bdd = Bdd::new();
//! let x = bdd.fresh_var();
//! let y = bdd.fresh_var();
//! let fx = bdd.var(x);
//! let fy = bdd.var(y);
//! let f = bdd.or(fx, fy);
//!
//! // Canonicity: syntactically different constructions of the same
//! // function produce the same handle.
//! let g = bdd.ite(fx, Ref::TRUE, fy);
//! assert_eq!(f, g);
//! assert_eq!(bdd.sat_count(f), 3.0);
//! assert!(bdd.eval(f, &[true, false]));
//! ```

mod compose;
mod count;
mod dot;
#[cfg(test)]
mod eviction;
mod hash;
mod isop;
mod manager;
mod minimal;
mod node;
mod quant;
mod table;

pub use count::Cube;
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use manager::{Bdd, BddError, BddResult};
pub use node::{Ref, Var};
