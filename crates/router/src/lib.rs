//! xrta-router: the sharded serving tier's front-end.
//!
//! A std-only TCP router that consistent-hashes analysis requests
//! across N backend `xrta serve` shards, speaking the serve crate's
//! length-prefixed protocol on both sides:
//!
//! * [`ring`] — consistent-hash ring with virtual nodes; a request's
//!   ring point is its content-addressed cache key folded to 64 bits,
//!   so identical requests always land on the same shard and the
//!   shard-local caches stay hot;
//! * [`health`] — per-shard state machine: consecutive-failure
//!   ejection, cooldown, half-open probing, drain;
//! * [`pool`] — per-shard connection pools with connect/read/write
//!   deadlines;
//! * [`router`] — the accept loop and data path: router-side
//!   single-flight dedup, one forward at a time along the ring
//!   (failing over on transport errors and `busy` sheds) with seeded
//!   backoff between rounds, rolling drain, aggregated cluster-wide
//!   stats.
//!
//! Responses are forwarded byte-for-byte, so the cache's byte-identity
//! guarantee — one key, one encoding, no matter who asks — holds
//! across the extra hop, and a client cannot distinguish the router
//! from a single `xrta serve` except by its fault tolerance.

pub mod health;
pub mod pool;
pub mod ring;
pub mod router;

pub use health::{HealthPolicy, ShardHealth, ShardState, Transition};
pub use pool::{PoolOptions, ShardPool};
pub use ring::Ring;
pub use router::{start, RouterHandle, RouterOptions, RouterSnapshot, RouterStats};
