//! Per-shard health: ejection, half-open probing, drain.
//!
//! The state machine the prober and the data path share:
//!
//! ```text
//!   Healthy --(eject_after consecutive failures)--> Ejected
//!   Ejected --(cooldown elapses)------------------> HalfOpen
//!   HalfOpen --(probe succeeds)-------------------> Healthy
//!   HalfOpen --(probe fails)----------------------> Ejected (cooldown restarts)
//!   any ----(drain requested)---------------------> Draining
//!   Draining --(drain sequence finishes)----------> Ejected
//! ```
//!
//! A drained shard lands in `Ejected` on purpose: when the operator
//! restarts the process on the same address, the ordinary half-open
//! probe reinstates it with no extra operator step.

use std::time::{Duration, Instant};

/// Where a shard sits in the ejection/probing lifecycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardState {
    /// Routable.
    #[default]
    Healthy,
    /// Recently failing; not routed to until the cooldown passes.
    Ejected,
    /// Cooldown passed; one probe decides reinstatement.
    HalfOpen,
    /// Being quiesced by a rolling drain; never routed to.
    Draining,
}

/// Tunables for the state machine.
#[derive(Clone, Copy, Debug)]
pub struct HealthPolicy {
    /// Consecutive failures that eject a healthy shard.
    pub eject_after: u32,
    /// How long an ejected shard rests before a half-open probe.
    pub cooldown: Duration,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            eject_after: 3,
            cooldown: Duration::from_secs(1),
        }
    }
}

/// One shard's live health record (starts `Healthy`). Every method
/// that reads the clock takes `now` so tests can drive it explicitly.
#[derive(Clone, Debug, Default)]
pub struct ShardHealth {
    state: ShardState,
    consecutive_failures: u32,
    ejected_at: Option<Instant>,
}

/// What a recorded event changed, so callers can bump counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transition {
    /// No state change.
    None,
    /// The shard was just ejected.
    Ejected,
    /// The shard was just reinstated to healthy.
    Reinstated,
}

impl ShardHealth {
    /// Current state.
    pub fn state(&self) -> ShardState {
        self.state
    }

    /// May the data path route a fresh request here?
    pub fn routable(&self) -> bool {
        self.state == ShardState::Healthy
    }

    /// A request or probe succeeded.
    pub fn record_success(&mut self) -> Transition {
        self.consecutive_failures = 0;
        match self.state {
            ShardState::HalfOpen => {
                self.state = ShardState::Healthy;
                self.ejected_at = None;
                Transition::Reinstated
            }
            // A drain in progress is not cancelled by stray successes.
            _ => Transition::None,
        }
    }

    /// A request or probe failed at the transport level. (Deterministic
    /// protocol-level errors are *answers*, not failures — they never
    /// count toward ejection.)
    pub fn record_failure(&mut self, policy: &HealthPolicy, now: Instant) -> Transition {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        match self.state {
            ShardState::Healthy if self.consecutive_failures >= policy.eject_after => {
                self.state = ShardState::Ejected;
                self.ejected_at = Some(now);
                Transition::Ejected
            }
            ShardState::HalfOpen => {
                // The probe failed: back to ejected, cooldown restarts.
                self.state = ShardState::Ejected;
                self.ejected_at = Some(now);
                Transition::None
            }
            _ => Transition::None,
        }
    }

    /// Called by the prober: if the cooldown has passed, advance
    /// `Ejected → HalfOpen` and return true — the caller then sends
    /// the probe whose outcome decides reinstatement.
    pub fn due_for_probe(&mut self, policy: &HealthPolicy, now: Instant) -> bool {
        if self.state == ShardState::Ejected {
            let rested = self
                .ejected_at
                .map(|t| now.duration_since(t) >= policy.cooldown)
                .unwrap_or(true);
            if rested {
                self.state = ShardState::HalfOpen;
                return true;
            }
        }
        false
    }

    /// Begins a rolling drain: the shard leaves the routable set now.
    pub fn begin_drain(&mut self) {
        self.state = ShardState::Draining;
    }

    /// Finishes a rolling drain: parked in `Ejected` so a restarted
    /// process on the same address is reinstated by the normal probe.
    pub fn finish_drain(&mut self, now: Instant) {
        self.state = ShardState::Ejected;
        self.ejected_at = Some(now);
        self.consecutive_failures = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> HealthPolicy {
        HealthPolicy {
            eject_after: 3,
            cooldown: Duration::from_millis(50),
        }
    }

    #[test]
    fn ejects_only_after_consecutive_failures() {
        let p = policy();
        let now = Instant::now();
        let mut h = ShardHealth::default();
        assert_eq!(h.record_failure(&p, now), Transition::None);
        assert_eq!(h.record_failure(&p, now), Transition::None);
        assert!(h.routable());
        // A success in between resets the streak.
        h.record_success();
        assert_eq!(h.record_failure(&p, now), Transition::None);
        assert_eq!(h.record_failure(&p, now), Transition::None);
        assert_eq!(h.record_failure(&p, now), Transition::Ejected);
        assert_eq!(h.state(), ShardState::Ejected);
        assert!(!h.routable());
    }

    #[test]
    fn half_open_probe_decides_reinstatement() {
        let p = policy();
        let t0 = Instant::now();
        let mut h = ShardHealth::default();
        for _ in 0..3 {
            h.record_failure(&p, t0);
        }
        // Not yet rested.
        assert!(!h.due_for_probe(&p, t0));
        assert_eq!(h.state(), ShardState::Ejected);
        // Cooldown passed: one probe is allowed.
        let t1 = t0 + Duration::from_millis(60);
        assert!(h.due_for_probe(&p, t1));
        assert_eq!(h.state(), ShardState::HalfOpen);
        // Failed probe: ejected again, cooldown restarts from t1.
        h.record_failure(&p, t1);
        assert_eq!(h.state(), ShardState::Ejected);
        assert!(!h.due_for_probe(&p, t1 + Duration::from_millis(10)));
        let t2 = t1 + Duration::from_millis(60);
        assert!(h.due_for_probe(&p, t2));
        assert_eq!(h.record_success(), Transition::Reinstated);
        assert_eq!(h.state(), ShardState::Healthy);
    }

    #[test]
    fn drain_parks_the_shard_in_ejected() {
        let p = policy();
        let now = Instant::now();
        let mut h = ShardHealth::default();
        h.begin_drain();
        assert_eq!(h.state(), ShardState::Draining);
        assert!(!h.routable());
        assert!(!h.due_for_probe(&p, now), "draining shards are not probed");
        h.finish_drain(now);
        assert_eq!(h.state(), ShardState::Ejected);
        // After the cooldown a restarted process is probed back in.
        assert!(h.due_for_probe(&p, now + Duration::from_millis(60)));
        assert_eq!(h.record_success(), Transition::Reinstated);
    }
}
