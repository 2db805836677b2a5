//! Deterministic fault injection behind named sites.
//!
//! An instrumented layer places a *site* at each spot where the real
//! world can go wrong — allocation in `bdd::mk`, the SAT conflict
//! loop, cone workers — and asks [`eval`] what should happen there:
//!
//! ```ignore
//! match xrta_robust::failpoint::eval("bdd::mk") {
//!     Some(Outcome::Exhausted) => return Err(BddError::Capacity { .. }),
//!     Some(Outcome::ReturnError) => return Err(BddError::Deadline),
//!     None => {} // no schedule armed: keep going
//! }
//! ```
//!
//! With the `failpoints` cargo feature **off** (the default), [`eval`]
//! is an `#[inline(always)]` constant `None` — the optimiser deletes
//! the site entirely, so production builds pay nothing. The feature
//! gate lives *inside this crate's function body*, not in the calling
//! macro, so instrumented crates need no feature plumbing of their
//! own: enabling `xrta-robust/failpoints` anywhere in the build graph
//! arms every site at once (cargo features are additive).
//!
//! With the feature on, a *schedule* armed via [`arm`] (or a
//! [`FailScenario`] in tests, or `XRTA_FAILPOINTS` via
//! [`arm_from_env`]) drives the sites deterministically. The spec
//! grammar, one `site=rules` clause per `;`:
//!
//! ```text
//! bdd::mk=exhaust@100;approx2::cone=panic%20;sat::conflict=stall(50)*3
//! ```
//!
//! Each site carries a comma-separated rule list; on every hit the
//! first matching rule fires. A rule is `action[@N][%P][*K]`:
//!
//! * actions: `off`, `err` (→ [`Outcome::ReturnError`]), `exhaust`
//!   (→ [`Outcome::Exhausted`]), `panic`, `stall(MILLIS)`;
//! * `@N` — only on the N-th hit of the site (1-based);
//! * `%P` — with probability P percent, decided by a pure hash of
//!   `(seed, site, hit index)`, so a given seed always produces the
//!   same fault sequence regardless of thread interleaving;
//! * `*K` — at most K firings, then the rule is spent.
//!
//! `panic` and `stall` are executed *inside* [`eval`] (after the
//! registry lock is released); `err` and `exhaust` are returned as an
//! [`Outcome`] so each site can map them onto its layer's native error
//! type. Hit counters are tracked for every site touched while a
//! schedule is armed — [`hits`] lets tests assert a site was reached.

/// Compile-time flag: was this build compiled with the `failpoints`
/// feature? When `false`, [`arm`] refuses schedules instead of
/// silently ignoring them.
pub const ENABLED: bool = cfg!(feature = "failpoints");

/// What an armed site tells its caller to do. `panic` and `stall`
/// schedules never surface here — they act inside [`eval`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Fail this operation with the layer's transient error (deadline,
    /// cancellation — whatever the site maps it to).
    ReturnError,
    /// Report resource exhaustion (the layer's "memory out" /
    /// capacity error).
    Exhausted,
}

/// Evaluates the named site against the armed schedule.
///
/// Returns `None` (inlined, constant) when the `failpoints` feature is
/// off or no schedule is armed; sites are therefore free to call this
/// in hot loops.
#[inline(always)]
pub fn eval(site: &str) -> Option<Outcome> {
    #[cfg(not(feature = "failpoints"))]
    {
        let _ = site;
        None
    }
    #[cfg(feature = "failpoints")]
    {
        armed::eval(site)
    }
}

/// Arms a process-wide schedule. `seed` drives every probabilistic
/// (`%P`) decision. Replaces any schedule already armed.
///
/// Errors on a malformed spec, or always when the build lacks the
/// `failpoints` feature (so a CLI `--failpoints` on a default build
/// fails loudly instead of testing nothing).
pub fn arm(spec: &str, seed: u64) -> Result<(), String> {
    #[cfg(not(feature = "failpoints"))]
    {
        let _ = (spec, seed);
        Err("this build has no failpoint support (enable the `failpoints` cargo feature)".into())
    }
    #[cfg(feature = "failpoints")]
    {
        armed::arm(spec, seed)
    }
}

/// Clears any armed schedule and all hit counters.
pub fn disarm() {
    #[cfg(feature = "failpoints")]
    armed::disarm();
}

/// Is a schedule currently armed?
pub fn is_armed() -> bool {
    #[cfg(not(feature = "failpoints"))]
    {
        false
    }
    #[cfg(feature = "failpoints")]
    {
        armed::is_armed()
    }
}

/// How many times `site` has been evaluated since the schedule was
/// armed (0 when nothing is armed or the build lacks the feature).
pub fn hits(site: &str) -> u64 {
    #[cfg(not(feature = "failpoints"))]
    {
        let _ = site;
        0
    }
    #[cfg(feature = "failpoints")]
    {
        armed::hits(site)
    }
}

/// Arms from the `XRTA_FAILPOINTS` / `XRTA_FAILPOINTS_SEED`
/// environment variables. Returns `Ok(false)` when the variable is
/// unset, `Ok(true)` when a schedule was armed.
pub fn arm_from_env() -> Result<bool, String> {
    let Ok(spec) = std::env::var("XRTA_FAILPOINTS") else {
        return Ok(false);
    };
    if spec.trim().is_empty() {
        return Ok(false);
    }
    let seed = match std::env::var("XRTA_FAILPOINTS_SEED") {
        Ok(s) => s
            .trim()
            .parse::<u64>()
            .map_err(|e| format!("bad XRTA_FAILPOINTS_SEED {s:?}: {e}"))?,
        Err(_) => 0,
    };
    arm(&spec, seed)?;
    Ok(true)
}

/// RAII schedule for tests: arms on setup, disarms on drop, and holds
/// a process-wide lock so concurrently running `#[test]`s cannot see
/// each other's schedules.
pub struct FailScenario {
    #[cfg(feature = "failpoints")]
    _serial: std::sync::MutexGuard<'static, ()>,
}

impl FailScenario {
    /// Arms `spec` under `seed`; panics on a malformed spec (tests
    /// want the loud failure).
    pub fn setup(spec: &str, seed: u64) -> FailScenario {
        #[cfg(not(feature = "failpoints"))]
        {
            let _ = (spec, seed);
            panic!("FailScenario requires the `failpoints` cargo feature");
        }
        #[cfg(feature = "failpoints")]
        {
            let guard = armed::test_serial_lock();
            arm(spec, seed).unwrap_or_else(|e| panic!("bad failpoint spec {spec:?}: {e}"));
            FailScenario { _serial: guard }
        }
    }
}

impl Drop for FailScenario {
    fn drop(&mut self) {
        disarm();
    }
}

#[cfg(feature = "failpoints")]
mod armed {
    use super::Outcome;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock};
    use std::time::Duration;

    #[derive(Clone, Copy, Debug)]
    enum Action {
        Off,
        ReturnError,
        Exhausted,
        Panic,
        Stall(Duration),
    }

    #[derive(Debug)]
    struct Rule {
        action: Action,
        at_hit: Option<u64>,
        percent: Option<u32>,
        remaining: Option<u64>,
    }

    #[derive(Debug, Default)]
    struct SiteState {
        rules: Vec<Rule>,
        hits: u64,
    }

    #[derive(Debug)]
    struct Registry {
        seed: u64,
        sites: HashMap<String, SiteState>,
    }

    /// Cheap pre-lock check so disarmed builds-with-feature still pay
    /// only one relaxed atomic load per site.
    static ACTIVE: AtomicBool = AtomicBool::new(false);

    fn registry() -> &'static Mutex<Option<Registry>> {
        static REG: OnceLock<Mutex<Option<Registry>>> = OnceLock::new();
        REG.get_or_init(|| Mutex::new(None))
    }

    fn lock_registry() -> MutexGuard<'static, Option<Registry>> {
        // A panic action never poisons this lock (it fires after the
        // guard drops), but recover anyway: a poisoned registry would
        // otherwise cascade into every later test.
        registry()
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    pub(super) fn test_serial_lock() -> MutexGuard<'static, ()> {
        static SERIAL: OnceLock<Mutex<()>> = OnceLock::new();
        SERIAL
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Pure, interleaving-independent probability decision for `%P`
    /// rules: the same (seed, site, hit) always rolls the same die.
    fn chance(seed: u64, site: &str, hit: u64, percent: u32) -> bool {
        let mixed = seed
            ^ xrta_rng::fnv1a64(site.as_bytes()).rotate_left(17)
            ^ hit.wrapping_mul(0x9E3779B97F4A7C15);
        xrta_rng::Rng::seed_from_u64(mixed).percent(percent)
    }

    pub(super) fn arm(spec: &str, seed: u64) -> Result<(), String> {
        let mut sites = HashMap::new();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (site, rules_text) = clause
                .split_once('=')
                .ok_or_else(|| format!("clause {clause:?} is not site=rules"))?;
            let mut rules = Vec::new();
            for rule_text in rules_text.split(',') {
                rules.push(parse_rule(rule_text.trim())?);
            }
            sites.insert(site.trim().to_string(), SiteState { rules, hits: 0 });
        }
        *lock_registry() = Some(Registry { seed, sites });
        ACTIVE.store(true, Ordering::Release);
        Ok(())
    }

    fn parse_rule(text: &str) -> Result<Rule, String> {
        if text.is_empty() {
            return Err("empty rule".into());
        }
        // Split the action token from its `@N` / `%P` / `*K` suffixes.
        let suffix_start = text
            .char_indices()
            .find(|&(_, c)| c == '@' || c == '%' || c == '*')
            .map(|(i, _)| i)
            .unwrap_or(text.len());
        let (action_text, mut rest) = text.split_at(suffix_start);
        let action = match action_text.trim() {
            "off" => Action::Off,
            "err" => Action::ReturnError,
            "exhaust" => Action::Exhausted,
            "panic" => Action::Panic,
            a if a.starts_with("stall(") && a.ends_with(')') => {
                let ms: u64 = a["stall(".len()..a.len() - 1]
                    .trim()
                    .parse()
                    .map_err(|e| format!("bad stall millis in {text:?}: {e}"))?;
                Action::Stall(Duration::from_millis(ms))
            }
            other => return Err(format!("unknown action {other:?} in rule {text:?}")),
        };
        let mut rule = Rule {
            action,
            at_hit: None,
            percent: None,
            remaining: None,
        };
        while !rest.is_empty() {
            let kind = rest.chars().next().unwrap();
            let body = &rest[1..];
            let end = body
                .char_indices()
                .find(|&(_, c)| c == '@' || c == '%' || c == '*')
                .map(|(i, _)| i)
                .unwrap_or(body.len());
            let value = body[..end].trim();
            match kind {
                '@' => {
                    let n: u64 = value
                        .parse()
                        .map_err(|e| format!("bad @hit in rule {text:?}: {e}"))?;
                    if n == 0 {
                        return Err(format!("@hit is 1-based in rule {text:?}"));
                    }
                    rule.at_hit = Some(n);
                }
                '%' => {
                    let p: u32 = value
                        .parse()
                        .map_err(|e| format!("bad %percent in rule {text:?}: {e}"))?;
                    if p > 100 {
                        return Err(format!("%percent over 100 in rule {text:?}"));
                    }
                    rule.percent = Some(p);
                }
                '*' => {
                    let k: u64 = value
                        .parse()
                        .map_err(|e| format!("bad *count in rule {text:?}: {e}"))?;
                    rule.remaining = Some(k);
                }
                _ => unreachable!("suffix split only stops at @%*"),
            }
            rest = &body[end..];
        }
        Ok(rule)
    }

    pub(super) fn disarm() {
        ACTIVE.store(false, Ordering::Release);
        *lock_registry() = None;
    }

    pub(super) fn is_armed() -> bool {
        ACTIVE.load(Ordering::Acquire)
    }

    pub(super) fn hits(site: &str) -> u64 {
        lock_registry()
            .as_ref()
            .and_then(|r| r.sites.get(site))
            .map_or(0, |s| s.hits)
    }

    pub(super) fn eval(site: &str) -> Option<Outcome> {
        if !ACTIVE.load(Ordering::Acquire) {
            return None;
        }
        // Decide under the lock, act after releasing it: a `panic`
        // must not poison the registry and a `stall` must not block
        // other workers' sites.
        let decision = {
            let mut guard = lock_registry();
            let reg = guard.as_mut()?;
            let seed = reg.seed;
            let state = reg.sites.entry(site.to_string()).or_default();
            state.hits += 1;
            let hit = state.hits;
            let mut fired = None;
            for rule in &mut state.rules {
                if rule.at_hit.is_some_and(|n| n != hit) {
                    continue;
                }
                if rule.remaining == Some(0) {
                    continue;
                }
                if let Some(p) = rule.percent {
                    if !chance(seed, site, hit, p) {
                        continue;
                    }
                }
                if let Some(k) = rule.remaining.as_mut() {
                    *k -= 1;
                }
                fired = Some((rule.action, hit));
                break;
            }
            fired
        };
        match decision {
            None | Some((Action::Off, _)) => None,
            Some((Action::ReturnError, _)) => Some(Outcome::ReturnError),
            Some((Action::Exhausted, _)) => Some(Outcome::Exhausted),
            Some((Action::Stall(d), _)) => {
                std::thread::sleep(d);
                None
            }
            Some((Action::Panic, hit)) => {
                panic!("failpoint {site:?} panicked on hit {hit} (injected)")
            }
        }
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unarmed_eval_is_none() {
        let _s = FailScenario::setup("other=err", 1);
        assert_eq!(eval("not-configured"), None);
        assert_eq!(hits("not-configured"), 1, "hits tracked even unconfigured");
    }

    #[test]
    fn at_hit_fires_exactly_once() {
        let _s = FailScenario::setup("a=exhaust@3", 0);
        assert_eq!(eval("a"), None);
        assert_eq!(eval("a"), None);
        assert_eq!(eval("a"), Some(Outcome::Exhausted));
        assert_eq!(eval("a"), None);
        assert_eq!(hits("a"), 4);
    }

    #[test]
    fn count_budget_is_spent() {
        let _s = FailScenario::setup("a=err*2", 0);
        assert_eq!(eval("a"), Some(Outcome::ReturnError));
        assert_eq!(eval("a"), Some(Outcome::ReturnError));
        assert_eq!(eval("a"), None);
    }

    #[test]
    fn probability_is_deterministic_in_the_seed() {
        let run = |seed| {
            let _s = FailScenario::setup("a=err%40", seed);
            (0..64).map(|_| eval("a").is_some()).collect::<Vec<_>>()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        let fired = a.iter().filter(|&&f| f).count();
        assert!((10..40).contains(&fired), "~40% of 64, got {fired}");
    }

    #[test]
    fn first_matching_rule_wins_and_off_suppresses() {
        let _s = FailScenario::setup("a=off@1,exhaust", 0);
        assert_eq!(eval("a"), None, "off rule shadows on hit 1");
        assert_eq!(eval("a"), Some(Outcome::Exhausted));
    }

    #[test]
    fn panic_action_panics_with_site_name() {
        let _s = FailScenario::setup("boom=panic@1", 0);
        let err = std::panic::catch_unwind(|| eval("boom")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("boom"), "panic message names the site: {msg}");
    }

    #[test]
    fn stall_action_sleeps_then_continues() {
        let _s = FailScenario::setup("slow=stall(30)@1", 0);
        let t0 = std::time::Instant::now();
        assert_eq!(eval("slow"), None);
        assert!(t0.elapsed() >= Duration::from_millis(25));
        assert_eq!(eval("slow"), None);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "noequals",
            "a=unknownaction",
            "a=err@0",
            "a=err%101",
            "a=stall(abc)",
            "a=",
        ] {
            assert!(arm(bad, 0).is_err(), "spec {bad:?} should be rejected");
        }
        disarm();
    }
}

#[cfg(all(test, not(feature = "failpoints")))]
mod disabled_tests {
    use super::*;

    /// The acceptance criterion's `#[cfg]` assertion: in a default
    /// build failpoints are compiled out — `eval` is a constant `None`,
    /// nothing can be armed, and no site tracks hits.
    #[test]
    fn default_build_compiles_failpoints_to_noops() {
        const { assert!(!ENABLED) };
        assert!(arm("bdd::mk=panic", 0).is_err(), "arming must refuse");
        assert!(!is_armed());
        for _ in 0..1_000_000 {
            assert_eq!(eval("bdd::mk"), None);
        }
        assert_eq!(hits("bdd::mk"), 0);
    }
}
