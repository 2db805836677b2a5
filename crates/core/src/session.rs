//! Resource-governed analysis sessions with graceful degradation.
//!
//! [`run_with_fallback`] answers one required-time query under a
//! [`Budget`], stepping down the ladder
//!
//! ```text
//! exact (§4.1) → approx1 (§4.2) → approx2 (§4.3) → topological (§3)
//! ```
//!
//! whenever a rung exhausts its budget, re-budgeting each rung. Every
//! rung of the ladder is *sound* — it only ever loosens toward the
//! classical topological requirement, never beyond what the oracle
//! proves safe — so a degraded answer is still a correct answer, just a
//! less precise one. The report records provenance: which rung was
//! requested, which answered, and what each attempt spent, so callers
//! can tell a degraded answer from a full one.
//!
//! [`SessionReport::digest`] boils a report down to an [`Answer`]: the
//! record Table 2 reports per circuit (the answering rung, whether it
//! beats the topological bottom r⊥, the witness points) plus the
//! required times it ran against and why it degraded. Every machine
//! consumer embeds it in one encoding, [`Answer::encode_fields`]: the
//! serve `answer` frame and cone-cache entry, and the batch journal's
//! `done` record and report row.

use std::time::{Duration, Instant};

use xrta_network::Network;
use xrta_robust::jsonflat::{escape, Fields};
use xrta_timing::tokens::{encode_points, encode_times, parse_points, parse_times};
use xrta_timing::{required_times, DelayModel, Time};

use crate::approx1::{approx1_required_times_governed, Approx1Analysis, Approx1Options};
use crate::approx2::{approx2_required_times_governed, Approx2Options, Approx2Result};
use crate::exact::{exact_required_times_governed, ExactAnalysis, ExactOptions};
use crate::governor::{AnalysisError, Budget};

/// Which rung of the degradation ladder produced (or was asked to
/// produce) an answer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Verdict {
    /// The exact relation of §4.1.
    Exact,
    /// The parametric approximation of §4.2.
    Approx1,
    /// The lattice-climbing approximation of §4.3.
    Approx2,
    /// The classical topological backward sweep of §3 — always
    /// available, always sound, never loose.
    Topological,
}

impl Verdict {
    /// The rung below this one, if any.
    fn next(self) -> Option<Verdict> {
        match self {
            Verdict::Exact => Some(Verdict::Approx1),
            Verdict::Approx1 => Some(Verdict::Approx2),
            Verdict::Approx2 => Some(Verdict::Topological),
            Verdict::Topological => None,
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Exact => write!(f, "exact"),
            Verdict::Approx1 => write!(f, "approx1"),
            Verdict::Approx2 => write!(f, "approx2"),
            Verdict::Topological => write!(f, "topological"),
        }
    }
}

impl std::str::FromStr for Verdict {
    type Err = String;

    /// Inverse of `Display`; `"topo"` is accepted as CLI shorthand.
    fn from_str(s: &str) -> Result<Verdict, String> {
        match s {
            "exact" => Ok(Verdict::Exact),
            "approx1" => Ok(Verdict::Approx1),
            "approx2" => Ok(Verdict::Approx2),
            "topological" | "topo" => Ok(Verdict::Topological),
            other => Err(format!("unknown verdict {other:?}")),
        }
    }
}

/// Options for one analysis session.
#[derive(Clone, Debug, Default)]
pub struct SessionOptions {
    /// Budget template: node/conflict limits and the *shared* cancel
    /// flag. Any deadline set here is absolute across the whole
    /// session; for per-rung re-budgeting use [`SessionOptions::timeout`].
    pub budget: Budget,
    /// Per-rung wall-clock allowance: each attempted rung gets a fresh
    /// deadline of this length. Overrides any deadline on `budget`.
    pub timeout: Option<Duration>,
    /// Step down the ladder on budget exhaustion instead of failing.
    pub fallback: bool,
    /// Options for the exact rung.
    pub exact: ExactOptions,
    /// Options for the parametric rung.
    pub approx1: Approx1Options,
    /// Options for the lattice-climbing rung.
    pub approx2: Approx2Options,
}

/// The answer a session produced, tagged by rung.
pub enum SessionAnswer {
    /// §4.1 relation.
    Exact(ExactAnalysis),
    /// §4.2 parametric conditions.
    Approx1(Approx1Analysis),
    /// §4.3 maximal safe points.
    Approx2(Approx2Result),
    /// §3 topological required times at the primary inputs (aligned
    /// with `net.inputs()`).
    Topological(Vec<Time>),
}

impl std::fmt::Debug for SessionAnswer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionAnswer::Exact(_) => write!(f, "SessionAnswer::Exact(..)"),
            SessionAnswer::Approx1(_) => write!(f, "SessionAnswer::Approx1(..)"),
            SessionAnswer::Approx2(_) => write!(f, "SessionAnswer::Approx2(..)"),
            SessionAnswer::Topological(v) => f
                .debug_tuple("SessionAnswer::Topological")
                .field(v)
                .finish(),
        }
    }
}

/// Record of one rung attempt: what it spent and how it ended.
#[derive(Clone, Copy, Debug)]
pub struct RungAttempt {
    /// The rung attempted.
    pub rung: Verdict,
    /// Wall-clock time the attempt consumed.
    pub wall: Duration,
    /// `None` when the rung answered; the exhaustion reason otherwise.
    pub error: Option<AnalysisError>,
}

/// Everything a session run reports: the answer, its provenance and
/// the per-rung resource spend.
#[derive(Debug)]
pub struct SessionReport {
    /// The rung originally requested.
    pub requested: Verdict,
    /// The rung that answered.
    pub verdict: Verdict,
    /// Output required-time vector the session ran against.
    pub req: Vec<Time>,
    /// The answer itself.
    pub answer: SessionAnswer,
    /// Every rung attempted, in order (the last one answered).
    pub attempts: Vec<RungAttempt>,
}

/// One analysis answer with the rung-specific analysis structures
/// boiled away: what a session, a cone analysis or a splice of cone
/// answers reports to every machine consumer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    /// The rung originally requested.
    pub requested: Verdict,
    /// The rung that answered (lower when degraded).
    pub verdict: Verdict,
    /// Whether the answer beats the topological requirement r⊥
    /// anywhere.
    pub nontrivial: bool,
    /// Output required-time vector the analysis ran against.
    pub req: Vec<Time>,
    /// Input-side witness points (aligned with `net.inputs()`):
    /// approx2's maximal safe points, or the single topological
    /// vector; empty for the relational rungs.
    pub points: Vec<Vec<Time>>,
    /// Budget-exhaustion reason behind a degraded verdict, empty
    /// otherwise.
    pub degraded_reason: String,
}

impl Answer {
    /// Did the analysis answer below the requested rung?
    pub fn degraded(&self) -> bool {
        self.verdict != self.requested
    }

    /// The record as flat-JSON fields without the enclosing braces, for
    /// embedding in a larger object:
    /// `"requested":…,"verdict":…,"degraded":…,"nontrivial":…,"req":…,"points":…,"degraded_reason":…`.
    /// Time vectors use the [`xrta_timing::tokens`] encoding.
    /// `degraded` is derived from the two rungs and is not read back.
    pub fn encode_fields(&self) -> String {
        format!(
            "\"requested\":\"{}\",\"verdict\":\"{}\",\"degraded\":{},\"nontrivial\":{},\
             \"req\":\"{}\",\"points\":\"{}\",\"degraded_reason\":\"{}\"",
            self.requested,
            self.verdict,
            self.degraded(),
            self.nontrivial,
            encode_times(&self.req),
            encode_points(&self.points),
            escape(&self.degraded_reason),
        )
    }

    /// Inverse of [`Answer::encode_fields`], reading the fields out of
    /// whichever record embeds them.
    pub fn from_fields(f: &Fields) -> Result<Answer, String> {
        Ok(Answer {
            requested: f.get("requested")?.parse()?,
            verdict: f.get("verdict")?.parse()?,
            nontrivial: f.get_bool("nontrivial")?,
            req: parse_times(f.get("req")?)?,
            points: parse_points(f.get("points")?)?,
            degraded_reason: f.get("degraded_reason")?.to_string(),
        })
    }
}

impl SessionReport {
    /// Did the session answer below the requested rung?
    pub fn degraded(&self) -> bool {
        self.verdict != self.requested
    }

    /// Collapses the report into its [`Answer`]. Takes `&mut` because
    /// the exact relation memoises its non-triviality check.
    pub fn digest(&mut self) -> Answer {
        let (nontrivial, points) = match &mut self.answer {
            SessionAnswer::Exact(a) => (a.has_nontrivial_requirement(), Vec::new()),
            SessionAnswer::Approx1(a) => (a.has_nontrivial_requirement(), Vec::new()),
            SessionAnswer::Approx2(r) => (r.has_nontrivial_requirement(), r.maximal.clone()),
            SessionAnswer::Topological(v) => (false, vec![v.clone()]),
        };
        Answer {
            requested: self.requested,
            verdict: self.verdict,
            nontrivial,
            req: self.req.clone(),
            points,
            degraded_reason: self
                .exhaustion_reason()
                .map(|e| e.to_string())
                .unwrap_or_default(),
        }
    }

    /// The budget-exhaustion reason that forced the first step down
    /// the ladder, if any.
    pub fn exhaustion_reason(&self) -> Option<AnalysisError> {
        self.attempts.iter().find_map(|a| a.error)
    }
}

/// Runs one required-time query, degrading down the ladder on budget
/// exhaustion when `options.fallback` is set.
///
/// Each rung gets a fresh budget from the template (same limits, fresh
/// deadline, shared cancel flag). The topological rung needs no oracle
/// and cannot fail, so a fallback session always returns an answer —
/// unless the shared cancel flag is raised, which aborts the whole
/// session with [`AnalysisError::Interrupted`] regardless of fallback.
///
/// Without fallback, the requested rung's error is returned as-is.
///
/// # Panics
///
/// Panics if `output_required.len() != net.outputs().len()`.
pub fn run_with_fallback<D: DelayModel>(
    net: &Network,
    model: &D,
    output_required: &[Time],
    requested: Verdict,
    options: &SessionOptions,
) -> Result<SessionReport, AnalysisError> {
    assert_eq!(output_required.len(), net.outputs().len());
    let mut attempts: Vec<RungAttempt> = Vec::new();
    let mut rung = requested;
    loop {
        // Re-budget: a fresh per-rung deadline, the same static
        // limits, the same (shared) cancel flag.
        let budget = match options.timeout {
            Some(t) => options
                .budget
                .clone()
                .with_deadline(Some(Instant::now() + t)),
            None => options.budget.clone(),
        };
        if budget.is_cancelled() {
            return Err(AnalysisError::Interrupted);
        }
        let t0 = Instant::now();
        // Fault-injection site on the rung transition: a fired
        // schedule forges a budget exhaustion for this rung, driving
        // the ordinary fallback machinery below. No-op unless armed.
        let injected: Option<AnalysisError> = match xrta_robust::failpoint::eval("session::rung") {
            Some(xrta_robust::failpoint::Outcome::Exhausted) => Some(AnalysisError::Capacity {
                limit: budget.node_limit().unwrap_or(0),
            }),
            Some(xrta_robust::failpoint::Outcome::ReturnError) => {
                Some(AnalysisError::DeadlineExceeded)
            }
            None => None,
        };
        let outcome: Result<SessionAnswer, AnalysisError> = if let Some(e) = injected {
            Err(e)
        } else {
            match rung {
                Verdict::Exact => exact_required_times_governed(
                    net,
                    model,
                    output_required,
                    options.exact,
                    &budget,
                )
                .map(SessionAnswer::Exact),
                Verdict::Approx1 => approx1_required_times_governed(
                    net,
                    model,
                    output_required,
                    options.approx1,
                    &budget,
                )
                .map(SessionAnswer::Approx1),
                Verdict::Approx2 => approx2_required_times_governed(
                    net,
                    model,
                    output_required,
                    options.approx2,
                    &budget,
                )
                .map(SessionAnswer::Approx2),
                Verdict::Topological => {
                    let req = required_times(net, model, output_required);
                    let at_inputs: Vec<Time> =
                        net.inputs().iter().map(|i| req[i.index()]).collect();
                    Ok(SessionAnswer::Topological(at_inputs))
                }
            }
        };
        let wall = t0.elapsed();
        match outcome {
            Ok(answer) => {
                attempts.push(RungAttempt {
                    rung,
                    wall,
                    error: None,
                });
                return Ok(SessionReport {
                    requested,
                    verdict: rung,
                    req: output_required.to_vec(),
                    answer,
                    attempts,
                });
            }
            Err(AnalysisError::Interrupted) => return Err(AnalysisError::Interrupted),
            Err(e) => {
                attempts.push(RungAttempt {
                    rung,
                    wall,
                    error: Some(e),
                });
                if !options.fallback {
                    return Err(e);
                }
                match rung.next() {
                    Some(below) => rung = below,
                    // Unreachable in practice: the topological rung
                    // cannot fail. Kept as an error, not a panic.
                    None => return Err(e),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrta_circuits::fig4;
    use xrta_timing::{topological_delays, UnitDelay};

    fn req2() -> Vec<Time> {
        vec![Time::new(2)]
    }

    #[test]
    fn unlimited_session_answers_at_requested_rung() {
        let net = fig4();
        for rung in [
            Verdict::Exact,
            Verdict::Approx1,
            Verdict::Approx2,
            Verdict::Topological,
        ] {
            let r = run_with_fallback(&net, &UnitDelay, &req2(), rung, &SessionOptions::default())
                .unwrap();
            assert_eq!(r.verdict, rung);
            assert!(!r.degraded());
            assert_eq!(r.attempts.len(), 1);
            assert!(r.exhaustion_reason().is_none());
        }
    }

    #[test]
    fn tiny_node_budget_degrades_exact_to_topological_equivalent() {
        let net = fig4();
        let opts = SessionOptions {
            budget: Budget::unlimited().with_node_limit(Some(8)),
            fallback: true,
            ..SessionOptions::default()
        };
        let mut r = run_with_fallback(&net, &UnitDelay, &req2(), Verdict::Exact, &opts).unwrap();
        assert!(r.degraded(), "8 nodes cannot fit the exact relation");
        let reason = r.exhaustion_reason();
        assert!(matches!(reason, Some(AnalysisError::Capacity { .. })));
        // BDD rungs both die on capacity; approx2's BDD-free SAT oracle
        // or the topological rung answers.
        assert!(r.verdict > Verdict::Approx1);
        // The digest carries the provenance and the deadline it ran
        // against.
        let a = r.digest();
        assert_eq!((a.degraded(), a.req), (true, req2()));
        assert_eq!(a.degraded_reason, reason.unwrap().to_string());
    }

    #[test]
    fn answer_fields_round_trip() {
        let full = Answer {
            requested: Verdict::Exact,
            verdict: Verdict::Topological,
            nontrivial: false,
            req: vec![Time::new(4), Time::INF],
            points: vec![vec![Time::NEG_INF, Time::new(-1)], vec![Time::new(2); 2]],
            degraded_reason: "node \"budget\"\\ exhausted\n".to_string(),
        };
        let empty = Answer {
            verdict: Verdict::Exact,
            nontrivial: true,
            req: Vec::new(),
            points: Vec::new(),
            degraded_reason: String::new(),
            ..full.clone()
        };
        for a in [full, empty] {
            let record = format!("{{\"event\":\"done\",{}}}", a.encode_fields());
            let fields = Fields::parse(&record).unwrap();
            assert_eq!(fields.get_bool("degraded").unwrap(), a.degraded());
            assert_eq!(Answer::from_fields(&fields).unwrap(), a, "{record}");
        }
    }

    #[test]
    fn fallback_off_surfaces_the_structured_error() {
        let net = fig4();
        let opts = SessionOptions {
            budget: Budget::unlimited().with_node_limit(Some(8)),
            fallback: false,
            ..SessionOptions::default()
        };
        let e = run_with_fallback(&net, &UnitDelay, &req2(), Verdict::Exact, &opts).unwrap_err();
        assert!(matches!(e, AnalysisError::Capacity { limit: 8 }));
    }

    #[test]
    fn topological_answer_matches_timing_sweep() {
        let net = fig4();
        let r = run_with_fallback(
            &net,
            &UnitDelay,
            &req2(),
            Verdict::Topological,
            &SessionOptions::default(),
        )
        .unwrap();
        let SessionAnswer::Topological(at_inputs) = r.answer else {
            panic!("topological answer expected");
        };
        // req = 2 at the single output; with unit delays the inputs'
        // topological requirement follows the backward sweep.
        let req = crate::session::required_times(&net, &UnitDelay, &req2());
        let want: Vec<Time> = net.inputs().iter().map(|i| req[i.index()]).collect();
        assert_eq!(at_inputs, want);
        let _ = topological_delays(&net, &UnitDelay);
    }

    #[test]
    fn cancelled_session_aborts_even_with_fallback() {
        let net = fig4();
        let opts = SessionOptions {
            budget: Budget::unlimited(),
            fallback: true,
            ..SessionOptions::default()
        };
        opts.budget.cancel();
        let e = run_with_fallback(&net, &UnitDelay, &req2(), Verdict::Exact, &opts).unwrap_err();
        assert_eq!(e, AnalysisError::Interrupted);
    }
}
