//! Journal records: the batch runner's single source of truth.
//!
//! Every record is one flat JSON object (no nesting) in the
//! [`xrta_robust::jsonflat`] dialect, so the journal needs no external
//! dependencies and stays greppable. A `done` record is the job and
//! attempt followed by [`Answer::encode_fields`]; a journal whose
//! `done` records lack the answer's `degraded` and `degraded_reason`
//! fields is refused on resume.
//!
//! The journal carries **only deterministic fields** — no wall-clock
//! durations, no timestamps — so a report rebuilt from a
//! crash-interrupted journal plus its resumed tail is byte-identical
//! to the report of an uninterrupted run.

use xrta_core::Answer;
use xrta_robust::jsonflat::{escape, Fields};

use crate::classify::FailureClass;

/// One journal record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// Run header: first record of every journal. Pins the manifest
    /// (by CRC-32 of its bytes) and the run seed so a resume against
    /// a different manifest or seed is refused.
    Run {
        /// Number of jobs in the manifest.
        jobs: usize,
        /// Run seed (drives per-attempt failpoint schedules and
        /// backoff jitter).
        seed: u64,
        /// CRC-32 of the manifest bytes.
        manifest_crc: u32,
    },
    /// An attempt began. A `Start` with no matching `Done`/`Fail` is
    /// a *dangling* attempt — the process died mid-attempt — and the
    /// resumed run re-runs it under the same attempt number.
    Start {
        /// Job index (manifest order).
        job: usize,
        /// Attempt number, counting completed failed attempts.
        attempt: u64,
    },
    /// An attempt answered.
    Done(DoneRecord),
    /// An attempt failed cleanly.
    Fail {
        /// Job index.
        job: usize,
        /// Attempt number.
        attempt: u64,
        /// Stable error rendering (see [`crate::classify::JobError`]).
        error: String,
        /// Transient (retryable) or permanent.
        class: FailureClass,
        /// True when no retry follows: the job is terminally failed.
        is_final: bool,
    },
    /// The job was skipped by admission control near the aggregate
    /// deadline. Terminal.
    Shed {
        /// Job index.
        job: usize,
    },
}

/// Payload of a successful attempt: everything the report (and the
/// chaos oracle) needs to validate the answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DoneRecord {
    /// Job index.
    pub job: usize,
    /// Attempt number.
    pub attempt: u64,
    /// The answer, as the session (or the remote server) gave it: `req`
    /// is aligned with `net.outputs()`, each point with `net.inputs()`.
    pub answer: Answer,
}

impl Event {
    /// Encodes the record as one flat JSON object (no newline).
    pub fn encode(&self) -> String {
        match self {
            Event::Run {
                jobs,
                seed,
                manifest_crc,
            } => format!(
                "{{\"event\":\"run\",\"jobs\":{jobs},\"seed\":{seed},\"manifest_crc\":\"{manifest_crc:08x}\"}}"
            ),
            Event::Start { job, attempt } => {
                format!("{{\"event\":\"start\",\"job\":{job},\"attempt\":{attempt}}}")
            }
            Event::Done(d) => format!(
                "{{\"event\":\"done\",\"job\":{},\"attempt\":{},{}}}",
                d.job,
                d.attempt,
                d.answer.encode_fields(),
            ),
            Event::Fail {
                job,
                attempt,
                error,
                class,
                is_final,
            } => format!(
                "{{\"event\":\"fail\",\"job\":{job},\"attempt\":{attempt},\"error\":\"{}\",\"class\":\"{class}\",\"final\":{is_final}}}",
                escape(error),
            ),
            Event::Shed { job } => format!("{{\"event\":\"shed\",\"job\":{job}}}"),
        }
    }

    /// Parses a record previously produced by [`Event::encode`].
    pub fn parse(s: &str) -> Result<Event, String> {
        let f = Fields::parse(s)?;
        match f.get("event")? {
            "run" => Ok(Event::Run {
                jobs: f.get_u64("jobs")? as usize,
                seed: f.get_u64("seed")?,
                manifest_crc: u32::from_str_radix(f.get("manifest_crc")?, 16)
                    .map_err(|e| format!("bad manifest_crc: {e}"))?,
            }),
            "start" => Ok(Event::Start {
                job: f.get_u64("job")? as usize,
                attempt: f.get_u64("attempt")?,
            }),
            "done" => Ok(Event::Done(DoneRecord {
                job: f.get_u64("job")? as usize,
                attempt: f.get_u64("attempt")?,
                answer: Answer::from_fields(&f)?,
            })),
            "fail" => Ok(Event::Fail {
                job: f.get_u64("job")? as usize,
                attempt: f.get_u64("attempt")?,
                error: f.get("error")?.to_string(),
                class: match f.get("class")? {
                    "transient" => FailureClass::Transient,
                    "permanent" => FailureClass::Permanent,
                    other => return Err(format!("unknown failure class {other:?}")),
                },
                is_final: f.get_bool("final")?,
            }),
            "shed" => Ok(Event::Shed {
                job: f.get_u64("job")? as usize,
            }),
            other => Err(format!("unknown event {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrta_core::Verdict;
    use xrta_timing::Time;

    fn roundtrip(e: Event) {
        let text = e.encode();
        assert_eq!(Event::parse(&text).unwrap(), e, "{text}");
    }

    #[test]
    fn all_events_round_trip() {
        roundtrip(Event::Run {
            jobs: 50,
            seed: u64::MAX,
            manifest_crc: 0x00ab_cdef,
        });
        roundtrip(Event::Start { job: 3, attempt: 2 });
        roundtrip(Event::Done(DoneRecord {
            job: 7,
            attempt: 1,
            answer: Answer {
                requested: Verdict::Approx2,
                verdict: Verdict::Topological,
                nontrivial: true,
                req: vec![Time::new(6), Time::INF],
                points: vec![
                    vec![Time::new(2), Time::NEG_INF],
                    vec![Time::new(-3), Time::new(4)],
                ],
                degraded_reason: "wall-clock \"deadline\" exceeded\\".to_string(),
            },
        }));
        roundtrip(Event::Fail {
            job: 0,
            attempt: 0,
            error: "load: parsing \"x.bench\" failed\nand more".to_string(),
            class: FailureClass::Permanent,
            is_final: true,
        });
        roundtrip(Event::Shed { job: 49 });
    }

    #[test]
    fn empty_vectors_round_trip() {
        roundtrip(Event::Done(DoneRecord {
            job: 0,
            attempt: 0,
            answer: Answer {
                requested: Verdict::Exact,
                verdict: Verdict::Exact,
                nontrivial: false,
                req: vec![],
                points: vec![],
                degraded_reason: String::new(),
            },
        }));
    }

    #[test]
    fn rejects_malformed_records() {
        for bad in [
            "",
            "{",
            "{\"event\":\"nope\"}",
            "{\"event\":\"start\",\"job\":1}",
            "{\"event\":\"run\",\"jobs\":x,\"seed\":0,\"manifest_crc\":\"00\"}",
            "not json at all",
            // A `done` record from before it embedded the whole answer.
            "{\"event\":\"done\",\"job\":0,\"attempt\":0,\"requested\":\"exact\",\
             \"verdict\":\"exact\",\"nontrivial\":true,\"req\":\"2\",\"points\":\"\"}",
        ] {
            assert!(Event::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
