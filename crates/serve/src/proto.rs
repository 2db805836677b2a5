//! The wire protocol: length-prefixed flat-JSON frames.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! +----------------+----------------------------+
//! | length: u32 BE | payload: flat JSON, length |
//! +----------------+----------------------------+
//! ```
//!
//! The payload is a single-level JSON object in the
//! [`xrta_robust::jsonflat`] dialect; time vectors use the token
//! encoding of [`xrta_timing::tokens`]. Frames above [`MAX_FRAME`]
//! bytes are refused on read, so a malicious or confused peer cannot
//! make either side allocate unboundedly.
//!
//! Requests (`"cmd"` selects the variant):
//!
//! ```text
//! {"cmd":"analyze","name":"add8.bench","netlist":"...","algo":"approx2",
//!  "engine":"sat","req":"12 12",...}          → answer | busy | shutting_down | error
//! {"cmd":"delta", ...same fields...}          → answer composed from per-cone verdicts,
//!                                               reusing every cached cone
//! {"cmd":"stats"}                             → stats (handled out-of-band, never queued)
//! {"cmd":"ping"}                              → pong
//! {"cmd":"shutdown"}                          → shutting_down, then the server drains
//! {"cmd":"drain","shard":"host:port"}         → drained (router: quiesce that shard;
//!                                               serve: graceful self-drain)
//! ```
//!
//! Responses (`"status"` selects the variant). An `answer` is
//! `{"status":"answer",` + [`Answer::encode_fields`] + `}`: the session
//! verdict, its degradation provenance, the required times it ran
//! against and the witness points. Cache hits return the stored bytes,
//! so responses for one cache key are byte-identical no matter which
//! client asks or when. The server's cone cache stores each cone
//! analysis as its own `answer` (or `error`) frame and reads it back
//! with [`Response::parse`].

use std::io::{self, Read, Write};

use xrta_chi::EngineKind;
use xrta_core::Verdict;
use xrta_robust::jsonflat::{escape, Fields};
use xrta_timing::tokens::{encode_times, parse_times};
use xrta_timing::Time;

/// The payload of an `answer` response, shared with the session ladder.
pub use xrta_core::Answer;

use crate::stats::StatsSnapshot;

/// Hard ceiling on one frame's payload size (requests carry whole
/// netlists, so the bound is generous but finite).
pub const MAX_FRAME: usize = 16 << 20;

/// Writes one frame: `u32` big-endian length, then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame's payload. Errors on oversized lengths before
/// allocating.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer announced a {len}-byte frame (max {MAX_FRAME})"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// One analysis query: a netlist by value plus the session parameters
/// that shape the answer. Everything that influences the result is in
/// here — which is exactly what the cache key hashes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnalyzeRequest {
    /// Label for the netlist (drives format detection by extension;
    /// unknown extensions are sniffed).
    pub name: String,
    /// The netlist text itself (BLIF or bench).
    pub netlist: String,
    /// Requested rung of the ladder.
    pub algo: Verdict,
    /// χ engine for oracle queries.
    pub engine: EngineKind,
    /// Output required times (empty → the topological delays, the
    /// paper's experimental protocol).
    pub req: Vec<Time>,
    /// Wall-clock wish per rung, milliseconds; the server clamps it to
    /// its policy cap.
    pub timeout_ms: Option<u64>,
    /// BDD node budget wish; clamped by server policy.
    pub node_limit: Option<u64>,
    /// SAT conflict budget wish; clamped by server policy.
    pub sat_conflicts: Option<u64>,
    /// Byte-accurate memory budget wish; clamped by server policy and
    /// (like every clamped budget) folded into the budget clamp, never
    /// the cache key.
    pub mem_limit: Option<u64>,
    /// Artificial service-time floor in milliseconds, honoured only
    /// when the server runs with `allow_hold` (a load-generation aid
    /// for exercising admission control; never part of the cache key).
    pub hold_ms: u64,
}

impl Default for AnalyzeRequest {
    fn default() -> Self {
        AnalyzeRequest {
            name: "request.bench".to_string(),
            netlist: String::new(),
            algo: Verdict::Approx2,
            engine: EngineKind::Sat,
            req: Vec::new(),
            timeout_ms: None,
            node_limit: None,
            sat_conflicts: None,
            mem_limit: None,
            hold_ms: 0,
        }
    }
}

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Run (or fetch from cache) one analysis.
    Analyze(AnalyzeRequest),
    /// Run one analysis cone-incrementally: the server slices the
    /// netlist into per-output fanin cones, reuses every cone verdict
    /// it has already stored (from *any* prior request), analyses only
    /// the dirty cones, and splices. Same fields as `analyze`; the
    /// answer composes per-cone reports, so it is byte-identical to a
    /// cold `delta` of the same netlist, not to a whole-net `analyze`.
    Delta(AnalyzeRequest),
    /// Snapshot the server counters. Answered inline, never queued.
    Stats,
    /// Liveness probe.
    Ping,
    /// Begin graceful drain: stop accepting, finish in-flight work,
    /// fail queued work with `shutting_down`.
    Shutdown,
    /// Quiesce one backend for a zero-downtime restart. A router stops
    /// routing to `shard`, waits for its in-flight work, shuts it down
    /// and answers `drained`; a plain `xrta serve` treats it as a
    /// graceful self-drain (the `shard` label is echoed back).
    Drain {
        /// The backend address being quiesced, `host:port`.
        shard: String,
    },
}

/// Why admission control shed a request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BusyReason {
    /// The queue is full. The legacy shed reason: encoded as the bare
    /// `{"status":"busy"}` frame older peers already understand.
    #[default]
    Queue,
    /// The process sits above its memory watermark; accepting more
    /// work would risk the OOM killer.
    Memory,
}

impl std::fmt::Display for BusyReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BusyReason::Queue => write!(f, "queue"),
            BusyReason::Memory => write!(f, "memory"),
        }
    }
}

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The analysis answered (possibly degraded, possibly from cache).
    Answer(Answer),
    /// Admission control shed the request. Retry later; nothing was
    /// computed or cached. The reason distinguishes a full queue from
    /// memory pressure — both transient, both byte-forwarded unchanged
    /// by the router.
    Busy {
        /// What tripped the shed.
        reason: BusyReason,
    },
    /// The server is draining; the request was not served.
    ShuttingDown,
    /// The request itself failed (unparsable netlist, bad fields,
    /// analysis error with fallback off).
    Error(String),
    /// Counter snapshot.
    Stats(StatsSnapshot),
    /// Liveness answer.
    Pong,
    /// Acknowledgement that `shard` has been quiesced and shut down.
    Drained {
        /// The backend address that was quiesced, echoed back.
        shard: String,
    },
}

fn opt_field(out: &mut String, key: &str, v: Option<u64>) {
    if let Some(v) = v {
        out.push_str(&format!(",\"{key}\":{v}"));
    }
}

fn encode_analyze(cmd: &str, a: &AnalyzeRequest) -> String {
    let mut out = format!(
        "{{\"cmd\":\"{cmd}\",\"name\":\"{}\",\"algo\":\"{}\",\"engine\":\"{}\",\"req\":\"{}\"",
        escape(&a.name),
        a.algo,
        a.engine,
        encode_times(&a.req),
    );
    opt_field(&mut out, "timeout_ms", a.timeout_ms);
    opt_field(&mut out, "node_limit", a.node_limit);
    opt_field(&mut out, "sat_conflicts", a.sat_conflicts);
    opt_field(&mut out, "mem_limit", a.mem_limit);
    if a.hold_ms > 0 {
        opt_field(&mut out, "hold_ms", Some(a.hold_ms));
    }
    // The netlist rides last: it is by far the largest field, which
    // keeps the greppable header up front.
    out.push_str(&format!(",\"netlist\":\"{}\"}}", escape(&a.netlist)));
    out
}

fn parse_analyze(f: &Fields) -> Result<AnalyzeRequest, String> {
    Ok(AnalyzeRequest {
        name: f.get("name")?.to_string(),
        netlist: f.get("netlist")?.to_string(),
        algo: f.get("algo")?.parse()?,
        engine: f.get("engine")?.parse()?,
        req: parse_times(f.get("req")?)?,
        timeout_ms: f.opt_u64("timeout_ms")?,
        node_limit: f.opt_u64("node_limit")?,
        sat_conflicts: f.opt_u64("sat_conflicts")?,
        mem_limit: f.opt_u64("mem_limit")?,
        hold_ms: f.opt_u64("hold_ms")?.unwrap_or(0),
    })
}

impl Request {
    /// Encodes the request as one flat-JSON payload.
    pub fn encode(&self) -> String {
        match self {
            Request::Stats => "{\"cmd\":\"stats\"}".to_string(),
            Request::Ping => "{\"cmd\":\"ping\"}".to_string(),
            Request::Shutdown => "{\"cmd\":\"shutdown\"}".to_string(),
            Request::Drain { shard } => {
                format!("{{\"cmd\":\"drain\",\"shard\":\"{}\"}}", escape(shard))
            }
            Request::Analyze(a) => encode_analyze("analyze", a),
            Request::Delta(a) => encode_analyze("delta", a),
        }
    }

    /// Parses a request payload.
    pub fn parse(payload: &str) -> Result<Request, String> {
        let f = Fields::parse(payload)?;
        match f.get("cmd")? {
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "drain" => Ok(Request::Drain {
                shard: f.get("shard")?.to_string(),
            }),
            "analyze" => Ok(Request::Analyze(parse_analyze(&f)?)),
            "delta" => Ok(Request::Delta(parse_analyze(&f)?)),
            other => Err(format!("unknown cmd {other:?}")),
        }
    }
}

impl Response {
    /// Encodes the response as one flat-JSON payload.
    pub fn encode(&self) -> String {
        match self {
            // Queue sheds keep the legacy bare form so the frame bytes
            // (and the router's prefix classifier) are unchanged.
            Response::Busy {
                reason: BusyReason::Queue,
            } => "{\"status\":\"busy\"}".to_string(),
            Response::Busy {
                reason: BusyReason::Memory,
            } => "{\"status\":\"busy\",\"reason\":\"memory\"}".to_string(),
            Response::ShuttingDown => "{\"status\":\"shutting_down\"}".to_string(),
            Response::Pong => "{\"status\":\"pong\"}".to_string(),
            Response::Drained { shard } => {
                format!("{{\"status\":\"drained\",\"shard\":\"{}\"}}", escape(shard))
            }
            Response::Error(e) => {
                format!("{{\"status\":\"error\",\"error\":\"{}\"}}", escape(e))
            }
            Response::Stats(s) => s.encode(),
            Response::Answer(a) => format!("{{\"status\":\"answer\",{}}}", a.encode_fields()),
        }
    }

    /// Parses a response payload.
    pub fn parse(payload: &str) -> Result<Response, String> {
        let f = Fields::parse(payload)?;
        match f.get("status")? {
            "busy" => Ok(Response::Busy {
                reason: match f.opt("reason") {
                    None => BusyReason::Queue,
                    Some("memory") => BusyReason::Memory,
                    Some(other) => return Err(format!("unknown busy reason {other:?}")),
                },
            }),
            "shutting_down" => Ok(Response::ShuttingDown),
            "pong" => Ok(Response::Pong),
            "drained" => Ok(Response::Drained {
                shard: f.get("shard")?.to_string(),
            }),
            "error" => Ok(Response::Error(f.get("error")?.to_string())),
            "stats" => Ok(Response::Stats(StatsSnapshot::parse_fields(&f)?)),
            "answer" => Ok(Response::Answer(Answer::from_fields(&f)?)),
            other => Err(format!("unknown status {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert!(read_frame(&mut r).is_err(), "eof");
    }

    #[test]
    fn oversized_frame_is_refused_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
            Request::Drain {
                shard: "127.0.0.1:9001".to_string(),
            },
            Request::Analyze(AnalyzeRequest {
                name: "weird \"name\".bench".to_string(),
                netlist: "INPUT(a)\nOUTPUT(z)\nz = BUF(a)\n".to_string(),
                algo: Verdict::Exact,
                engine: EngineKind::Bdd,
                req: vec![Time::new(3), Time::INF],
                timeout_ms: Some(250),
                node_limit: None,
                sat_conflicts: Some(10_000),
                mem_limit: Some(64 << 20),
                hold_ms: 5,
            }),
            Request::Analyze(AnalyzeRequest::default()),
            Request::Delta(AnalyzeRequest {
                name: "eco.bench".to_string(),
                netlist: "INPUT(a)\nOUTPUT(z)\nz = BUF(a)\n".to_string(),
                ..AnalyzeRequest::default()
            }),
        ] {
            let text = req.encode();
            assert_eq!(Request::parse(&text).unwrap(), req, "{text}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Busy {
                reason: BusyReason::Queue,
            },
            Response::Busy {
                reason: BusyReason::Memory,
            },
            Response::ShuttingDown,
            Response::Pong,
            Response::Drained {
                shard: "127.0.0.1:9001".to_string(),
            },
            Response::Error("netlist: parsing x failed\nbadly".to_string()),
            Response::Answer(Answer {
                requested: Verdict::Exact,
                verdict: Verdict::Approx2,
                nontrivial: true,
                req: vec![Time::new(4)],
                points: vec![vec![Time::new(1), Time::NEG_INF], vec![Time::new(0); 2]],
                degraded_reason: "wall-clock deadline exceeded".to_string(),
            }),
        ] {
            let text = resp.encode();
            assert_eq!(Response::parse(&text).unwrap(), resp, "{text}");
        }
    }

    /// The `answer` frame is what caches, routers and clients store and
    /// compare byte for byte, so its exact bytes are pinned here.
    #[test]
    fn answer_frame_bytes_are_pinned() {
        let frame = Response::Answer(Answer {
            requested: Verdict::Exact,
            verdict: Verdict::Approx2,
            nontrivial: true,
            req: vec![Time::INF, Time::new(7)],
            points: vec![
                vec![Time::NEG_INF, Time::new(3)],
                vec![Time::new(-2), Time::INF],
            ],
            degraded_reason: "budget \"node\" at C:\\tmp".to_string(),
        })
        .encode();
        assert_eq!(
            frame,
            r#"{"status":"answer","requested":"exact","verdict":"approx2","degraded":true,"nontrivial":true,"req":"INF 7","points":"-INF 3|-2 INF","degraded_reason":"budget \"node\" at C:\\tmp"}"#
        );
    }

    #[test]
    fn busy_encodings_stay_prefix_compatible() {
        // Queue sheds must keep the legacy bytes (old peers, and the
        // router's prefix classifier, depend on them); memory sheds
        // extend the same prefix.
        let queue = Response::Busy {
            reason: BusyReason::Queue,
        }
        .encode();
        assert_eq!(queue, "{\"status\":\"busy\"}");
        let memory = Response::Busy {
            reason: BusyReason::Memory,
        }
        .encode();
        assert!(memory.starts_with("{\"status\":\"busy\""));
    }

    #[test]
    fn rejects_malformed_payloads() {
        for bad in ["{}", "{\"cmd\":\"nope\"}", "not json"] {
            assert!(Request::parse(bad).is_err(), "{bad:?}");
            assert!(Response::parse(bad).is_err(), "{bad:?}");
        }
    }
}
