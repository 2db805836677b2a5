//! Command-line plumbing shared by the `xrta` binary's subcommands.
//!
//! The one table that matters is [`COMMANDS`]/[`FLAGS`]: every
//! subcommand and every flag the parser accepts is declared there,
//! and the usage text is *generated* from it ([`render_usage`]), so
//! the two cannot drift apart — a flag the parser takes but the table
//! omits is rejected as unknown, and the unit tests assert the
//! converse (every declared flag parses and appears in the usage).
//!
//! [`parse_args`] is pure (slice in, [`Args`] out) so tests can drive
//! it without a process boundary; the binary passes `std::env::args`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use xrta_chi::EngineKind;
use xrta_network::Network;
use xrta_timing::{topological_delays, Time, UnitDelay};

/// One subcommand: its positional argument (if any) and the flags it
/// accepts beyond [`COMMON_FLAGS`].
pub struct CommandSpec {
    /// Subcommand name as typed.
    pub name: &'static str,
    /// Placeholder for the positional argument; `None` when the
    /// command takes none. Brackets mark it optional.
    pub arg: Option<&'static str>,
    /// Placeholder for a second positional argument (only ever
    /// optional; `xrta route drain <shard>` is the one user).
    pub arg2: Option<&'static str>,
    /// Flags this command accepts (beyond the common ones).
    pub flags: &'static [&'static str],
    /// One-line description for the usage text.
    pub summary: &'static str,
}

/// One flag: its value placeholder (`None` for boolean switches) and
/// help text.
pub struct FlagSpec {
    /// The flag as typed, `--dashes` included.
    pub flag: &'static str,
    /// Value placeholder (e.g. `SECS`); `None` for switches.
    pub value: Option<&'static str>,
    /// One-line description for the usage text.
    pub help: &'static str,
}

/// Flags every subcommand accepts.
pub const COMMON_FLAGS: &[&str] = &["--cancel-file", "--failpoints", "--failpoints-seed"];

/// The subcommand table. Order is the usage-text order.
pub const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "stats",
        arg: Some("<netlist>"),
        arg2: None,
        flags: &[],
        summary: "structural statistics",
    },
    CommandSpec {
        name: "topo",
        arg: Some("<netlist>"),
        arg2: None,
        flags: &["--req"],
        summary: "topological arrival/required/slack",
    },
    CommandSpec {
        name: "truedelay",
        arg: Some("<netlist>"),
        arg2: None,
        flags: &["--engine"],
        summary: "functional (false-path) delays",
    },
    CommandSpec {
        name: "reqtime",
        arg: Some("<netlist>"),
        arg2: None,
        flags: &[
            "--algo",
            "--engine",
            "--req",
            "--timeout",
            "--node-limit",
            "--sat-conflicts",
            "--mem-limit",
            "--fallback",
            "--report",
        ],
        summary: "required times via the governed session ladder",
    },
    CommandSpec {
        name: "resynth",
        arg: Some("<netlist>"),
        arg2: None,
        flags: &[
            "--engine",
            "--req",
            "--timeout",
            "--node-limit",
            "--sat-conflicts",
            "--mem-limit",
            "--out",
            "--max-chains",
            "--slack-margin",
        ],
        summary: "slack-guided AND-OR restructuring with verified equivalence",
    },
    CommandSpec {
        name: "gen",
        arg: Some("<family>"),
        arg2: None,
        flags: &["--bits", "--bypass", "--seed", "--out"],
        summary: "emit a generated netlist (family: adder)",
    },
    CommandSpec {
        name: "slack",
        arg: Some("<netlist>"),
        arg2: None,
        flags: &["--node", "--req", "--engine"],
        summary: "false-path-aware slack at one node",
    },
    CommandSpec {
        name: "macro",
        arg: Some("<netlist>"),
        arg2: None,
        flags: &["--engine"],
        summary: "pin-to-pin macro-model",
    },
    CommandSpec {
        name: "fuzz",
        arg: None,
        arg2: None,
        flags: &[
            "--seeds",
            "--max-inputs",
            "--time-cap",
            "--corpus",
            "--base-seed",
            "--edits",
            "--resynth",
            "--mem-limit",
        ],
        summary: "differential fuzzing against the exhaustive oracle",
    },
    CommandSpec {
        name: "batch",
        arg: Some("<manifest>"),
        arg2: None,
        flags: &[
            "--journal",
            "--report",
            "--resume",
            "--seed",
            "--max-retries",
            "--backoff-base",
            "--backoff-cap",
            "--aggregate-timeout",
            "--timeout",
            "--fallback",
            "--engine",
            "--route",
            "--mem-limit",
        ],
        summary: "crash-resilient batch runner",
    },
    CommandSpec {
        name: "serve",
        arg: None,
        arg2: None,
        flags: &[
            "--addr",
            "--workers",
            "--queue-cap",
            "--mem-cache",
            "--cache-dir",
            "--max-timeout",
            "--node-limit",
            "--sat-conflicts",
            "--mem-limit",
            "--drain-deadline",
            "--allow-hold",
        ],
        summary: "analysis daemon with result cache and admission control",
    },
    CommandSpec {
        name: "request",
        arg: Some("[netlist]"),
        arg2: None,
        flags: &[
            "--addr",
            "--req",
            "--algo",
            "--engine",
            "--timeout",
            "--node-limit",
            "--sat-conflicts",
            "--mem-limit",
            "--hold-ms",
            "--stats",
            "--ping",
            "--shutdown",
            "--retries",
            "--retry-budget-ms",
            "--delta",
        ],
        summary: "query a running serve daemon",
    },
    CommandSpec {
        name: "route",
        arg: Some("[drain]"),
        arg2: Some("[shard]"),
        flags: &[
            "--addr",
            "--shards",
            "--probe-interval",
            "--eject-after",
            "--cooldown",
            "--retries",
            "--retry-budget-ms",
            "--drain-deadline",
        ],
        summary: "consistent-hash router over serve shards (or: drain one shard)",
    },
];

/// The flag table: everything [`parse_args`] accepts, anywhere.
pub const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        flag: "--req",
        value: Some("T"),
        help: "shared output required time (default: topological delay)",
    },
    FlagSpec {
        flag: "--engine",
        value: Some("bdd|sat"),
        help: "χ oracle engine",
    },
    FlagSpec {
        flag: "--algo",
        value: Some("exact|approx1|approx2|topological"),
        help: "analysis rung to request",
    },
    FlagSpec {
        flag: "--node",
        value: Some("NAME"),
        help: "node to compute slack at",
    },
    FlagSpec {
        flag: "--timeout",
        value: Some("SECS"),
        help: "per-rung wall-clock allowance",
    },
    FlagSpec {
        flag: "--node-limit",
        value: Some("N"),
        help: "BDD node budget",
    },
    FlagSpec {
        flag: "--sat-conflicts",
        value: Some("N"),
        help: "SAT conflict budget per oracle query",
    },
    FlagSpec {
        flag: "--mem-limit",
        value: Some("BYTES"),
        help: "memory budget with K/M/G suffixes (e.g. 64M); serve: policy cap",
    },
    FlagSpec {
        flag: "--fallback",
        value: Some("on|off"),
        help: "degrade down the ladder on budget exhaustion",
    },
    FlagSpec {
        flag: "--seeds",
        value: Some("N"),
        help: "run N engine-matrix seeds (the default differential; 100)",
    },
    FlagSpec {
        flag: "--max-inputs",
        value: Some("K"),
        help: "primary-input cap for fuzz circuits",
    },
    FlagSpec {
        flag: "--time-cap",
        value: Some("SECS"),
        help: "wall-clock bound for the fuzz run",
    },
    FlagSpec {
        flag: "--corpus",
        value: Some("DIR"),
        help: "where fuzz files shrunk reproducers",
    },
    FlagSpec {
        flag: "--base-seed",
        value: Some("N"),
        help: "first fuzz seed",
    },
    FlagSpec {
        flag: "--edits",
        value: Some("N"),
        help: "run N ECO edit sequences (incremental-vs-scratch differential)",
    },
    FlagSpec {
        flag: "--resynth",
        value: Some("N"),
        help: "run N resynthesis differentials (equivalence + delay non-regression)",
    },
    FlagSpec {
        flag: "--out",
        value: Some("PATH"),
        help: "write the resulting netlist here (resynth: original bytes when no gain)",
    },
    FlagSpec {
        flag: "--max-chains",
        value: Some("N"),
        help: "candidate chains examined per resynthesis pass",
    },
    FlagSpec {
        flag: "--slack-margin",
        value: Some("T"),
        help: "treat outputs within T ticks of the worst slack as critical",
    },
    FlagSpec {
        flag: "--bits",
        value: Some("N"),
        help: "adder width for `gen adder`",
    },
    FlagSpec {
        flag: "--bypass",
        value: Some("K"),
        help: "carry-bypass block size for `gen adder` (0 = plain ripple)",
    },
    FlagSpec {
        flag: "--delta",
        value: None,
        help: "send a delta request: reuse cached cone verdicts server-side",
    },
    FlagSpec {
        flag: "--journal",
        value: Some("PATH"),
        help: "batch journal path",
    },
    FlagSpec {
        flag: "--report",
        value: Some("PATH"),
        help: "batch report path; reqtime: the literal `slack` emits per-node slack JSON",
    },
    FlagSpec {
        flag: "--resume",
        value: None,
        help: "resume a batch run from its journal",
    },
    FlagSpec {
        flag: "--seed",
        value: Some("N"),
        help: "batch scheduling seed; gen: seed delay-override directives",
    },
    FlagSpec {
        flag: "--max-retries",
        value: Some("N"),
        help: "retry budget per batch job",
    },
    FlagSpec {
        flag: "--backoff-base",
        value: Some("SECS"),
        help: "first retry backoff",
    },
    FlagSpec {
        flag: "--backoff-cap",
        value: Some("SECS"),
        help: "backoff ceiling",
    },
    FlagSpec {
        flag: "--aggregate-timeout",
        value: Some("SECS"),
        help: "whole-batch wall-clock budget",
    },
    FlagSpec {
        flag: "--addr",
        value: Some("HOST:PORT"),
        help: "serve bind address / request target (port 0 = ephemeral)",
    },
    FlagSpec {
        flag: "--workers",
        value: Some("N"),
        help: "serve worker threads",
    },
    FlagSpec {
        flag: "--queue-cap",
        value: Some("N"),
        help: "admission queue bound (full queue sheds busy)",
    },
    FlagSpec {
        flag: "--mem-cache",
        value: Some("N"),
        help: "in-memory result-cache entries",
    },
    FlagSpec {
        flag: "--cache-dir",
        value: Some("DIR"),
        help: "disk result-cache directory (omit to disable)",
    },
    FlagSpec {
        flag: "--max-timeout",
        value: Some("SECS"),
        help: "policy cap on per-request wall clock",
    },
    FlagSpec {
        flag: "--drain-deadline",
        value: Some("SECS"),
        help: "grace for in-flight work during shutdown",
    },
    FlagSpec {
        flag: "--allow-hold",
        value: None,
        help: "honour the hold_ms request field (testing aid)",
    },
    FlagSpec {
        flag: "--hold-ms",
        value: Some("N"),
        help: "ask the server to pad service time (needs --allow-hold)",
    },
    FlagSpec {
        flag: "--stats",
        value: None,
        help: "fetch the server's counter snapshot",
    },
    FlagSpec {
        flag: "--ping",
        value: None,
        help: "liveness probe",
    },
    FlagSpec {
        flag: "--shutdown",
        value: None,
        help: "ask the server to drain and exit",
    },
    FlagSpec {
        flag: "--shards",
        value: Some("HOSTS"),
        help: "comma-separated backend serve addresses to route across",
    },
    FlagSpec {
        flag: "--probe-interval",
        value: Some("SECS"),
        help: "health-check ping period per shard",
    },
    FlagSpec {
        flag: "--eject-after",
        value: Some("N"),
        help: "consecutive failures before a shard is ejected",
    },
    FlagSpec {
        flag: "--cooldown",
        value: Some("SECS"),
        help: "rest before an ejected shard gets a half-open probe",
    },
    FlagSpec {
        flag: "--retries",
        value: Some("N"),
        help: "retry attempts on busy/connect failures",
    },
    FlagSpec {
        flag: "--retry-budget-ms",
        value: Some("MS"),
        help: "wall-clock cap across all retry attempts",
    },
    FlagSpec {
        flag: "--route",
        value: Some("HOST:PORT"),
        help: "send batch jobs through a running route/serve tier",
    },
    FlagSpec {
        flag: "--cancel-file",
        value: Some("PATH"),
        help: "stop cleanly when this file appears (exit 4)",
    },
    FlagSpec {
        flag: "--failpoints",
        value: Some("SPEC"),
        help: "arm deterministic fault injection (failpoints builds)",
    },
    FlagSpec {
        flag: "--failpoints-seed",
        value: Some("N"),
        help: "seed for probabilistic failpoint actions",
    },
];

/// Everything the subcommands consume, fully defaulted.
#[derive(Debug)]
pub struct Args {
    /// The subcommand.
    pub command: String,
    /// The positional argument (netlist or manifest), when given.
    pub path: Option<String>,
    /// The second positional argument (`route drain <shard>`).
    pub path2: Option<String>,
    /// `--req`.
    pub req: Option<i64>,
    /// `--engine`.
    pub engine: EngineKind,
    /// `--algo` (validated by the consumer against the ladder).
    pub algo: String,
    /// `--node`.
    pub node: Option<String>,
    /// `--timeout`.
    pub timeout: Option<Duration>,
    /// `--node-limit`.
    pub node_limit: Option<usize>,
    /// `--sat-conflicts`.
    pub sat_conflicts: Option<u64>,
    /// `--mem-limit`, parsed to bytes.
    pub mem_limit: Option<u64>,
    /// `--fallback`.
    pub fallback: bool,
    /// `--seeds` (`None` when the flag was not given: the engine
    /// differential then runs 100 seeds).
    pub seeds: Option<usize>,
    /// `--max-inputs`.
    pub max_inputs: usize,
    /// `--time-cap`.
    pub time_cap: Option<Duration>,
    /// `--corpus`.
    pub corpus: Option<String>,
    /// `--base-seed`.
    pub base_seed: u64,
    /// `--edits` (`Some`: run the ECO differential instead of the
    /// oracle matrix).
    pub edits: Option<usize>,
    /// `--resynth` (`Some`: run the resynthesis differential instead
    /// of the oracle matrix).
    pub resynth: Option<usize>,
    /// `--out`.
    pub out: Option<String>,
    /// `--max-chains`.
    pub max_chains: usize,
    /// `--slack-margin`, in ticks.
    pub slack_margin: i64,
    /// `--bits`.
    pub bits: usize,
    /// `--bypass` (0 = plain ripple carry).
    pub bypass: usize,
    /// `--delta`.
    pub delta: bool,
    /// `--journal`.
    pub journal: Option<String>,
    /// `--report`.
    pub report_path: Option<String>,
    /// `--resume`.
    pub resume: bool,
    /// `--seed` (`None` when the flag was not given; consumers that
    /// need a value default it themselves).
    pub seed: Option<u64>,
    /// `--max-retries`.
    pub max_retries: u32,
    /// `--backoff-base`.
    pub backoff_base: Duration,
    /// `--backoff-cap`.
    pub backoff_cap: Duration,
    /// `--aggregate-timeout`.
    pub aggregate_timeout: Option<Duration>,
    /// `--addr`.
    pub addr: String,
    /// `--workers`.
    pub workers: usize,
    /// `--queue-cap`.
    pub queue_cap: usize,
    /// `--mem-cache`.
    pub mem_cache: usize,
    /// `--cache-dir`.
    pub cache_dir: Option<String>,
    /// `--max-timeout`.
    pub max_timeout: Duration,
    /// `--drain-deadline`.
    pub drain_deadline: Duration,
    /// `--allow-hold`.
    pub allow_hold: bool,
    /// `--hold-ms`.
    pub hold_ms: u64,
    /// `--shards` (comma-separated backend addresses).
    pub shards: Option<String>,
    /// `--probe-interval`.
    pub probe_interval: Duration,
    /// `--eject-after`.
    pub eject_after: u32,
    /// `--cooldown`.
    pub cooldown: Duration,
    /// `--retries`.
    pub retries: u32,
    /// `--retry-budget-ms`.
    pub retry_budget_ms: u64,
    /// `--route`.
    pub route: Option<String>,
    /// `--stats`.
    pub stats_probe: bool,
    /// `--ping`.
    pub ping_probe: bool,
    /// `--shutdown`.
    pub shutdown_probe: bool,
    /// `--cancel-file`.
    pub cancel_file: Option<String>,
    /// `--failpoints`.
    pub failpoints: Option<String>,
    /// `--failpoints-seed`.
    pub failpoints_seed: u64,
}

/// Parses a fractional-seconds flag value into a [`Duration`].
pub fn parse_secs(flag: &str, value: Option<String>) -> Result<Duration, String> {
    let secs: f64 = value
        .ok_or(format!("{flag} needs a value (seconds)"))?
        .parse()
        .map_err(|e| format!("bad {flag}: {e}"))?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!("bad {flag}: {secs} is not a duration"));
    }
    Ok(Duration::from_secs_f64(secs))
}

fn spec_for(command: &str) -> Option<&'static CommandSpec> {
    COMMANDS.iter().find(|c| c.name == command)
}

fn flag_spec(flag: &str) -> Option<&'static FlagSpec> {
    FLAGS.iter().find(|f| f.flag == flag)
}

/// Parses `argv` (program name already stripped). Pure: no
/// environment, no I/O.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter().cloned();
    let command = it.next().ok_or("missing command")?;
    let spec = spec_for(&command).ok_or_else(|| format!("unknown command {command:?}"))?;
    let mut it = it.peekable();
    // The positional argument: mandatory when declared `<so>`,
    // optional when declared `[so]` (the request command can run
    // netlist-free probes like --stats).
    let path = match spec.arg {
        None => None,
        Some(placeholder) => {
            let next_is_flag = it.peek().is_some_and(|a| a.starts_with("--"));
            if placeholder.starts_with('[') {
                if next_is_flag {
                    None
                } else {
                    it.next()
                }
            } else {
                Some(it.next().ok_or_else(|| {
                    format!("missing {} path", placeholder.trim_matches(['<', '>']))
                })?)
            }
        }
    };
    // The optional second positional (route's `drain <shard>`).
    let path2 = match spec.arg2 {
        Some(_) if path.is_some() => {
            let next_is_flag = it.peek().is_some_and(|a| a.starts_with("--"));
            if next_is_flag {
                None
            } else {
                it.next()
            }
        }
        _ => None,
    };
    let mut args = Args {
        command,
        path,
        path2,
        req: None,
        engine: EngineKind::Sat,
        algo: "approx2".to_string(),
        node: None,
        timeout: None,
        node_limit: None,
        sat_conflicts: None,
        mem_limit: None,
        fallback: true,
        seeds: None,
        max_inputs: 8,
        time_cap: None,
        corpus: None,
        base_seed: 0xF0CC,
        edits: None,
        resynth: None,
        out: None,
        max_chains: 64,
        slack_margin: 0,
        bits: 8,
        bypass: 0,
        delta: false,
        journal: None,
        report_path: None,
        resume: false,
        seed: None,
        max_retries: 2,
        backoff_base: Duration::from_millis(100),
        backoff_cap: Duration::from_secs(5),
        aggregate_timeout: None,
        addr: "127.0.0.1:7199".to_string(),
        workers: 4,
        queue_cap: 64,
        mem_cache: 256,
        cache_dir: None,
        max_timeout: Duration::from_secs(10),
        drain_deadline: Duration::from_secs(5),
        allow_hold: false,
        hold_ms: 0,
        shards: None,
        probe_interval: Duration::from_millis(200),
        eject_after: 3,
        cooldown: Duration::from_secs(1),
        retries: 3,
        retry_budget_ms: 2_000,
        route: None,
        stats_probe: false,
        ping_probe: false,
        shutdown_probe: false,
        cancel_file: None,
        failpoints: None,
        failpoints_seed: 0,
    };
    while let Some(a) = it.next() {
        // A bare token fills the positional slot if it is still empty
        // (so `xrta request --addr H:P netlist.bench` also works).
        if !a.starts_with("--") && args.path.is_none() && spec.arg.is_some() {
            args.path = Some(a);
            continue;
        }
        if !a.starts_with("--") && args.path2.is_none() && spec.arg2.is_some() {
            args.path2 = Some(a);
            continue;
        }
        let fspec = flag_spec(&a).ok_or_else(|| format!("unknown argument {a:?}"))?;
        if !spec.flags.contains(&fspec.flag) && !COMMON_FLAGS.contains(&fspec.flag) {
            return Err(format!("{a} is not a {} flag", args.command));
        }
        // Switches take no value; everything else consumes one.
        let mut value = || -> Result<String, String> {
            it.next()
                .ok_or_else(|| format!("{} needs a value", fspec.flag))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            v.parse().map_err(|e| format!("bad {flag}: {e}"))
        }
        match a.as_str() {
            "--req" => args.req = Some(num("--req", value()?)?),
            "--engine" => {
                args.engine = value()?.parse()?;
            }
            "--algo" => args.algo = value()?,
            "--node" => args.node = Some(value()?),
            "--timeout" => args.timeout = Some(parse_secs("--timeout", Some(value()?))?),
            "--node-limit" => args.node_limit = Some(num("--node-limit", value()?)?),
            "--sat-conflicts" => args.sat_conflicts = Some(num("--sat-conflicts", value()?)?),
            "--mem-limit" => {
                args.mem_limit = Some(
                    xrta_robust::mem::parse_bytes(&value()?)
                        .map_err(|e| format!("bad --mem-limit: {e}"))?,
                )
            }
            "--fallback" => {
                args.fallback = match value()?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("bad --fallback {other:?} (want on|off)")),
                }
            }
            "--seeds" => args.seeds = Some(num("--seeds", value()?)?),
            "--max-inputs" => {
                let k: usize = num("--max-inputs", value()?)?;
                if !(2..=xrta_verify::MAX_ORACLE_INPUTS).contains(&k) {
                    return Err(format!(
                        "bad --max-inputs: {k} not in 2..={}",
                        xrta_verify::MAX_ORACLE_INPUTS
                    ));
                }
                args.max_inputs = k;
            }
            "--time-cap" => args.time_cap = Some(parse_secs("--time-cap", Some(value()?))?),
            "--corpus" => args.corpus = Some(value()?),
            "--base-seed" => args.base_seed = num("--base-seed", value()?)?,
            "--edits" => args.edits = Some(num("--edits", value()?)?),
            "--resynth" => args.resynth = Some(num("--resynth", value()?)?),
            "--out" => args.out = Some(value()?),
            "--max-chains" => args.max_chains = num("--max-chains", value()?)?,
            "--slack-margin" => args.slack_margin = num("--slack-margin", value()?)?,
            "--bits" => {
                let n: usize = num("--bits", value()?)?;
                if !(1..=64).contains(&n) {
                    return Err(format!("bad --bits: {n} not in 1..=64"));
                }
                args.bits = n;
            }
            "--bypass" => args.bypass = num("--bypass", value()?)?,
            "--delta" => args.delta = true,
            "--journal" => args.journal = Some(value()?),
            "--report" => args.report_path = Some(value()?),
            "--resume" => args.resume = true,
            "--seed" => args.seed = Some(num("--seed", value()?)?),
            "--max-retries" => args.max_retries = num("--max-retries", value()?)?,
            "--backoff-base" => args.backoff_base = parse_secs("--backoff-base", Some(value()?))?,
            "--backoff-cap" => args.backoff_cap = parse_secs("--backoff-cap", Some(value()?))?,
            "--aggregate-timeout" => {
                args.aggregate_timeout = Some(parse_secs("--aggregate-timeout", Some(value()?))?)
            }
            "--addr" => args.addr = value()?,
            "--workers" => args.workers = num("--workers", value()?)?,
            "--queue-cap" => args.queue_cap = num("--queue-cap", value()?)?,
            "--mem-cache" => args.mem_cache = num("--mem-cache", value()?)?,
            "--cache-dir" => args.cache_dir = Some(value()?),
            "--max-timeout" => args.max_timeout = parse_secs("--max-timeout", Some(value()?))?,
            "--drain-deadline" => {
                args.drain_deadline = parse_secs("--drain-deadline", Some(value()?))?
            }
            "--allow-hold" => args.allow_hold = true,
            "--hold-ms" => args.hold_ms = num("--hold-ms", value()?)?,
            "--shards" => args.shards = Some(value()?),
            "--probe-interval" => {
                args.probe_interval = parse_secs("--probe-interval", Some(value()?))?
            }
            "--eject-after" => args.eject_after = num("--eject-after", value()?)?,
            "--cooldown" => args.cooldown = parse_secs("--cooldown", Some(value()?))?,
            "--retries" => args.retries = num("--retries", value()?)?,
            "--retry-budget-ms" => args.retry_budget_ms = num("--retry-budget-ms", value()?)?,
            "--route" => args.route = Some(value()?),
            "--stats" => args.stats_probe = true,
            "--ping" => args.ping_probe = true,
            "--shutdown" => args.shutdown_probe = true,
            "--cancel-file" => args.cancel_file = Some(value()?),
            "--failpoints" => args.failpoints = Some(value()?),
            "--failpoints-seed" => args.failpoints_seed = num("--failpoints-seed", value()?)?,
            other => unreachable!("flag {other} is in FLAGS but unhandled"),
        }
    }
    Ok(args)
}

/// The usage text, generated from [`COMMANDS`] and [`FLAGS`].
pub fn render_usage() -> String {
    let mut out = String::from("usage:\n");
    for c in COMMANDS {
        let mut line = format!("  xrta {}", c.name);
        if let Some(arg) = c.arg {
            line.push(' ');
            line.push_str(arg);
        }
        if let Some(arg2) = c.arg2 {
            line.push(' ');
            line.push_str(arg2);
        }
        for flag in c.flags {
            let f = flag_spec(flag).expect("command table references a declared flag");
            match f.value {
                Some(v) => line.push_str(&format!(" [{} {v}]", f.flag)),
                None => line.push_str(&format!(" [{}]", f.flag)),
            }
        }
        out.push_str(&line);
        out.push_str(&format!("\n      {}\n", c.summary));
    }
    out.push_str("  common flags:");
    for flag in COMMON_FLAGS {
        let f = flag_spec(flag).expect("COMMON_FLAGS references a declared flag");
        match f.value {
            Some(v) => out.push_str(&format!(" [{} {v}]", f.flag)),
            None => out.push_str(&format!(" [{}]", f.flag)),
        }
    }
    out.push('\n');
    out
}

/// Scheduling seed applied when `--seed` is absent (batch, request,
/// route; `gen` instead reads absence as "no delay overrides").
pub const DEFAULT_SEED: u64 = 0x0BA7C4;

/// The shared-required-time vector: `--req T` at every output, or the
/// topological delays (the paper's experimental protocol).
pub fn required_vector(net: &Network, req: Option<i64>) -> Vec<Time> {
    match req {
        Some(t) => vec![Time::new(t); net.outputs().len()],
        None => topological_delays(net, &UnitDelay),
    }
}

/// Watches for `path` to appear, raising the returned flag when it
/// does. The poll loop is a detached daemon thread; it dies with the
/// process.
pub fn cancel_flag_for(path: &str) -> Arc<AtomicBool> {
    let flag = Arc::new(AtomicBool::new(false));
    let watched = PathBuf::from(path);
    let raised = Arc::clone(&flag);
    std::thread::spawn(move || loop {
        if watched.exists() {
            raised.store(true, Ordering::Relaxed);
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });
    flag
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    /// A plausible value for each value-placeholder in the table, so
    /// the coverage test below can drive the real parser.
    fn sample_value(hint: &str) -> &'static str {
        match hint {
            "T" => "3",
            "bdd|sat" => "sat",
            "exact|approx1|approx2|topological" => "approx2",
            "on|off" => "on",
            "SECS" => "1.5",
            "K" => "4",
            "N" => "7",
            "MS" => "150",
            "BYTES" => "64M",
            "HOST:PORT" => "127.0.0.1:0",
            "HOSTS" => "127.0.0.1:7101,127.0.0.1:7102",
            "NAME" | "PATH" | "DIR" | "SPEC" => "x",
            other => panic!("no sample for value hint {other:?}"),
        }
    }

    /// The command that accepts a given flag, for the coverage test.
    fn host_command(flag: &str) -> &'static CommandSpec {
        COMMANDS
            .iter()
            .find(|c| c.flags.contains(&flag))
            .unwrap_or(&COMMANDS[0])
    }

    #[test]
    fn every_declared_flag_is_accepted_and_documented() {
        let usage = render_usage();
        for f in FLAGS {
            assert!(
                usage.contains(f.flag),
                "{} missing from the usage text",
                f.flag
            );
            let c = host_command(f.flag);
            let mut parts = vec![c.name];
            if let Some(arg) = c.arg {
                if !arg.starts_with('[') {
                    parts.push("netlist.bench");
                }
            }
            parts.push(f.flag);
            if let Some(hint) = f.value {
                parts.push(sample_value(hint));
            }
            let parsed = parse_args(&argv(&parts));
            assert!(parsed.is_ok(), "{} rejected: {:?}", f.flag, parsed.err());
        }
    }

    #[test]
    fn mem_limit_parses_units_and_rejects_garbage() {
        let ok = parse_args(&argv(&["reqtime", "x.bench", "--mem-limit", "64M"])).unwrap();
        assert_eq!(ok.mem_limit, Some(64 << 20));
        let ok = parse_args(&argv(&["serve", "--mem-limit", "1G"])).unwrap();
        assert_eq!(ok.mem_limit, Some(1 << 30));
        let err = parse_args(&argv(&["reqtime", "x.bench", "--mem-limit", "lots"]));
        assert!(err.is_err(), "malformed byte count must be a usage error");
    }

    #[test]
    fn every_command_is_documented() {
        let usage = render_usage();
        for c in COMMANDS {
            assert!(usage.contains(&format!("xrta {}", c.name)), "{}", c.name);
            for flag in c.flags {
                assert!(
                    flag_spec(flag).is_some(),
                    "command {} references undeclared flag {flag}",
                    c.name
                );
            }
        }
        for flag in COMMON_FLAGS {
            assert!(flag_spec(flag).is_some());
        }
    }

    #[test]
    fn rejects_unknown_and_misplaced_flags() {
        assert!(parse_args(&argv(&["stats", "x.bench", "--nope"]))
            .unwrap_err()
            .contains("unknown argument"));
        // --workers is a serve flag; stats must refuse it.
        assert!(parse_args(&argv(&["stats", "x.bench", "--workers", "2"]))
            .unwrap_err()
            .contains("not a stats flag"));
        assert!(parse_args(&argv(&["frobnicate"]))
            .unwrap_err()
            .contains("unknown command"));
    }

    #[test]
    fn positional_arguments_follow_the_table() {
        assert!(parse_args(&argv(&["reqtime"]))
            .unwrap_err()
            .contains("missing netlist path"));
        assert!(
            parse_args(&argv(&["fuzz"])).is_ok(),
            "fuzz takes no netlist"
        );
        // request's netlist is optional: probes work without one.
        let probe = parse_args(&argv(&["request", "--stats"])).unwrap();
        assert!(probe.stats_probe);
        assert_eq!(probe.path, None);
        let q = parse_args(&argv(&["request", "add.bench", "--req", "9"])).unwrap();
        assert_eq!(q.path.as_deref(), Some("add.bench"));
        assert_eq!(q.req, Some(9));
    }

    #[test]
    fn route_takes_two_optional_positionals() {
        // Plain router start: both positionals absent.
        let r = parse_args(&argv(&[
            "route",
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "127.0.0.1:7101,127.0.0.1:7102",
        ]))
        .unwrap();
        assert_eq!(r.path, None);
        assert_eq!(r.path2, None);
        assert_eq!(r.shards.as_deref(), Some("127.0.0.1:7101,127.0.0.1:7102"));
        // Rolling drain: both positionals present.
        let d = parse_args(&argv(&[
            "route",
            "drain",
            "127.0.0.1:7101",
            "--addr",
            "127.0.0.1:7100",
        ]))
        .unwrap();
        assert_eq!(d.path.as_deref(), Some("drain"));
        assert_eq!(d.path2.as_deref(), Some("127.0.0.1:7101"));
        // Flags may also come first.
        let d2 = parse_args(&argv(&[
            "route",
            "--addr",
            "127.0.0.1:7100",
            "drain",
            "127.0.0.1:7101",
        ]))
        .unwrap();
        assert_eq!(d2.path.as_deref(), Some("drain"));
        assert_eq!(d2.path2.as_deref(), Some("127.0.0.1:7101"));
    }

    #[test]
    fn gen_and_resynth_parse_their_flags() {
        let g = parse_args(&argv(&[
            "gen", "adder", "--bits", "16", "--bypass", "4", "--seed", "9",
        ]))
        .unwrap();
        assert_eq!(g.path.as_deref(), Some("adder"));
        assert_eq!(g.bits, 16);
        assert_eq!(g.bypass, 4);
        assert_eq!(g.seed, Some(9));
        assert!(parse_args(&argv(&["gen", "adder", "--bits", "0"])).is_err());
        let r = parse_args(&argv(&[
            "resynth",
            "x.bench",
            "--out",
            "y.bench",
            "--max-chains",
            "5",
            "--slack-margin",
            "2",
        ]))
        .unwrap();
        assert_eq!(r.out.as_deref(), Some("y.bench"));
        assert_eq!(r.max_chains, 5);
        assert_eq!(r.slack_margin, 2);
        // --seed stays None when absent so gen can tell.
        assert_eq!(parse_args(&argv(&["gen", "adder"])).unwrap().seed, None);
    }

    #[test]
    fn request_accepts_client_retry_flags() {
        let a = parse_args(&argv(&[
            "request",
            "x.bench",
            "--retries",
            "5",
            "--retry-budget-ms",
            "900",
        ]))
        .unwrap();
        assert_eq!(a.retries, 5);
        assert_eq!(a.retry_budget_ms, 900);
    }

    #[test]
    fn parses_a_full_serve_invocation() {
        let a = parse_args(&argv(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--queue-cap",
            "8",
            "--cache-dir",
            "/tmp/cache",
            "--max-timeout",
            "0.5",
            "--allow-hold",
            "--cancel-file",
            "stop.now",
        ]))
        .unwrap();
        assert_eq!(a.addr, "127.0.0.1:0");
        assert_eq!(a.workers, 2);
        assert_eq!(a.queue_cap, 8);
        assert_eq!(a.cache_dir.as_deref(), Some("/tmp/cache"));
        assert_eq!(a.max_timeout, Duration::from_millis(500));
        assert!(a.allow_hold);
        assert_eq!(a.cancel_file.as_deref(), Some("stop.now"));
    }
}
