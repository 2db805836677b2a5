//! Regression corpus: shrunk failing netlists on disk.
//!
//! Corpus entries are ordinary ISCAS-89 `.bench` files with a few
//! `# xrta-corpus:` comment directives carrying the metadata a replay
//! needs — the required-time vector and a human-readable origin line:
//!
//! ```text
//! # xrta-corpus: v1
//! # xrta-corpus: req 2 3 INF
//! # xrta-corpus: delays g1=2 g5=3
//! # xrta-corpus: origin fuzz seed 42 (approx2-soundness)
//! INPUT(x0)
//! ...
//! ```
//!
//! `parse_bench` already ignores `#` comments, so the files load in any
//! bench-aware tool; the directives are parsed separately here. Missing
//! `req` defaults to the topological delays (the experimental protocol
//! everywhere else in the workspace). The optional `delays` directive
//! carries sparse per-gate delay overrides by node name (everything
//! else stays at the unit default) — the ECO fuzzer's delay-resize
//! edits need them to survive a round trip through disk.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use xrta_network::{parse_bench, write_bench};
use xrta_timing::tokens::{parse_time_token, time_token};
use xrta_timing::{topological_delays, TableDelay, Time, UnitDelay};

use crate::shrink::TestCase;

/// One corpus entry: a shrunk test case plus provenance.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    /// The reduced test case.
    pub case: TestCase,
    /// Sparse per-gate delay overrides by node name; absent nodes keep
    /// the unit default. Ordered so serialisation is deterministic.
    pub delays: BTreeMap<String, i64>,
    /// Where the failure came from (seed, violated check).
    pub origin: String,
}

impl CorpusEntry {
    /// The delay model this entry replays under: unit delays with the
    /// entry's sparse overrides applied.
    pub fn delay_model(&self) -> TableDelay {
        let mut model = TableDelay::with_default(&self.case.net, 1);
        for id in self.case.net.node_ids() {
            if let Some(&t) = self.delays.get(&self.case.net.node(id).name) {
                model.set(id, t);
            }
        }
        model
    }
}

/// Serialises an entry to `.bench` text with corpus directives.
pub fn to_bench(entry: &CorpusEntry) -> String {
    let mut out = String::new();
    out.push_str("# xrta-corpus: v1\n");
    out.push_str("# xrta-corpus: req");
    for &t in &entry.case.req {
        out.push(' ');
        out.push_str(&time_token(t));
    }
    out.push('\n');
    if !entry.delays.is_empty() {
        out.push_str("# xrta-corpus: delays");
        for (name, ticks) in &entry.delays {
            out.push_str(&format!(" {name}={ticks}"));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "# xrta-corpus: origin {}\n",
        entry.origin.replace('\n', " ")
    ));
    out.push_str(&write_bench(&entry.case.net));
    out
}

/// Parses `.bench` text (with or without corpus directives) into an
/// entry. Without a `req` directive the topological delays are used.
pub fn parse_entry(text: &str) -> Result<CorpusEntry, String> {
    let net = parse_bench(text).map_err(|e| format!("bench: {e}"))?;
    let mut req: Option<Vec<Time>> = None;
    let mut delays = BTreeMap::new();
    let mut origin = String::new();
    for line in text.lines() {
        let Some(rest) = line.trim().strip_prefix("# xrta-corpus:") else {
            continue;
        };
        let rest = rest.trim();
        if let Some(times) = rest.strip_prefix("req") {
            let parsed: Result<Vec<Time>, String> =
                times.split_whitespace().map(parse_time_token).collect();
            req = Some(parsed?);
        } else if let Some(pairs) = rest.strip_prefix("delays") {
            for pair in pairs.split_whitespace() {
                let (name, ticks) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("bad delays token {pair:?}"))?;
                let ticks: i64 = ticks
                    .parse()
                    .map_err(|e| format!("bad delay for {name:?}: {e}"))?;
                delays.insert(name.to_string(), ticks);
            }
        } else if let Some(o) = rest.strip_prefix("origin") {
            origin = o.trim().to_string();
        }
    }
    for name in delays.keys() {
        if !net.node_ids().any(|id| &net.node(id).name == name) {
            return Err(format!("delays directive names unknown node {name:?}"));
        }
    }
    let req = match req {
        Some(r) => {
            if r.len() != net.outputs().len() {
                return Err(format!(
                    "req directive has {} entries for {} outputs",
                    r.len(),
                    net.outputs().len()
                ));
            }
            r
        }
        None => topological_delays(&net, &UnitDelay),
    };
    Ok(CorpusEntry {
        case: TestCase { net, req },
        delays,
        origin,
    })
}

/// Loads every `.bench` entry in a directory, sorted by file name.
/// A missing directory is an empty corpus.
pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, CorpusEntry)>, String> {
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "bench"))
            .collect(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("reading {}: {e}", dir.display())),
    };
    paths.sort();
    let mut out = Vec::new();
    for p in paths {
        let text =
            std::fs::read_to_string(&p).map_err(|e| format!("reading {}: {e}", p.display()))?;
        let entry = parse_entry(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        out.push((p, entry));
    }
    Ok(out)
}

/// Writes an entry into `dir` under a sanitised, collision-free file
/// name derived from `stem`. Creates the directory if needed.
pub fn save(dir: &Path, stem: &str, entry: &CorpusEntry) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let clean: String = stem
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let mut path = dir.join(format!("{clean}.bench"));
    let mut k = 1;
    while path.exists() {
        k += 1;
        path = dir.join(format!("{clean}-{k}.bench"));
    }
    // Atomic: a crash (or a chaos-test SIGKILL) mid-write must never
    // leave a truncated reproducer that later replays as a parse error.
    xrta_robust::fsio::atomic_write(&path, to_bench(entry).as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrta_circuits::c17;

    #[test]
    fn round_trips_req_and_origin() {
        let net = c17();
        let req = vec![Time::new(2), Time::INF];
        assert_eq!(req.len(), net.outputs().len());
        let entry = CorpusEntry {
            case: TestCase {
                net,
                req: req.clone(),
            },
            delays: BTreeMap::from([("G10".to_string(), 3), ("G22".to_string(), 2)]),
            origin: "unit test".to_string(),
        };
        let text = to_bench(&entry);
        let back = parse_entry(&text).unwrap();
        assert_eq!(back.case.req, req);
        assert_eq!(back.delays, entry.delays);
        assert_eq!(back.origin, "unit test");
        assert_eq!(back.case.net.inputs().len(), entry.case.net.inputs().len());
        let ones = vec![true; entry.case.net.inputs().len()];
        assert_eq!(back.case.net.eval(&ones), entry.case.net.eval(&ones));
    }

    #[test]
    fn missing_req_defaults_to_topological_delays() {
        let net = c17();
        let text = write_bench(&net);
        let entry = parse_entry(&text).unwrap();
        assert_eq!(
            entry.case.req,
            topological_delays(&entry.case.net, &UnitDelay)
        );
    }

    #[test]
    fn mismatched_req_width_is_rejected() {
        let net = c17();
        let mut text = String::from("# xrta-corpus: req 1\n");
        text.push_str(&write_bench(&net));
        assert!(parse_entry(&text).is_err());
    }

    #[test]
    fn delays_directive_builds_the_model_and_rejects_unknown_nodes() {
        let net = c17();
        let mut text = String::from("# xrta-corpus: delays G10=4\n");
        text.push_str(&write_bench(&net));
        let entry = parse_entry(&text).unwrap();
        let model = entry.delay_model();
        use xrta_timing::DelayModel;
        let g10 = entry
            .case
            .net
            .node_ids()
            .find(|&id| entry.case.net.node(id).name == "G10")
            .unwrap();
        assert_eq!(model.delay(&entry.case.net, g10), 4);

        let mut bad = String::from("# xrta-corpus: delays nosuch=4\n");
        bad.push_str(&write_bench(&c17()));
        assert!(parse_entry(&bad).is_err());
    }

    #[test]
    fn save_and_load_dir() {
        let dir = std::env::temp_dir().join(format!("xrta_corpus_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let net = c17();
        let req = topological_delays(&net, &UnitDelay);
        let entry = CorpusEntry {
            case: TestCase { net, req },
            delays: BTreeMap::new(),
            origin: "save/load".to_string(),
        };
        let p1 = save(&dir, "seed 1: bad/check", &entry).unwrap();
        let p2 = save(&dir, "seed 1: bad/check", &entry).unwrap();
        assert_ne!(p1, p2, "collision-free names");
        let loaded = load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].1.origin, "save/load");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(load_dir(&dir).unwrap().is_empty(), "missing dir is empty");
    }
}
