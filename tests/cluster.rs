//! Cluster-mode integration tests: an `xrta route` front-end over
//! several `xrta serve` shards.
//!
//! The routing/dedup tests run everything in-process so they can read
//! both the router's and the shards' counters. The chaos tests run
//! the shards as real processes and SIGKILL one mid-traffic: the
//! router must absorb the crash — zero client-visible errors,
//! byte-identical responses — and reinstate the restarted shard
//! through half-open probing.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use xrta::chi::EngineKind;
use xrta::prelude::*;
use xrta::robust::backoff::BackoffPolicy;
use xrta::router::{self, HealthPolicy, RouterOptions, ShardState};
use xrta::serve::{self, read_frame, write_frame, AnalyzeRequest, Request, Response, ServeOptions};

const TINY: &str = "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n";
const ANSWER: &[u8] = b"{\"status\":\"answer\"";

fn analyze(req_time: i64, hold_ms: u64) -> Request {
    Request::Analyze(AnalyzeRequest {
        name: "tiny.bench".to_string(),
        netlist: TINY.to_string(),
        algo: Verdict::Approx2,
        engine: EngineKind::Sat,
        req: vec![Time::new(req_time)],
        hold_ms,
        ..AnalyzeRequest::default()
    })
}

/// A raw roundtrip returning exact response bytes, for byte-identity
/// assertions.
fn raw_roundtrip(addr: std::net::SocketAddr, request: &Request) -> std::io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    write_frame(&mut stream, request.encode().as_bytes())?;
    read_frame(&mut stream)
}

fn in_process_shards(n: usize) -> (Vec<serve::ServerHandle>, Vec<String>) {
    let handles: Vec<_> = (0..n)
        .map(|_| {
            serve::start(ServeOptions {
                workers: 4,
                queue_cap: 64,
                allow_hold: true,
                ..ServeOptions::default()
            })
            .unwrap()
        })
        .collect();
    let addrs = handles.iter().map(|h| h.addr().to_string()).collect();
    (handles, addrs)
}

/// Router tuned for tests: fast probing, fast ejection, fast retries.
fn test_router(shards: Vec<String>) -> RouterOptions {
    RouterOptions {
        shards,
        probe_interval: Duration::from_millis(40),
        health: HealthPolicy {
            eject_after: 2,
            cooldown: Duration::from_millis(150),
        },
        retry: BackoffPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            max_retries: 6,
        },
        retry_budget: Some(Duration::from_secs(10)),
        ..RouterOptions::default()
    }
}

/// 32 concurrent clients over 4 keys through the router: the router's
/// single-flight plus shard-side dedup keep the computation count at
/// one per key, and every response for one key is byte-identical no
/// matter which client carried it.
#[test]
fn router_deduplicates_and_preserves_byte_identity() {
    let (shards, addrs) = in_process_shards(2);
    let router = router::start(test_router(addrs)).unwrap();
    let addr = router.addr();

    const CLIENTS: usize = 32;
    const KEYS: usize = 4;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut threads = Vec::new();
    for i in 0..CLIENTS {
        let barrier = Arc::clone(&barrier);
        threads.push(std::thread::spawn(move || {
            let req = analyze((i % KEYS) as i64 + 2, 30);
            barrier.wait();
            (i % KEYS, raw_roundtrip(addr, &req).unwrap())
        }));
    }
    let mut by_key: Vec<Vec<Vec<u8>>> = vec![Vec::new(); KEYS];
    for t in threads {
        let (key, bytes) = t.join().unwrap();
        by_key[key].push(bytes);
    }
    for (key, responses) in by_key.iter().enumerate() {
        assert_eq!(responses.len(), CLIENTS / KEYS);
        for r in responses {
            assert_eq!(r, &responses[0], "responses for key {key} differ byte-wise");
            assert!(r.starts_with(ANSWER), "key {key}");
        }
    }

    let stats = router.stats();
    assert_eq!(stats.requests, CLIENTS as u64);
    assert_eq!(stats.answered, CLIENTS as u64);
    assert!(
        stats.deduped >= 1,
        "overlapping identical requests must share a flight at the router: {stats:?}"
    );
    let computations: u64 = shards.iter().map(|s| s.stats().computations).sum();
    assert_eq!(
        computations, KEYS as u64,
        "one analysis per distinct key across the whole cluster"
    );
    router.shutdown();
    router.join();
    for s in shards {
        s.shutdown();
        s.join();
    }
}

/// A client cannot tell the cluster from a single daemon: for every
/// key, the routed response bytes equal the single-process ones.
#[test]
fn cluster_responses_match_single_process_serve() {
    let solo = serve::start(ServeOptions::default()).unwrap();
    let (shards, addrs) = in_process_shards(3);
    let router = router::start(test_router(addrs)).unwrap();

    for req_time in 2..10 {
        let req = analyze(req_time, 0);
        let via_solo = raw_roundtrip(solo.addr(), &req).unwrap();
        let via_cluster = raw_roundtrip(router.addr(), &req).unwrap();
        assert!(via_solo.starts_with(ANSWER));
        assert_eq!(
            via_cluster, via_solo,
            "req={req_time}: routed bytes must match the single daemon's"
        );
    }
    router.shutdown();
    router.join();
    for s in shards {
        s.shutdown();
        s.join();
    }
    solo.shutdown();
    solo.join();
}

// ---------------------------------------------------------------------------
// Process-level chaos: SIGKILL a shard mid-traffic, restart it, watch
// the router eject and reinstate it.
// ---------------------------------------------------------------------------

/// A shard process, killed and reaped when dropped: dropping a bare
/// `Child` leaves the process running past the test.
struct ShardProc {
    child: Child,
    addr: String,
}

impl Drop for ShardProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_shard(bind: &str, failpoints: Option<&str>) -> ShardProc {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_xrta"));
    cmd.args(["serve", "--addr", bind, "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    match failpoints {
        Some(spec) => cmd.env("XRTA_FAILPOINTS", spec),
        None => cmd.env_remove("XRTA_FAILPOINTS"),
    };
    let mut child = cmd.spawn().unwrap();
    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines.next().expect("shard prints its address").unwrap();
    let addr = banner
        .strip_prefix("xrta: serving on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();
    std::thread::spawn(move || while let Some(Ok(_)) = lines.next() {});
    ShardProc { child, addr }
}

fn wait_for_state(
    router: &router::RouterHandle,
    shard: &str,
    want: ShardState,
    why: &str,
) -> Duration {
    let started = Instant::now();
    let deadline = started + Duration::from_secs(15);
    loop {
        let states = router.shard_states();
        if states.iter().any(|(a, s)| a == shard && *s == want) {
            return started.elapsed();
        }
        assert!(
            Instant::now() < deadline,
            "{why}: shard {shard} never reached {want:?}; states: {states:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The headline chaos proof: 32 concurrent clients, one of three
/// shard *processes* SIGKILLed mid-traffic. Requirements: zero
/// client-visible errors, responses stay byte-identical per key, the
/// dead shard is ejected, and once restarted on the same address the
/// half-open prober reinstates it without operator involvement.
#[test]
fn shard_sigkill_mid_traffic_is_invisible_to_clients() {
    let mut shards: Vec<ShardProc> = (0..3).map(|_| spawn_shard("127.0.0.1:0", None)).collect();
    let addrs: Vec<String> = shards.iter().map(|s| s.addr.clone()).collect();
    let router = router::start(test_router(addrs.clone())).unwrap();
    let addr = router.addr();

    const CLIENTS: usize = 32;
    const KEYS: usize = 8;
    const ROUNDS: usize = 6;
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let mut threads = Vec::new();
    for i in 0..CLIENTS {
        let barrier = Arc::clone(&barrier);
        threads.push(std::thread::spawn(move || {
            barrier.wait();
            let mut out = Vec::new();
            for round in 0..ROUNDS {
                let key = (i + round) % KEYS;
                let bytes = raw_roundtrip(addr, &analyze(key as i64 + 2, 5))
                    .unwrap_or_else(|e| panic!("client {i} round {round}: {e}"));
                out.push((key, bytes));
            }
            out
        }));
    }

    // Let the first round land, then kill a shard with traffic in the
    // air. SIGKILL, not SIGTERM: no drain, no goodbye.
    barrier.wait();
    std::thread::sleep(Duration::from_millis(30));
    let mut victim = shards.remove(1);
    victim.child.kill().unwrap();
    victim.child.wait().unwrap();

    let mut by_key: Vec<Vec<Vec<u8>>> = vec![Vec::new(); KEYS];
    for t in threads {
        for (key, bytes) in t.join().unwrap() {
            assert!(
                bytes.starts_with(ANSWER),
                "client saw a non-answer during the crash: {}",
                String::from_utf8_lossy(&bytes)
            );
            by_key[key].push(bytes);
        }
    }
    for (key, responses) in by_key.iter().enumerate() {
        for r in responses {
            assert_eq!(
                r, &responses[0],
                "key {key}: failover changed the response bytes"
            );
        }
    }

    // The crash was noticed...
    wait_for_state(&router, &victim.addr, ShardState::Ejected, "after the kill");
    // ...and the replacement (same address) is probed back in.
    let replacement = spawn_shard(&victim.addr, None);
    assert_eq!(replacement.addr, victim.addr, "rebind on the same port");
    wait_for_state(
        &router,
        &victim.addr,
        ShardState::Healthy,
        "after the restart",
    );
    let stats = router.stats();
    assert!(stats.ejections >= 1, "{stats:?}");
    assert!(stats.reinstatements >= 1, "{stats:?}");

    // The reinstated shard serves again: push enough fresh keys that
    // the ring cannot avoid it.
    for req_time in 100..120 {
        let bytes = raw_roundtrip(addr, &analyze(req_time, 0)).unwrap();
        assert!(bytes.starts_with(ANSWER));
    }

    router.shutdown();
    router.join();
}

/// Rolling drain across every shard in turn: with continuous client
/// traffic, `drain` must wait out in-flight work, stop the shard, and
/// the restarted shard must rejoin — all with zero failed requests.
#[test]
fn rolling_drain_restarts_every_shard_with_zero_downtime() {
    let mut shards: Vec<ShardProc> = (0..2).map(|_| spawn_shard("127.0.0.1:0", None)).collect();
    let addrs: Vec<String> = shards.iter().map(|s| s.addr.clone()).collect();
    let router = router::start(test_router(addrs.clone())).unwrap();
    let addr = router.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let traffic = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut served = 0u64;
            let mut key = 0i64;
            while !stop.load(Ordering::Relaxed) {
                key = (key + 1) % 16;
                let bytes = raw_roundtrip(addr, &analyze(key + 2, 0)).unwrap();
                assert!(
                    bytes.starts_with(ANSWER),
                    "request failed during the rolling drain: {}",
                    String::from_utf8_lossy(&bytes)
                );
                served += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            served
        })
    };

    for k in 0..shards.len() {
        router.drain_shard(&addrs[k]).unwrap();
        // The drained process got the shutdown handshake and exits 0.
        let status = shards[k].child.wait().unwrap();
        assert!(status.success(), "drained shard {k} exited {status:?}");
        // Roll in the replacement and wait for reinstatement before
        // touching the next shard — never less than one healthy shard.
        shards[k] = spawn_shard(&addrs[k], None);
        wait_for_state(&router, &addrs[k], ShardState::Healthy, "rolling restart");
    }

    stop.store(true, Ordering::Relaxed);
    let served = traffic.join().unwrap();
    assert!(served > 0, "the traffic thread never got a request through");
    let stats = router.stats();
    assert_eq!(stats.drains, 2, "{stats:?}");
    assert_eq!(stats.errors, 0, "{stats:?}");

    router.shutdown();
    router.join();
}

/// Shards armed with probabilistic frame-level faults (reads and
/// writes failing at the wire): the router's retry/failover machinery
/// absorbs them and clients still see clean, byte-identical answers.
#[cfg(feature = "failpoints")]
#[test]
fn injected_frame_faults_are_absorbed_by_the_router() {
    let spec = "serve::frame_write=err%8;serve::frame_read=err%5";
    let shards: Vec<ShardProc> = (0..2)
        .map(|_| spawn_shard("127.0.0.1:0", Some(spec)))
        .collect();
    let addrs: Vec<String> = shards.iter().map(|s| s.addr.clone()).collect();
    let router = router::start(test_router(addrs)).unwrap();
    let addr = router.addr();

    let mut by_key: Vec<Vec<Vec<u8>>> = vec![Vec::new(); 4];
    for round in 0..20 {
        let key = round % 4;
        let bytes = raw_roundtrip(addr, &analyze(key as i64 + 2, 0))
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert!(
            bytes.starts_with(ANSWER),
            "round {round}: {}",
            String::from_utf8_lossy(&bytes)
        );
        by_key[key].push(bytes);
    }
    for (key, responses) in by_key.iter().enumerate() {
        for r in responses {
            assert_eq!(r, &responses[0], "key {key}: fault retry changed bytes");
        }
    }

    router.shutdown();
    router.join();
}

// ---------------------------------------------------------------------------
// Binary-level smoke: the `xrta route` process end to end.
// ---------------------------------------------------------------------------

#[test]
fn route_binary_serves_drains_and_reports() {
    let mut shards: Vec<ShardProc> = (0..2).map(|_| spawn_shard("127.0.0.1:0", None)).collect();
    let shard_list = shards
        .iter()
        .map(|s| s.addr.as_str())
        .collect::<Vec<_>>()
        .join(",");

    let mut route = Command::new(env!("CARGO_BIN_EXE_xrta"))
        .args([
            "route",
            "--addr",
            "127.0.0.1:0",
            "--shards",
            &shard_list,
            "--probe-interval",
            "0.05",
        ])
        .env_remove("XRTA_FAILPOINTS")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let stdout = route.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines.next().expect("router prints its address").unwrap();
    let addr = banner
        .strip_prefix("xrta: routing on ")
        .and_then(|rest| rest.split_once(' '))
        .map(|(a, _)| a.to_string())
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"));
    assert!(banner.ends_with("(2 shards)"), "{banner}");
    std::thread::spawn(move || while let Some(Ok(_)) = lines.next() {});

    // A normal analysis through the router binary.
    let sock: std::net::SocketAddr = addr.parse().unwrap();
    let bytes = raw_roundtrip(sock, &analyze(3, 0)).unwrap();
    assert!(bytes.starts_with(ANSWER));

    // Stats aggregate across the shards and render a `serve:` line the
    // existing scripts can parse.
    let Response::Stats(total) = serve::roundtrip(sock, &Request::Stats).unwrap() else {
        panic!("expected stats");
    };
    assert_eq!(total.requests, 1);
    assert!(total.render_line().starts_with("serve: "));

    // `xrta route drain SHARD --addr ROUTER` from another process.
    let drained = Command::new(env!("CARGO_BIN_EXE_xrta"))
        .args(["route", "drain", &shards[0].addr, "--addr", &addr])
        .output()
        .unwrap();
    assert!(
        drained.status.success(),
        "drain failed: {}",
        String::from_utf8_lossy(&drained.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&drained.stdout).trim(),
        format!("drained {}", shards[0].addr)
    );
    // Requests keep flowing on the surviving shard.
    let bytes = raw_roundtrip(sock, &analyze(4, 0)).unwrap();
    assert!(bytes.starts_with(ANSWER));

    // Shut the router down over the wire; it exits 0 with a stats line.
    assert_eq!(
        serve::roundtrip(sock, &Request::Shutdown).unwrap(),
        Response::ShuttingDown
    );
    assert!(route.wait().unwrap().success());

    // The drained shard exited cleanly; dropping `shards` kills the
    // other.
    assert!(shards[0].child.wait().unwrap().success());
}
