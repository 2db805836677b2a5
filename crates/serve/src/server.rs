//! The daemon: accept loop, bounded admission queue, worker pool,
//! graceful drain.
//!
//! Thread layout:
//!
//! * the **listener thread** accepts connections until shutdown, then
//!   runs the drain sequence and joins the workers;
//! * one **connection thread** per client reads frames, answers
//!   control commands (`stats`, `ping`, `shutdown`) inline — they are
//!   never queued, so the server stays observable under full load —
//!   and tries to enqueue analyze jobs, shedding `busy` when the
//!   bounded queue is full;
//! * **worker threads** pop jobs, consult the [`Coordinator`] (cache
//!   hit / single-flight leader / follower), run leaders' analyses
//!   under policy-clamped budgets — a whole-net [`run_with_fallback`]
//!   session for `analyze`, the per-cone loop for `delta` — and reply.
//!
//! Shutdown — from a `shutdown` request, [`ServerHandle::shutdown`],
//! or the external cancel flag (the CLI's `--cancel-file`) — drains:
//! the listener closes, queued jobs are failed with `shutting_down`,
//! in-flight analyses get [`ServeOptions::drain_deadline`] to finish
//! before the shared abort flag interrupts them, and [`ServerHandle::join`]
//! returns the final counter snapshot.

use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use xrta_core::cone::{analyze_cone, slice_cones, splice};
use xrta_core::session::{run_with_fallback, SessionAnswer, SessionOptions};
use xrta_core::{AnalysisError, Approx2Options, Budget};
use xrta_network::Network;
use xrta_robust::failpoint;
use xrta_timing::{topological_delays, Time, UnitDelay};

use xrta_robust::mem::{self, Pressure, ScopedCharge, Subsystem};

use crate::cache::{CacheKey, HitTier, ResultCache};
use crate::coordinator::{Coordinator, Dispatch};
use crate::proto::{write_frame, AnalyzeRequest, Answer, BusyReason, Request, Response};
use crate::stats::{ServeStats, StatsSnapshot};

/// Server configuration: socket, pool sizes, cache placement and the
/// resource policy clamped onto every request.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind address; port `0` asks the OS for an ephemeral port.
    pub addr: String,
    /// Worker threads computing analyses.
    pub workers: usize,
    /// Admission queue bound; a full queue sheds with `busy`.
    pub queue_cap: usize,
    /// In-memory cache tier capacity (entries).
    pub mem_cache_cap: usize,
    /// Disk cache tier directory; `None` disables the disk tier.
    pub cache_dir: Option<PathBuf>,
    /// Ceiling on per-rung wall clock granted to any request.
    pub max_timeout: Duration,
    /// Ceiling on the BDD node budget granted to any request.
    pub max_node_limit: u64,
    /// Ceiling on the SAT conflict budget granted to any request.
    pub max_sat_conflicts: u64,
    /// Process-wide memory policy. When set, every request runs under
    /// a memory budget clamped to this ceiling, and admission sheds
    /// `busy(memory)` while the process sits above the hard watermark.
    /// `None` leaves memory ungoverned (the seed behaviour).
    pub mem_limit: Option<u64>,
    /// Honour the `hold_ms` request field (a load-generation aid for
    /// tests; off in production).
    pub allow_hold: bool,
    /// How long in-flight analyses may keep running after shutdown
    /// begins before the shared abort flag interrupts them.
    pub drain_deadline: Duration,
    /// Slowloris guard: once the first byte of a frame has arrived,
    /// the rest must follow within this window or the connection is
    /// dropped — a stalled client cannot pin a connection thread on a
    /// half-sent frame. Also the write timeout on accepted sockets.
    pub frame_deadline: Duration,
    /// External shutdown trigger (the CLI wires `--cancel-file` here).
    pub cancel: Option<Arc<AtomicBool>>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_cap: 64,
            mem_cache_cap: 256,
            cache_dir: None,
            max_timeout: Duration::from_secs(10),
            max_node_limit: 1 << 22,
            max_sat_conflicts: 1 << 20,
            mem_limit: None,
            allow_hold: false,
            drain_deadline: Duration::from_secs(5),
            frame_deadline: Duration::from_secs(10),
            cancel: None,
        }
    }
}

/// One admitted analyze job, waiting for a worker.
struct Job {
    request: AnalyzeRequest,
    /// `true` for a `delta` request: serve cone-incrementally.
    delta: bool,
    reply: Sender<Vec<u8>>,
    received: Instant,
}

/// The queue plus the flags every thread watches.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    wake: Condvar,
    /// Raised once: stop accepting, stop queueing, start draining.
    shutdown: AtomicBool,
    /// Raised when the drain deadline passes: interrupts in-flight
    /// analyses via the session cancel flag.
    abort: Arc<AtomicBool>,
    stats: ServeStats,
    coordinator: Coordinator,
    options: ServeOptions,
}

/// A running server. Dropping the handle does not stop the server;
/// call [`ServerHandle::shutdown`] and [`ServerHandle::join`].
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    listener_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves ephemeral ports).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Triggers graceful drain, as if a `shutdown` request arrived.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Waits for the drain to finish and returns the final counters.
    pub fn join(mut self) -> StatsSnapshot {
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
        self.shared.stats.snapshot()
    }

    /// Live counter snapshot (also available over the wire).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Entries discarded as torn during the cache's startup scan.
    pub fn torn_discarded(&self) -> usize {
        self.shared.coordinator.torn_discarded()
    }
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake.notify_all();
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Binds the socket, spawns the pool and returns once the server is
/// accepting. Fails fast on bind or cache-directory errors.
pub fn start(options: ServeOptions) -> io::Result<ServerHandle> {
    let cache = ResultCache::open(options.mem_cache_cap, options.cache_dir.clone())?;
    let listener = TcpListener::bind(&options.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        wake: Condvar::new(),
        shutdown: AtomicBool::new(false),
        abort: Arc::new(AtomicBool::new(false)),
        stats: ServeStats::default(),
        coordinator: Coordinator::new(cache),
        options,
    });

    let mut workers = Vec::new();
    for i in 0..shared.options.workers.max(1) {
        let shared = Arc::clone(&shared);
        workers.push(
            std::thread::Builder::new()
                .name(format!("xrta-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))?,
        );
    }

    let listener_thread = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("xrta-serve-listener".to_string())
            .spawn(move || listen_loop(listener, &shared, workers))?
    };

    Ok(ServerHandle {
        addr,
        shared,
        listener_thread: Some(listener_thread),
    })
}

/// Accepts until shutdown, then runs the drain sequence.
fn listen_loop(
    listener: TcpListener,
    shared: &Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
) {
    while !shared.shutting_down() {
        if let Some(cancel) = &shared.options.cancel {
            if cancel.load(Ordering::Relaxed) {
                shared.begin_shutdown();
                break;
            }
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // Injectable accept fault: the connection is dropped on
                // the floor before a thread is spawned, as if the
                // kernel reset it. Clients see an immediate EOF.
                if failpoint::eval("serve::accept").is_some() {
                    drop(stream);
                    continue;
                }
                let shared = Arc::clone(shared);
                let _ = std::thread::Builder::new()
                    .name("xrta-serve-conn".to_string())
                    .spawn(move || connection_loop(stream, &shared));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    drop(listener);

    // Fail everything still queued: those requests were admitted but
    // will never run.
    let orphans: Vec<Job> = {
        let mut q = shared.queue.lock().unwrap();
        q.drain(..).collect()
    };
    for job in orphans {
        shared.stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
        shared.stats.shutdowns.fetch_add(1, Ordering::Relaxed);
        let _ = job.reply.send(Response::ShuttingDown.encode().into_bytes());
    }
    shared.wake.notify_all();

    // Give in-flight analyses the drain deadline, then interrupt them.
    let drain_until = Instant::now() + shared.options.drain_deadline;
    while shared.stats.in_flight.load(Ordering::Relaxed) > 0 {
        if Instant::now() >= drain_until {
            shared.abort.store(true, Ordering::SeqCst);
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    for w in workers {
        let _ = w.join();
    }
}

/// Reads a frame, tolerating read timeouts (so shutdown is noticed on
/// an idle connection) without ever losing frame sync: a timeout only
/// counts as idle when zero bytes of the frame have arrived. Shared
/// with the router's connection loop.
pub enum FrameRead {
    /// A complete frame arrived.
    Frame(Vec<u8>),
    /// A read timeout fired before the first byte: the peer is idle,
    /// not stalled.
    Idle,
    /// EOF, a hard error, a protocol violation, or a half-sent frame
    /// that overstayed `frame_deadline` (the slowloris guard).
    Closed,
}

/// Reads one frame off a socket whose read timeout is short (so idle
/// polls return). Once the first byte of a frame arrives, the rest
/// must land within `frame_deadline`: a peer that trickles a frame —
/// deliberately or because it died mid-write — gets `Closed`, never an
/// indefinitely pinned thread.
pub fn read_frame_patient(stream: &mut TcpStream, frame_deadline: Duration) -> FrameRead {
    if failpoint::eval("serve::frame_read").is_some() {
        return FrameRead::Closed;
    }
    let mut started: Option<Instant> = None;
    let stalled =
        |started: &Option<Instant>| started.map(|t0| t0.elapsed() > frame_deadline) == Some(true);
    let mut len_bytes = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match stream.read(&mut len_bytes[got..]) {
            Ok(0) => return FrameRead::Closed,
            Ok(n) => {
                got += n;
                started.get_or_insert_with(Instant::now);
            }
            Err(e)
                if got == 0
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
            {
                return FrameRead::Idle;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stalled(&started) {
                    return FrameRead::Closed;
                }
            }
            Err(_) => return FrameRead::Closed,
        }
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > crate::proto::MAX_FRAME {
        return FrameRead::Closed;
    }
    let mut payload = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        match stream.read(&mut payload[got..]) {
            Ok(0) => return FrameRead::Closed,
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stalled(&started) {
                    return FrameRead::Closed;
                }
            }
            Err(_) => return FrameRead::Closed,
        }
    }
    FrameRead::Frame(payload)
}

/// Frame write with an injectable fault site. The fault fires *before*
/// any bytes leave, so an injected failure never tears a frame — the
/// peer sees a clean close, exactly like a crash between responses.
fn write_frame_faulty(stream: &mut TcpStream, payload: &[u8]) -> io::Result<()> {
    if failpoint::eval("serve::frame_write").is_some() {
        return Err(io::Error::new(
            io::ErrorKind::BrokenPipe,
            "failpoint serve::frame_write: injected write failure",
        ));
    }
    write_frame(stream, payload)
}

/// Serves one client: control commands inline, analyses via the queue.
fn connection_loop(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_write_timeout(Some(shared.options.frame_deadline));
    let _ = stream.set_nodelay(true);
    loop {
        let payload = match read_frame_patient(&mut stream, shared.options.frame_deadline) {
            FrameRead::Frame(p) => p,
            FrameRead::Idle => {
                if shared.shutting_down() {
                    return;
                }
                continue;
            }
            FrameRead::Closed => return,
        };
        let request = match std::str::from_utf8(&payload)
            .map_err(|e| e.to_string())
            .and_then(Request::parse)
        {
            Ok(r) => r,
            Err(e) => {
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Error(format!("bad request: {e}")).encode();
                if write_frame_faulty(&mut stream, resp.as_bytes()).is_err() {
                    return;
                }
                continue;
            }
        };
        let response_bytes = match request {
            Request::Ping => Response::Pong.encode().into_bytes(),
            Request::Stats => Response::Stats(shared.stats.snapshot())
                .encode()
                .into_bytes(),
            Request::Shutdown => {
                shared.begin_shutdown();
                Response::ShuttingDown.encode().into_bytes()
            }
            // A backend receiving `drain` treats it as a graceful
            // self-drain and acks with `drained` — so operators can
            // quiesce one shard directly, and the router's drain
            // sequence gets a positive acknowledgement.
            Request::Drain { shard } => {
                shared.begin_shutdown();
                Response::Drained { shard }.encode().into_bytes()
            }
            Request::Analyze(a) => analyze_inline(shared, a, false),
            Request::Delta(a) => analyze_inline(shared, a, true),
        };
        if write_frame_faulty(&mut stream, &response_bytes).is_err() {
            return;
        }
    }
}

/// Queues one analyze/delta request and blocks for its response bytes.
fn analyze_inline(shared: &Arc<Shared>, request: AnalyzeRequest, delta: bool) -> Vec<u8> {
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    match admit(shared, request, delta) {
        Ok(rx) => match rx.recv() {
            Ok(bytes) => bytes,
            Err(_) => Response::Error("server dropped the request".to_string())
                .encode()
                .into_bytes(),
        },
        Err(resp) => resp.encode().into_bytes(),
    }
}

/// Admission control: bounded queue or an immediate refusal.
// A refusal is a terminal `Response` sent straight back to the client;
// its size (a `StatsSnapshot`-bearing enum) is irrelevant off the
// admission hot path.
#[allow(clippy::result_large_err)]
fn admit(
    shared: &Arc<Shared>,
    request: AnalyzeRequest,
    delta: bool,
) -> Result<std::sync::mpsc::Receiver<Vec<u8>>, Response> {
    if shared.shutting_down() {
        shared.stats.shutdowns.fetch_add(1, Ordering::Relaxed);
        return Err(Response::ShuttingDown);
    }
    // Memory shed: while the process sits above the hard watermark,
    // admitting more work can only deepen the hole — refuse with
    // `busy(memory)` so clients back off (retry handles it like a
    // queue shed). In-flight jobs keep running and reclaim/degrade
    // their way back under the watermark.
    if let Some(limit) = shared.options.mem_limit {
        match mem::global().pressure(limit) {
            Pressure::None => {}
            // Above the soft watermark: give back the cheapest bytes
            // first (cached answers are re-derivable) and keep serving.
            Pressure::Soft => {
                shared.coordinator.reclaim_cache();
            }
            Pressure::Hard => {
                shared.stats.sheds_memory.fetch_add(1, Ordering::Relaxed);
                return Err(Response::Busy {
                    reason: BusyReason::Memory,
                });
            }
        }
    }
    let (tx, rx) = std::sync::mpsc::channel();
    {
        let mut q = shared.queue.lock().unwrap();
        // Re-check under the lock: a drain that started between the
        // check above and here must not strand the job in the queue.
        if shared.shutting_down() {
            shared.stats.shutdowns.fetch_add(1, Ordering::Relaxed);
            return Err(Response::ShuttingDown);
        }
        if q.len() >= shared.options.queue_cap {
            shared.stats.sheds.fetch_add(1, Ordering::Relaxed);
            return Err(Response::Busy {
                reason: BusyReason::Queue,
            });
        }
        q.push_back(Job {
            request,
            delta,
            reply: tx,
            received: Instant::now(),
        });
        shared.stats.queue_depth.fetch_add(1, Ordering::Relaxed);
    }
    shared.wake.notify_one();
    Ok(rx)
}

/// Pops jobs until shutdown empties the queue.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.pop_front() {
                    shared.stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    break Some(job);
                }
                if shared.shutting_down() {
                    break None;
                }
                let (guard, _) = shared
                    .wake
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap();
                q = guard;
            }
        };
        let Some(job) = job else { return };
        shared.stats.in_flight.fetch_add(1, Ordering::Relaxed);
        serve_job(shared, job);
        shared.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Handles one admitted job end-to-end: cache, single-flight, compute.
fn serve_job(shared: &Arc<Shared>, job: Job) {
    let a = &job.request;
    let limits = clamp_budgets(&shared.options, a);
    // Delta requests live in their own key domain: the whole-request
    // flight is deduplicated but never stored — reuse happens at cone
    // granularity inside `analyze_cones`.
    let domain = if job.delta { "delta" } else { "unit" };
    let key = CacheKey::compute(&a.netlist, domain, &a.req, a.algo, a.engine, &limits.tag);

    let bytes = match shared.coordinator.dispatch(key) {
        Dispatch::Hit(bytes, tier) => {
            match tier {
                HitTier::Memory => shared.stats.hits_mem.fetch_add(1, Ordering::Relaxed),
                HitTier::Disk => shared.stats.hits_disk.fetch_add(1, Ordering::Relaxed),
            };
            bytes
        }
        Dispatch::Follow(rx) => rx.recv().unwrap_or_else(|_| {
            Response::Error("leader dropped the flight".to_string())
                .encode()
                .into_bytes()
        }),
        Dispatch::Lead => {
            // Cone hit/miss counters tell the delta story; the
            // whole-request miss counter stays an analyze-cache fact.
            if !job.delta {
                shared.stats.misses.fetch_add(1, Ordering::Relaxed);
            }
            let answer = lead(shared, a, &limits, job.delta);
            let cacheable = !job.delta && answer.is_ok();
            let bytes = answer
                .map_or_else(Response::Error, Response::Answer)
                .encode()
                .into_bytes();
            shared.coordinator.complete(key, &bytes, cacheable);
            bytes
        }
    };

    if shared.options.allow_hold && a.hold_ms > 0 {
        // Load-generation aid: pad the service time so tests can pile
        // up concurrent requests deterministically. Cut short by the
        // drain abort so held jobs cannot outlive the deadline.
        let until = Instant::now() + Duration::from_millis(a.hold_ms);
        while Instant::now() < until && !shared.abort.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    if bytes.starts_with(b"{\"status\":\"answer\"") {
        shared.stats.answered.fetch_add(1, Ordering::Relaxed);
    } else if bytes.starts_with(b"{\"status\":\"error\"") {
        shared.stats.errors.fetch_add(1, Ordering::Relaxed);
    }
    shared.stats.record_service(job.received.elapsed());
    let _ = job.reply.send(bytes);
}

/// One request's budgets after the server policy clamp, and `tag`, the
/// time, node and conflict budgets as one cache-key component: they
/// shape the degradation rung, so they are part of an answer's identity.
struct Limits {
    timeout: Duration,
    node_limit: u64,
    sat_conflicts: u64,
    mem_limit: Option<u64>,
    tag: String,
}

/// Applies the server policy: a request may wish for less than the
/// caps, never more; absent wishes get the caps.
///
/// The memory clamp folds into the budget but *not* the cache key:
/// a memory budget changes when an analysis degrades, never what the
/// exact verdict is, and verdict provenance already records the rung.
fn clamp_budgets(options: &ServeOptions, a: &AnalyzeRequest) -> Limits {
    let timeout = a
        .timeout_ms
        .map(Duration::from_millis)
        .unwrap_or(options.max_timeout)
        .min(options.max_timeout);
    let node_limit = a
        .node_limit
        .unwrap_or(options.max_node_limit)
        .min(options.max_node_limit);
    let sat_conflicts = a
        .sat_conflicts
        .unwrap_or(options.max_sat_conflicts)
        .min(options.max_sat_conflicts);
    let mem_limit = match (a.mem_limit, options.mem_limit) {
        (Some(wish), Some(cap)) => Some(wish.min(cap)),
        (wish, cap) => wish.or(cap),
    };
    Limits {
        timeout,
        node_limit,
        sat_conflicts,
        mem_limit,
        tag: format!("{}/{}/{}", timeout.as_millis(), node_limit, sat_conflicts),
    }
}

/// Runs one single-flight leader's analysis: parse, widen `req`, then
/// the whole-net session (`analyze`) or the cone loop (`delta`). The
/// error is the text of the `error` frame the client receives.
fn lead(
    shared: &Arc<Shared>,
    a: &AnalyzeRequest,
    limits: &Limits,
    delta: bool,
) -> Result<Answer, String> {
    if !delta {
        if let Some(outcome) = failpoint::eval("serve::analyze") {
            let what = match outcome {
                failpoint::Outcome::ReturnError => "error",
                failpoint::Outcome::Exhausted => "exhaustion",
            };
            return Err(format!("failpoint serve::analyze: injected {what}"));
        }
    }
    let net =
        xrta_network::parse_netlist(&a.name, &a.netlist).map_err(|e| format!("netlist: {e}"))?;
    let req = widen_req(&net, &a.req)?;
    // Built here, on the leader path only, so cache hits do no new work.
    let opts = SessionOptions {
        budget: Budget::unlimited()
            .with_node_limit(Some(limits.node_limit as usize))
            .with_sat_conflicts(Some(limits.sat_conflicts))
            .with_mem_limit(limits.mem_limit)
            .with_cancel_flag(Arc::clone(&shared.abort)),
        timeout: Some(limits.timeout),
        fallback: true,
        approx2: Approx2Options {
            engine: a.engine,
            ..Approx2Options::default()
        },
        ..SessionOptions::default()
    };
    if delta {
        return analyze_cones(shared, a, &limits.tag, &opts, &net, &req);
    }
    let mut report = contained(shared, || {
        run_with_fallback(&net, &UnitDelay, &req, a.algo, &opts)
    })?;
    if let SessionAnswer::Approx2(r) = &report.answer {
        let add = |c: &AtomicU64, v: usize| {
            c.fetch_add(v as u64, Ordering::Relaxed);
        };
        add(&shared.stats.oracle_steals, r.steals);
        add(&shared.stats.oracle_contention, r.shard_contention);
        add(&shared.stats.oracle_batches, r.batches);
    }
    Ok(report.digest())
}

/// Runs one analysis with panics contained, counting it as a
/// computation.
fn contained<T>(
    shared: &Shared,
    analysis: impl FnOnce() -> Result<T, AnalysisError>,
) -> Result<T, String> {
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(analysis));
    shared.stats.computations.fetch_add(1, Ordering::Relaxed);
    match outcome {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(format!("analysis failed: {e}")),
        Err(_) => Err("analysis panicked".to_string()),
    }
}

/// Stretches a request's `req` vector onto the netlist's outputs:
/// empty → the topological delays (the paper's protocol), one value →
/// broadcast, exact width → as-is.
fn widen_req(net: &Network, req: &[Time]) -> Result<Vec<Time>, String> {
    if req.is_empty() {
        Ok(topological_delays(net, &UnitDelay))
    } else if req.len() == 1 {
        Ok(vec![req[0]; net.outputs().len()])
    } else if req.len() == net.outputs().len() {
        Ok(req.to_vec())
    } else {
        Err(format!(
            "req has {} times but the netlist has {} outputs",
            req.len(),
            net.outputs().len()
        ))
    }
}

/// Cache-key domain of cone entries. Each entry is the cone analysis's
/// own `answer` frame (an `error` frame completes a failed flight but
/// is never stored). Entries of the older `{"cone":…}` encoding were
/// keyed under the domain `"cone"`, so a cache directory holding them
/// never decodes one.
const CONE_DOMAIN: &str = "cone-answer";

/// The cone loop of a `delta` request: slice the netlist into
/// per-output fanin cones, fetch every cone answer the cache already
/// holds (from *any* prior request — the fingerprint is stable under
/// renaming and PI reordering, so an edited netlist re-keys only its
/// dirty cones), analyse the misses through the governed ladder, and
/// splice. Cone computations ride the same single-flight coordinator,
/// so concurrent deltas over shared cones deduplicate.
fn analyze_cones(
    shared: &Arc<Shared>,
    a: &AnalyzeRequest,
    budget_tag: &str,
    opts: &SessionOptions,
    net: &Network,
    req: &[Time],
) -> Result<Answer, String> {
    let slices = slice_cones(net, &UnitDelay, req);
    // The sliced cones are this request's dominant transient
    // allocation; charging their footprint up front lets the meter
    // shed concurrent deltas before the per-cone analyses pile on.
    let _cone_charge = ScopedCharge::new(
        Subsystem::Cone,
        slices.iter().map(|s| s.footprint()).sum::<u64>(),
    );
    let mut verdicts = Vec::with_capacity(slices.len());
    let mut reused = 0u64;
    for slice in &slices {
        // The descriptor *is* the canonical content of the cone; the
        // budgets shape the degradation rung, so they key too.
        let key = CacheKey::compute(
            &slice.descriptor,
            CONE_DOMAIN,
            &[slice.req],
            a.algo,
            a.engine,
            budget_tag,
        );
        let frame = match shared.coordinator.dispatch(key) {
            Dispatch::Hit(bytes, _) => {
                shared.stats.cone_hits.fetch_add(1, Ordering::Relaxed);
                reused += 1;
                Response::parse(&String::from_utf8_lossy(&bytes))?
            }
            Dispatch::Follow(rx) => {
                shared.stats.cone_hits.fetch_add(1, Ordering::Relaxed);
                reused += 1;
                let bytes = rx
                    .recv()
                    .map_err(|_| "leader dropped the cone flight".to_string())?;
                Response::parse(&String::from_utf8_lossy(&bytes))?
            }
            Dispatch::Lead => {
                shared.stats.cone_misses.fetch_add(1, Ordering::Relaxed);
                let frame = contained(shared, || analyze_cone(slice, a.algo, opts))
                    .map_or_else(Response::Error, Response::Answer);
                let cacheable = matches!(frame, Response::Answer(_));
                shared
                    .coordinator
                    .complete(key, frame.encode().as_bytes(), cacheable);
                frame
            }
        };
        match frame {
            Response::Answer(v) => verdicts.push(v),
            Response::Error(e) => return Err(e),
            other => return Err(format!("unexpected cone entry {other:?}")),
        }
    }
    // Splices count only reused cones that actually landed in a
    // response — an errored request above never reaches this line.
    shared
        .stats
        .cone_splices
        .fetch_add(reused, Ordering::Relaxed);
    Ok(splice(net, &UnitDelay, req, a.algo, &slices, &verdicts))
}

/// A dedicated rendering of the verdict ladder position, used by the
/// CLI to pick exit codes without re-parsing the answer.
pub fn answer_exit_code(resp: &Response) -> u8 {
    match resp {
        Response::Answer(a) if a.degraded() => 3,
        Response::Answer(_) | Response::Pong | Response::Stats(_) | Response::Drained { .. } => 0,
        Response::Busy { .. } | Response::ShuttingDown => 3,
        Response::Error(_) => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::roundtrip;
    use xrta_chi::EngineKind;
    use xrta_core::Verdict;

    fn tiny_request(req_time: i64) -> Request {
        Request::Analyze(AnalyzeRequest {
            name: "tiny.bench".to_string(),
            netlist: "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n".to_string(),
            algo: Verdict::Approx2,
            engine: EngineKind::Bdd,
            req: vec![Time::new(req_time)],
            ..AnalyzeRequest::default()
        })
    }

    #[test]
    fn ping_analyze_stats_shutdown_lifecycle() {
        let handle = start(ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        })
        .unwrap();
        let addr = handle.addr();

        assert_eq!(roundtrip(addr, &Request::Ping).unwrap(), Response::Pong);

        let first = roundtrip(addr, &tiny_request(5)).unwrap();
        let Response::Answer(answer) = &first else {
            panic!("expected answer, got {first:?}");
        };
        assert_eq!(answer.verdict, Verdict::Approx2);
        assert!(!answer.degraded());

        // Same key again: must be a cache hit with identical bytes
        // (checked at the protocol level by full equality).
        let second = roundtrip(addr, &tiny_request(5)).unwrap();
        assert_eq!(first, second);

        let stats = roundtrip(addr, &Request::Stats).unwrap();
        let Response::Stats(snap) = stats else {
            panic!("expected stats, got {stats:?}");
        };
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.computations, 1);
        assert_eq!(snap.hits_mem, 1);

        assert_eq!(
            roundtrip(addr, &Request::Shutdown).unwrap(),
            Response::ShuttingDown
        );
        let final_stats = handle.join();
        assert_eq!(final_stats.answered, 2);
    }

    /// Two outputs with independent cones.
    const TWO_CONES: &str = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(z1)\nOUTPUT(z2)\n\
                             z1 = AND(a, b)\nz2 = OR(b, c)\n";

    fn eco_request(netlist: &str) -> AnalyzeRequest {
        AnalyzeRequest {
            name: "eco.bench".to_string(),
            netlist: netlist.to_string(),
            algo: Verdict::Approx2,
            engine: EngineKind::Bdd,
            req: vec![Time::new(9)],
            ..AnalyzeRequest::default()
        }
    }

    #[test]
    fn delta_reuses_cones_and_repeats_byte_identically() {
        let handle = start(ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        })
        .unwrap();
        let addr = handle.addr();
        let delta = |netlist: &str| Request::Delta(eco_request(netlist));
        // Edit only z2's cone.
        let edited = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(z1)\nOUTPUT(z2)\n\
                      z1 = AND(a, b)\nt = BUF(c)\nz2 = OR(b, t)\n";
        let base = TWO_CONES;

        let cold = roundtrip(addr, &delta(base)).unwrap();
        assert!(matches!(cold, Response::Answer(_)), "{cold:?}");
        let snap = handle.stats();
        assert_eq!((snap.cone_hits, snap.cone_misses), (0, 2));

        // Same netlist again: every cone is a hit, and the composed
        // response is byte-identical to the cold one.
        let warm = roundtrip(addr, &delta(base)).unwrap();
        assert_eq!(cold, warm);
        let snap = handle.stats();
        assert_eq!((snap.cone_hits, snap.cone_misses), (2, 2));
        assert_eq!(snap.cone_splices, 2);

        // One-cone edit: z1's cone is reused, z2's is recomputed.
        let resp = roundtrip(addr, &delta(edited)).unwrap();
        assert!(matches!(resp, Response::Answer(_)), "{resp:?}");
        let snap = handle.stats();
        assert_eq!((snap.cone_hits, snap.cone_misses), (3, 3));

        handle.shutdown();
        handle.join();
    }

    /// Before cone entries were `answer` frames, the cache stored them
    /// as `{"cone":"ok",…}` under `"cone"`-domain keys. A cache
    /// directory holding such entries must not break `delta`: the
    /// current key domain never looks them up.
    #[test]
    fn delta_skips_cone_entries_of_the_older_encoding() {
        let dir = std::env::temp_dir().join(format!("xrta_serve_old_cones_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = ServeOptions {
            cache_dir: Some(dir.clone()),
            ..ServeOptions::default()
        };
        let request = eco_request(TWO_CONES);
        let net = xrta_network::parse_netlist(&request.name, &request.netlist).unwrap();
        let req = widen_req(&net, &request.req).unwrap();
        let tag = clamp_budgets(&options, &request).tag;
        let mut older = ResultCache::open(0, Some(dir.clone())).unwrap();
        for slice in slice_cones(&net, &UnitDelay, &req) {
            let key = CacheKey::compute(
                &slice.descriptor,
                "cone",
                &[slice.req],
                request.algo,
                request.engine,
                &tag,
            );
            let entry =
                r#"{"cone":"ok","verdict":"approx2","nontrivial":false,"points":"","reason":""}"#;
            older.insert(key, entry.as_bytes().to_vec());
        }
        assert_eq!(older.disk_entries(), 2);
        drop(older);

        let handle = start(options).unwrap();
        assert_eq!(handle.torn_discarded(), 0, "the planted entries are whole");
        let resp = roundtrip(handle.addr(), &Request::Delta(request)).unwrap();
        assert!(matches!(resp, Response::Answer(_)), "{resp:?}");
        let snap = handle.stats();
        assert_eq!((snap.cone_hits, snap.cone_misses), (0, 2));
        handle.shutdown();
        handle.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_verb_quiesces_like_shutdown() {
        let handle = start(ServeOptions::default()).unwrap();
        let addr = handle.addr();
        let resp = roundtrip(
            addr,
            &Request::Drain {
                shard: "self".to_string(),
            },
        )
        .unwrap();
        assert_eq!(
            resp,
            Response::Drained {
                shard: "self".to_string()
            }
        );
        handle.join();
    }

    #[test]
    fn half_sent_frame_is_dropped_at_the_frame_deadline() {
        use std::io::Write as _;
        let handle = start(ServeOptions {
            frame_deadline: Duration::from_millis(200),
            ..ServeOptions::default()
        })
        .unwrap();
        let addr = handle.addr();
        let mut stalled = TcpStream::connect(addr).unwrap();
        // Half a length prefix, then silence: the classic slowloris.
        stalled.write_all(&[0, 0]).unwrap();
        // Healthy clients keep being served while the stall runs out.
        assert_eq!(roundtrip(addr, &Request::Ping).unwrap(), Response::Pong);
        stalled
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 1];
        match stalled.read(&mut buf) {
            Ok(0) => {}                                                // clean close
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {} // also a close
            Ok(n) => panic!("server sent {n} unexpected bytes to a stalled client"),
            Err(e) => panic!("stalled connection was never dropped: {e}"),
        }
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn analyze_after_shutdown_is_refused() {
        let handle = start(ServeOptions::default()).unwrap();
        let addr = handle.addr();
        handle.shutdown();
        // The connection may race the listener closing; only assert on
        // successful roundtrips.
        if let Ok(resp) = roundtrip(addr, &tiny_request(3)) {
            assert_eq!(resp, Response::ShuttingDown);
        }
        handle.join();
    }

    #[test]
    fn bad_netlist_is_an_error_and_not_cached() {
        let handle = start(ServeOptions::default()).unwrap();
        let addr = handle.addr();
        let req = Request::Analyze(AnalyzeRequest {
            netlist: "this is not a netlist".to_string(),
            ..AnalyzeRequest::default()
        });
        let resp = roundtrip(addr, &req).unwrap();
        assert!(matches!(resp, Response::Error(_)), "{resp:?}");
        let Response::Stats(snap) = roundtrip(addr, &Request::Stats).unwrap() else {
            panic!();
        };
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.hits(), 0);
        handle.shutdown();
        handle.join();
    }
}
