//! The HTTP job server: routing, submission flow, worker wiring,
//! graceful shutdown.
//!
//! ```text
//! POST /v1/experiments   submit a JobSpec; cache hit -> result inline,
//!                        miss -> 202 + job id (503 when the queue is full)
//! POST /v1/sweeps        submit a SweepGrid; expands to one job per
//!                        cell, each cached/coalesced/queued exactly
//!                        like an equivalent /v1/experiments submission
//! POST /v1/calibrations  submit a CalibrationGrid (reconstruction
//!                        search); expands to one job per candidate x
//!                        case x seed-block cell through the same
//!                        cache/coalesce/enqueue flow
//! GET  /v1/jobs/{id}     poll a job; done -> result inline
//! GET  /v1/presets       ready-to-POST bodies for fig4/table5/ipdrp
//! GET  /v1/scenarios     the adversary-zoo registry (names usable on
//!                        a sweep grid's scenario axis)
//! GET  /healthz          liveness probe (200 while the process serves)
//! GET  /readyz           readiness probe: 200 while accepting work,
//!                        503 once draining (load balancers stop
//!                        routing; liveness stays green)
//! GET  /metrics          counters: requests, cache hit rate, queue
//!                        depth (current + peak), job compute seconds,
//!                        games/s, hardening (timeouts/breaker/drain)
//! POST /v1/work/claim    lease one queued cell to an external worker
//!                        (empty queue -> {"status":"empty"})
//! POST /v1/work/complete deliver a leased cell's result; duplicates of
//!                        an already-finished job are discarded
//! POST /v1/shutdown      graceful drain: readiness flips to 503, new
//!                        submissions answer 503, claims answer empty;
//!                        queued and leased cells get up to `drain_ms`
//!                        to finish (completions are still accepted and
//!                        journaled), then the node exits
//! ```
//!
//! Connections get one OS thread each (keep-alive, so a load generator
//! with N connections costs N threads); experiment compute never runs
//! on connection threads. Local and pull workers take jobs from the one
//! [`JobStore`] queue, both as lease holders: in-process workers block
//! in [`JobStore::claim_blocking`], pull workers lease through
//! `/v1/work/claim`. Both kinds of lease are granted by one pending
//! check and settled by one `settle` (first completion wins), so a job
//! finishes the same way whoever ran it.
//! Every connection read runs under the [`crate::http::Deadlines`] of
//! the config — a slowloris client is evicted with 408, an idle
//! keep-alive connection is closed silently, and neither can pin its
//! thread past the deadline.

use crate::cache::LruCache;
use crate::http::{read_request_deadlined, write_response, Deadlines, ReadOutcome, Request};
use crate::jobs::{run_job, JobStatus, JobStore, LeasedJob, QueuedJob};
use crate::metrics::Metrics;
use crate::protocol::{
    grid_cells, presets, ClaimRequest, GridCell, JobSpec, SubmitAck, WorkCompletion, WorkGrant,
    DEFAULT_LEASE_MS, MAX_LEASE_MS,
};
use ahn_obs::{trace_id_of_key, TraceEvent, TraceLog};
use std::collections::{HashMap, VecDeque};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Most cells one `POST /v1/sweeps` or `POST /v1/calibrations`
/// submission may expand to. Keeps a small hostile body from wedging
/// the connection thread with millions of cache lookups and an
/// unbounded response.
pub const MAX_SWEEP_CELLS: usize = 1024;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7172` (port 0 for ephemeral).
    pub addr: String,
    /// In-process worker threads executing experiment jobs. `0` is
    /// legal and means pull-only: every job waits for an external worker
    /// to claim it via `POST /v1/work/claim`.
    pub workers: usize,
    /// Result-cache capacity (finished results, LRU-evicted).
    pub cache_cap: usize,
    /// Waiting-job capacity; a full queue answers 503.
    pub queue_cap: usize,
    /// Path of the on-disk completion journal. `None` keeps everything
    /// in memory; `Some(path)` gives the [`JobStore`] a journal: every
    /// completion is appended durably and replayed into the result
    /// cache on the next boot, so a restarted node resumes without
    /// recomputing finished cells.
    pub journal: Option<String>,
    /// Total budget for reading one request (headers + body) once its
    /// request line arrived, milliseconds; a client that drips bytes
    /// slower is evicted with 408. `0` disables the deadline.
    pub read_timeout_ms: u64,
    /// Longest a keep-alive connection may sit idle between requests,
    /// milliseconds; expiry closes the connection silently. `0`
    /// disables the deadline.
    pub idle_timeout_ms: u64,
    /// Socket write timeout per response write, milliseconds; a client
    /// that stops reading its response is disconnected. `0` disables
    /// the deadline.
    pub write_timeout_ms: u64,
    /// Drain budget of a graceful shutdown, milliseconds: how long the
    /// node waits for queued, leased and in-flight cells to settle
    /// before exiting anyway. `0` exits immediately (the
    /// pre-hardening behavior).
    pub drain_ms: u64,
    /// Path of the structured trace log. `None` (the default) emits
    /// nothing; `Some(path)` appends one checksummed JSON line per span
    /// event (submit/enqueue/lease/complete/…) so a cell's lifecycle can
    /// be joined across nodes with `ahn-exp trace`.
    pub trace: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7172".into(),
            workers: 2,
            cache_cap: 128,
            queue_cap: 64,
            journal: None,
            read_timeout_ms: 10_000,
            idle_timeout_ms: 30_000,
            write_timeout_ms: 10_000,
            drain_ms: 5_000,
            trace: None,
        }
    }
}

/// One finished-or-pending job in the table.
#[derive(Debug, Clone)]
struct JobRecord {
    status: JobStatus,
    result: Option<Arc<str>>,
    error: Option<String>,
}

/// Mutable server state behind one lock (cache, job table, in-flight
/// dedup map). One mutex keeps the lock ordering trivially correct; all
/// critical sections are bookkeeping-sized.
struct State {
    cache: LruCache,
    jobs: HashMap<u64, JobRecord>,
    /// cache key -> job id, for submissions while an identical job is
    /// already queued or running (request coalescing).
    inflight: HashMap<u64, u64>,
    /// Finished job ids, oldest first, for table pruning.
    finished: VecDeque<u64>,
    /// Finished jobs kept for polling before pruning.
    retain_finished: usize,
}

struct Shared {
    config: ServerConfig,
    local_addr: SocketAddr,
    metrics: Metrics,
    state: Mutex<State>,
    store: JobStore,
    next_job_id: AtomicU64,
    running: AtomicBool,
    /// Set the moment a shutdown is requested: readiness flips to 503,
    /// submissions bounce, claims answer empty. `running` only follows
    /// once the drain budget is spent or the work is settled.
    draining: AtomicBool,
    /// Structured trace log, when `--trace` is configured.
    trace: Option<TraceLog>,
    /// lease id → grant time, for the `claim_rtt_us` histogram (grant →
    /// completion accepted). Entries whose completion never arrives are
    /// pruned once older than [`MAX_LEASE_MS`].
    lease_starts: Mutex<HashMap<u64, Instant>>,
}

impl Shared {
    /// Opens the store (replaying its journal into the result cache)
    /// and the trace log.
    fn new(config: ServerConfig, local_addr: SocketAddr) -> std::io::Result<Shared> {
        let mut cache = LruCache::new(config.cache_cap);
        let store = match &config.journal {
            None => JobStore::new(config.queue_cap),
            Some(path) => {
                let (store, recovered) =
                    JobStore::open(config.queue_cap, std::path::Path::new(path))?;
                // Checkpoint/resume: completions recorded by the previous
                // incarnation become cache hits, so resubmitted cells are
                // answered without recomputation.
                for record in recovered {
                    cache.put(record.key, Arc::from(record.result));
                }
                store
            }
        };
        // The trace node name carries the bound address so logs from
        // several serve incarnations (e.g. before/after a chaos restart)
        // stay distinguishable after joining.
        let trace = match &config.trace {
            None => None,
            Some(path) => Some(TraceLog::open(
                std::path::Path::new(path),
                &format!("serve:{local_addr}"),
            )?),
        };
        Ok(Shared {
            store,
            state: Mutex::new(State {
                cache,
                jobs: HashMap::new(),
                inflight: HashMap::new(),
                finished: VecDeque::new(),
                retain_finished: (4 * config.cache_cap).max(256),
            }),
            config,
            local_addr,
            metrics: Metrics::default(),
            next_job_id: AtomicU64::new(1),
            running: AtomicBool::new(true),
            draining: AtomicBool::new(false),
            trace,
            lease_starts: Mutex::new(HashMap::new()),
        })
    }

    /// Appends a span event to the trace log, if one is configured.
    /// Never called under the state lock (trace emission does file
    /// I/O).
    fn emit(&self, event: TraceEvent) {
        if let Some(trace) = &self.trace {
            trace.emit(event);
        }
    }

    /// The lazy lease sweep: requeues expired leases and counts them.
    fn sweep_leases(&self) {
        let requeued = self.store.sweep_expired();
        Metrics::add(&self.metrics.lease_requeues, requeued as u64);
    }
}

/// A running server; dropping the handle does *not* stop it — call
/// [`ServerHandle::shutdown`] or POST `/v1/shutdown`.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Requests a graceful drain-then-stop and waits for workers and
    /// the accept loop to exit. Outstanding work (queued or leased,
    /// locally or externally) gets up to `drain_ms` to settle;
    /// readiness answers 503 and new work is refused throughout.
    pub fn shutdown(self) {
        initiate_shutdown(&self.shared);
        self.join();
    }

    /// Waits until the server stops (via `/v1/shutdown` or
    /// [`ServerHandle::shutdown`]).
    pub fn join(self) {
        let _ = self.accept.join();
    }
}

/// Binds the listener, starts the in-process workers and the accept
/// loop, and returns immediately.
pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    // Surface the silent AHN_THREADS cap: each worker's experiment
    // fans out through the rayon shim, so the effective per-experiment
    // thread count is a real capacity parameter.
    ahn_core::threads::log_once("serve");
    let shared = Arc::new(Shared::new(config, local_addr)?);

    let worker_handles: Vec<JoinHandle<()>> = (0..shared.config.workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("ahn-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker thread")
        })
        .collect();

    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("ahn-serve-accept".into())
        .spawn(move || {
            accept_loop(&accept_shared, listener);
            // The accept loop owns the workers' lifetime: once it stops
            // accepting, close the queue (idempotent) and join them.
            accept_shared.store.close();
            for handle in worker_handles {
                let _ = handle.join();
            }
        })
        .expect("spawn accept thread");

    Ok(ServerHandle { shared, accept })
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    for stream in listener.incoming() {
        if !shared.running.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("ahn-serve-conn".into())
            .spawn(move || handle_connection(&conn_shared, stream));
    }
}

/// Graceful drain, then stop. The first caller flips `draining` (so
/// readiness answers 503, submissions bounce and claims answer empty),
/// waits up to `drain_ms` for outstanding work — queued cells and cells
/// leased to local or pull workers — to settle (completions keep being
/// accepted and journaled throughout), then stops the accept loop,
/// poking it with a throwaway connection so it observes the flag.
/// Leases still outstanding at the deadline are abandoned safely: their
/// cells were journaled if finished, and requeue on resubmission
/// otherwise.
fn initiate_shutdown(shared: &Shared) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return; // another caller is already draining
    }
    let started = Instant::now();
    let budget = Duration::from_millis(shared.config.drain_ms);
    loop {
        // The lazy lease sweep keeps running during the drain so a cell
        // abandoned by a crashed worker still requeues (and can be
        // picked up by in-process workers) instead of pinning the wait.
        shared.sweep_leases();
        let outstanding = shared.store.outstanding();
        Metrics::set(
            &shared.metrics.drain_nanos,
            started.elapsed().as_nanos() as u64,
        );
        if outstanding == 0 || started.elapsed() >= budget {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    shared.running.store(false, Ordering::SeqCst);
    shared.store.close();
    let _ = TcpStream::connect(shared.local_addr);
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let millis = |ms: u64| (ms > 0).then(|| Duration::from_millis(ms));
    let deadlines = Deadlines {
        idle: millis(shared.config.idle_timeout_ms),
        request: millis(shared.config.read_timeout_ms),
    };
    if stream
        .set_write_timeout(millis(shared.config.write_timeout_ms))
        .is_err()
    {
        return;
    }
    let mut stream = stream;
    let mut reader = BufReader::new(read_half);
    loop {
        match read_request_deadlined(&mut reader, &deadlines) {
            Ok(ReadOutcome::Request(req)) => {
                Metrics::bump(&shared.metrics.http_requests);
                let started = Instant::now();
                let (status, body) = route(shared, &req).unwrap_or_else(|reply| reply);
                shared
                    .metrics
                    .request_histogram(&req.path)
                    .record(started.elapsed().as_micros() as u64);
                let write_ok = write_response(&mut stream, status, &body, req.close).is_ok();
                let shutdown = req.method == "POST" && req.path == "/v1/shutdown";
                if shutdown {
                    initiate_shutdown(shared);
                }
                if !write_ok || req.close || shutdown {
                    break;
                }
            }
            Ok(ReadOutcome::Malformed(reason)) => {
                Metrics::bump(&shared.metrics.http_requests);
                let _ = write_response(&mut stream, 400, &error_body(&reason), true);
                break;
            }
            Ok(ReadOutcome::TimedOut) => {
                // A started-but-stalled request: evict loudly so the
                // slowloris shows up in metrics, then hang up.
                Metrics::bump(&shared.metrics.requests_timed_out);
                let _ = write_response(&mut stream, 408, &error_body("request deadline"), true);
                break;
            }
            Ok(ReadOutcome::Closed) | Err(_) => break,
        }
    }
}

/// A response: status and JSON body. Handlers return early replies
/// (bad input, a full queue) as `Err`.
type Reply = (u16, String);

/// Dispatches one request.
fn route(shared: &Shared, req: &Request) -> Result<Reply, Reply> {
    let draining = shared.draining.load(Ordering::SeqCst);
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Ok((200, "{\"status\":\"ok\"}".into())),
        // Readiness, distinct from liveness: a draining node is alive
        // (finishing work, accepting completions) but must not receive
        // new traffic.
        ("GET", "/readyz") if draining => Ok((503, "{\"status\":\"draining\"}".into())),
        ("GET", "/readyz") => Ok((200, "{\"status\":\"ready\"}".into())),
        ("GET", "/metrics") => {
            // A metrics scrape doubles as a lazy lease sweep: cells
            // abandoned by crashed workers are requeued here (and on
            // every claim/complete), never by a background thread — an
            // idle node does zero work between requests.
            shared.sweep_leases();
            let (queue_depth, cached) = {
                let state = shared.state.lock().expect("state lock");
                (shared.store.depth(), state.cache.len())
            };
            let workers = shared.config.workers;
            to_json(&shared.metrics.snapshot(queue_depth, cached, workers))
        }
        ("GET", "/v1/presets") => to_json(&presets()),
        // The adversary-zoo registry: pure data straight from
        // `ahn_core::scenarios`, so clients can enumerate the scenario
        // axis they may put in a `/v1/sweeps` grid.
        ("GET", "/v1/scenarios") => to_json(&ahn_core::builtin_scenarios()),
        // A draining node takes no new work: submissions answer 503 so
        // callers retry elsewhere (or later), and claims answer empty
        // so pull workers idle out instead of erroring. Completions for
        // work already leased keep landing below.
        ("POST", "/v1/experiments" | "/v1/sweeps" | "/v1/calibrations") if draining => {
            Err((503, error_body("server is draining, no new submissions")))
        }
        ("POST", "/v1/work/claim") if draining => {
            Metrics::bump(&shared.metrics.work_claim_empty);
            Ok((200, "{\"status\":\"empty\",\"reason\":\"draining\"}".into()))
        }
        ("POST", "/v1/experiments") => submit(shared, &req.body),
        ("POST", "/v1/sweeps") => submit_sweep(shared, &req.body),
        ("POST", "/v1/calibrations") => submit_calibration(shared, &req.body),
        ("POST", "/v1/work/claim") => work_claim(shared, &req.body),
        ("POST", "/v1/work/complete") => work_complete(shared, &req.body),
        ("GET", path) if path.starts_with("/v1/jobs/") => job_status(shared, path),
        ("POST", "/v1/shutdown") => Ok((200, "{\"status\":\"shutting-down\"}".into())),
        (
            _,
            "/healthz" | "/readyz" | "/metrics" | "/v1/presets" | "/v1/scenarios"
            | "/v1/experiments" | "/v1/sweeps" | "/v1/calibrations" | "/v1/work/claim"
            | "/v1/work/complete" | "/v1/shutdown",
        ) => Err((405, error_body("method not allowed"))),
        (_, path) if path.starts_with("/v1/jobs/") => Err((405, error_body("method not allowed"))),
        _ => Err((404, error_body("no such route"))),
    }
}

/// Decodes a JSON request body; bad UTF-8 or bad JSON is a 400 naming
/// `what` was expected.
fn decode<T: serde::DeserializeOwned>(body: &[u8], what: &str) -> Result<T, Reply> {
    let text = std::str::from_utf8(body).map_err(|_| bad_request("body is not UTF-8".into()))?;
    serde_json::from_str(text).map_err(|e| bad_request(format!("cannot parse {what}: {e}")))
}

/// A 200 carrying `value` as JSON.
fn to_json<T: serde::Serialize>(value: &T) -> Result<Reply, Reply> {
    match serde_json::to_string(value) {
        Ok(body) => Ok((200, body)),
        Err(e) => Err((500, error_body(&e.to_string()))),
    }
}

/// How one cache/coalesce/enqueue attempt ended — shared by the
/// single-experiment and grid submission routes.
enum SubmitOutcome {
    /// The result was already cached; the JSON is ready to embed.
    Cached(Arc<str>),
    /// A job covers this spec (freshly queued, or an identical
    /// in-flight job the caller was attached to).
    Job { id: u64, status: JobStatus },
    /// The queue is full; nothing was recorded.
    QueueFull,
}

/// Runs one resolved, validated spec through the cache lookup →
/// coalesce → enqueue flow, bumping the submission metrics and emitting
/// the cell's root trace spans (submit/enqueue/coalesce).
fn submit_spec(shared: &Shared, spec: JobSpec, key: u64) -> SubmitOutcome {
    /// Which path the submission took, remembered across the lock scope
    /// so trace emission (file I/O) happens after the lock is released.
    enum Flow {
        Hit,
        Coalesced(u64),
        Enqueued(u64),
        Rejected,
    }
    let (outcome, flow) = {
        let mut state = shared.state.lock().expect("state lock");
        Metrics::bump(&shared.metrics.submissions);

        if let Some(result) = state.cache.get(key) {
            Metrics::bump(&shared.metrics.cache_hits);
            (SubmitOutcome::Cached(result), Flow::Hit)
        } else if let Some(&job_id) = state.inflight.get(&key) {
            // An identical job is already queued or running: attach the
            // caller to it instead of recomputing.
            Metrics::bump(&shared.metrics.coalesced);
            let status = state
                .jobs
                .get(&job_id)
                .map(|r| r.status)
                .unwrap_or(JobStatus::Queued);
            (
                SubmitOutcome::Job { id: job_id, status },
                Flow::Coalesced(job_id),
            )
        } else {
            Metrics::bump(&shared.metrics.cache_misses);
            let id = shared.next_job_id.fetch_add(1, Ordering::Relaxed);
            state.jobs.insert(
                id,
                JobRecord {
                    status: JobStatus::Queued,
                    result: None,
                    error: None,
                },
            );
            state.inflight.insert(key, id);
            // Enqueue while holding the state lock so a worker cannot
            // finish the job before its record and inflight entry exist.
            let queued = QueuedJob {
                id,
                key,
                spec,
                enqueued_at: Instant::now(),
            };
            if shared.store.try_push(queued).is_err() {
                state.jobs.remove(&id);
                state.inflight.remove(&key);
                Metrics::bump(&shared.metrics.rejected_queue_full);
                (SubmitOutcome::QueueFull, Flow::Rejected)
            } else {
                Metrics::raise(
                    &shared.metrics.queue_depth_peak,
                    shared.store.depth() as u64,
                );
                (
                    SubmitOutcome::Job {
                        id,
                        status: JobStatus::Queued,
                    },
                    Flow::Enqueued(id),
                )
            }
        }
    };
    if shared.trace.is_some() {
        let tid = trace_id_of_key(key);
        match flow {
            Flow::Hit => shared.emit(
                TraceEvent::new(tid, "submit")
                    .key(key)
                    .outcome(true)
                    .detail("cache_hit".into()),
            ),
            Flow::Coalesced(id) => shared.emit(TraceEvent::new(tid, "coalesce").key(key).job(id)),
            Flow::Enqueued(id) => {
                shared.emit(TraceEvent::new(tid, "submit").key(key).job(id));
                shared.emit(TraceEvent::new(tid, "enqueue").key(key).job(id));
            }
            Flow::Rejected => shared.emit(
                TraceEvent::new(tid, "submit")
                    .key(key)
                    .outcome(false)
                    .detail("queue_full".into()),
            ),
        }
    }
    outcome
}

/// The `POST /v1/experiments` flow: parse, resolve, validate, hash,
/// then the shared [`submit_spec`] flow.
fn submit(shared: &Shared, body: &[u8]) -> Result<Reply, Reply> {
    let spec: JobSpec = decode(body, "JobSpec")?;
    let spec = spec.resolve().map_err(bad_request)?;
    spec.validate().map_err(bad_request)?;
    let key = spec.cache_key().map_err(|e| (500, error_body(&e)))?;

    match submit_spec(shared, spec, key) {
        // Format outside the critical section: the response embeds the
        // whole result JSON, and an O(result-size) copy under the state
        // lock would serialize the cache-hit hot path.
        SubmitOutcome::Cached(result) => Ok((
            200,
            format!("{{\"job_id\":null,\"status\":\"done\",\"cached\":true,\"result\":{result}}}"),
        )),
        SubmitOutcome::Job { id, status } => {
            let ack = SubmitAck {
                job_id: id,
                status: status.as_str().into(),
                cached: false,
            };
            Ok((
                202,
                serde_json::to_string(&ack).unwrap_or_else(|_| "{}".into()),
            ))
        }
        SubmitOutcome::QueueFull => Err((503, error_body("job queue is full, retry later"))),
    }
}

/// Validates and submits expanded grid cells, each with the coordinates
/// its response entry names, and formats the `{"cells":[...]}` body
/// (shared by the sweep and calibration routes).
fn submit_cells(shared: &Shared, cells: Vec<(GridCell, String)>) -> Result<Reply, Reply> {
    let mut entries = Vec::with_capacity(cells.len());
    for (cell, coords) in cells {
        cell.job.validate().map_err(bad_request)?;
        entries.push(match submit_spec(shared, cell.job, cell.key) {
            SubmitOutcome::Cached(result) => format!(
                "{{\"spec\":{coords},\"job_id\":null,\"status\":\"done\",\
                 \"cached\":true,\"result\":{result}}}"
            ),
            SubmitOutcome::Job { id, status } => format!(
                "{{\"spec\":{coords},\"job_id\":{id},\"status\":\"{}\",\"cached\":false}}",
                status.as_str()
            ),
            SubmitOutcome::QueueFull => format!(
                "{{\"spec\":{coords},\"job_id\":null,\"status\":\"rejected\",\
                 \"cached\":false}}"
            ),
        });
    }
    Ok((200, format!("{{\"cells\":[{}]}}", entries.join(","))))
}

/// The `POST /v1/sweeps` flow: parse a [`ahn_core::sweeps::SweepGrid`],
/// expand it to one single-case experiment job per cell, and run every
/// cell through the same cache/coalesce/enqueue flow as
/// `POST /v1/experiments`. Because a cell's job spec is byte-identical
/// to the equivalent direct submission, cells share the result cache
/// with single experiments (and with every other sweep that contains
/// them).
///
/// The response is one entry per cell, in grid order: cached cells
/// carry their result inline, fresh/coalesced cells a `job_id` to poll
/// at `GET /v1/jobs/{id}`, and cells bounced by a full queue the status
/// `"rejected"` (the caller retries just those).
fn submit_sweep(shared: &Shared, body: &[u8]) -> Result<Reply, Reply> {
    let grid: ahn_core::sweeps::SweepGrid = decode(body, "SweepGrid")?;
    // Cap the expansion before anything O(cells) runs (validation
    // included): a kilobyte of repeated axis values would otherwise
    // expand to millions of cells of server-side work and an unbounded
    // response body.
    if grid.cell_count() > MAX_SWEEP_CELLS {
        return Err(bad_request(format!(
            "sweep expands to {} cells, above the server cap of {MAX_SWEEP_CELLS}; \
             split the grid into smaller submissions",
            grid.cell_count()
        )));
    }
    grid.validate().map_err(bad_request)?;
    let cells = grid_cells(&grid).map_err(bad_request)?;
    let cells = cells.into_iter().map(|cell| {
        let coords = serde_json::to_string(&cell.cell).unwrap_or_else(|_| "{}".into());
        (cell, coords)
    });
    submit_cells(shared, cells.collect())
}

/// The `POST /v1/calibrations` flow: parse an
/// [`ahn_core::calibrate::CalibrationGrid`], expand it to one
/// single-case experiment job per candidate × case × seed-block cell,
/// and run every cell through the same cache/coalesce/enqueue flow as
/// `POST /v1/experiments`. A calibration cell resolves to exactly the
/// `(config, case)` pair the equivalent direct submission or sweep
/// would use, so repeated searches — and searches overlapping a sweep —
/// hit the result cache per cell.
///
/// The response lists one entry per cell in deterministic order
/// (candidates outermost, then the candidate's sweep-cell order):
/// cached cells carry their result inline, fresh/coalesced cells a
/// `job_id`, queue-bounced cells the status `"rejected"`.
fn submit_calibration(shared: &Shared, body: &[u8]) -> Result<Reply, Reply> {
    let grid: ahn_core::calibrate::CalibrationGrid = decode(body, "CalibrationGrid")?;
    // Cap the expansion before anything O(cells) runs, like /v1/sweeps.
    if grid.cell_count() > MAX_SWEEP_CELLS {
        return Err(bad_request(format!(
            "calibration expands to {} cells, above the server cap of {MAX_SWEEP_CELLS}; \
             lower max_candidates or split the search",
            grid.cell_count()
        )));
    }
    grid.validate().map_err(bad_request)?;
    let mut cells = Vec::with_capacity(grid.cell_count());
    for candidate in grid.candidates() {
        let sweep = grid.sweep_for(&candidate).map_err(bad_request)?;
        for cell in grid_cells(&sweep).map_err(bad_request)? {
            let coords = format!(
                "{{\"candidate\":{},\"case_no\":{},\"seed_block\":{}}}",
                candidate.id, cell.cell.case_no, cell.cell.seed_block
            );
            cells.push((cell, coords));
        }
    }
    submit_cells(shared, cells)
}

/// The `GET /v1/jobs/{id}` flow.
fn job_status(shared: &Shared, path: &str) -> Result<Reply, Reply> {
    let id_text = &path["/v1/jobs/".len()..];
    let id = id_text
        .parse::<u64>()
        .map_err(|_| bad_request(format!("bad job id {id_text:?}")))?;
    // Copy the record's cheap parts (the result is an Arc) and format
    // outside the critical section.
    let record = shared
        .state
        .lock()
        .expect("state lock")
        .jobs
        .get(&id)
        .cloned();
    let record =
        record.ok_or_else(|| (404, error_body("no such job (pruned or never created)")))?;
    let body = match record.status {
        JobStatus::Done => {
            let result = record.result.as_deref().unwrap_or("null");
            format!("{{\"job_id\":{id},\"status\":\"done\",\"result\":{result}}}")
        }
        JobStatus::Failed => {
            let error = serde_json::to_string(record.error.as_deref().unwrap_or("unknown"))
                .unwrap_or_else(|_| "\"unknown\"".into());
            format!("{{\"job_id\":{id},\"status\":\"failed\",\"error\":{error}}}")
        }
        status => format!("{{\"job_id\":{id},\"status\":\"{}\"}}", status.as_str()),
    };
    Ok((200, body))
}

/// Leases the next still-pending job, for either kind of worker:
/// `lease: None` blocks on the store's condvar and leases with no
/// deadline (an in-process worker), `Some(lease)` is a pull worker's
/// non-blocking claim. A requeued copy of a job that a late completion
/// already settled is released and skipped instead of being handed out
/// again. The granted job turns `Running`, and its queue wait ends.
fn claim_pending(shared: &Shared, lease: Option<Duration>) -> Option<LeasedJob> {
    loop {
        let leased = match lease {
            None => shared.store.claim_blocking(),
            Some(lease) => shared.store.claim(lease),
        }?;
        let pending = {
            let mut state = shared.state.lock().expect("state lock");
            match state.jobs.get_mut(&leased.job.id) {
                Some(record) if matches!(record.status, JobStatus::Queued | JobStatus::Running) => {
                    record.status = JobStatus::Running;
                    true
                }
                _ => false,
            }
        };
        if pending {
            shared
                .metrics
                .queue_wait_us
                .record(leased.job.enqueued_at.elapsed().as_micros() as u64);
            return Some(leased);
        }
        shared.store.complete_lease(leased.lease_id);
    }
}

/// The `POST /v1/work/claim` flow: sweep expired leases (the only
/// sweep trigger besides `/v1/work/complete` and `/metrics` — request
/// driven, so an idle node never spins), then lease the front of the
/// queue to the caller. An empty queue answers `{"status":"empty"}`.
fn work_claim(shared: &Shared, body: &[u8]) -> Result<Reply, Reply> {
    let request: ClaimRequest = match std::str::from_utf8(body) {
        Ok(text) if text.trim().is_empty() => ClaimRequest::default(),
        _ => decode(body, "claim request")?,
    };
    let lease_ms = request
        .lease_ms
        .unwrap_or(DEFAULT_LEASE_MS)
        .clamp(1, MAX_LEASE_MS);
    // Fold worker-reported breaker trips into the fleet-wide counter
    // (best-effort telemetry; deltas lost with a dropped claim are
    // re-sent with the worker's next claim).
    if let Some(trips) = request.breaker_trips {
        Metrics::add(&shared.metrics.breaker_open_total, trips);
    }
    // Same contract for backoff sleep: each claim samples the worker's
    // sleep total since its last acknowledged claim.
    if let Some(backoff_ms) = request.backoff_ms {
        shared.metrics.backoff_sleep_ms.record(backoff_ms);
    }

    shared.sweep_leases();
    let Some(leased) = claim_pending(shared, Some(Duration::from_millis(lease_ms))) else {
        Metrics::bump(&shared.metrics.work_claim_empty);
        return Ok((200, "{\"status\":\"empty\"}".into()));
    };
    Metrics::bump(&shared.metrics.work_claims);
    {
        // The grant starts the claim round trip.
        let mut starts = shared.lease_starts.lock().expect("lease starts lock");
        // Completions that never arrive would leak entries; drop
        // anything older than the longest possible lease.
        if starts.len() >= 1024 {
            let horizon = Duration::from_millis(MAX_LEASE_MS);
            starts.retain(|_, at| at.elapsed() < horizon);
        }
        starts.insert(leased.lease_id, Instant::now());
    }
    let trace_id = trace_id_of_key(leased.job.key);
    shared.emit(
        TraceEvent::new(trace_id, "lease")
            .key(leased.job.key)
            .job(leased.job.id)
            .lease(leased.lease_id),
    );
    to_json(&WorkGrant {
        lease_id: leased.lease_id,
        job_id: leased.job.id,
        key: leased.job.key,
        lease_ms,
        trace_id: Some(trace_id),
        spec: leased.job.spec,
    })
}

/// The `POST /v1/work/complete` flow: the pull worker's delivery goes
/// through the same [`settle`] as an in-process worker's result. First
/// completion wins (`{"status":"recorded"}`); later deliveries for the
/// same job — retried leases, expired leases whose worker finished
/// late — are discarded as `{"status":"duplicate"}`. The completion is
/// accepted even when the lease already expired: the result is still
/// bit-identical, only the lease bookkeeping is gone.
fn work_complete(shared: &Shared, body: &[u8]) -> Result<Reply, Reply> {
    let completion: WorkCompletion = decode(body, "completion")?;
    let outcome = match (completion.result, completion.error) {
        (Some(result), None) => Ok(result),
        (None, Some(error)) => Err(error),
        _ => {
            return Err(bad_request(
                "exactly one of result and error must be set".into(),
            ))
        }
    };
    shared.sweep_leases();
    // The completion ends the lease's round trip (grant → accepted);
    // expired leases whose start was pruned simply go unsampled.
    if let Some(granted_at) = shared
        .lease_starts
        .lock()
        .expect("lease starts lock")
        .remove(&completion.lease_id)
    {
        shared
            .metrics
            .claim_rtt_us
            .record(granted_at.elapsed().as_micros() as u64);
    }
    let origin = Origin::External {
        compute_us: completion.compute_us,
    };
    let (job_id, key, lease_id) = (completion.job_id, completion.key, completion.lease_id);
    match settle(shared, job_id, key, lease_id, outcome, origin) {
        Settled::Recorded => Ok((200, "{\"status\":\"recorded\"}".into())),
        Settled::Duplicate => Ok((200, "{\"status\":\"duplicate\"}".into())),
        Settled::UnknownJob => Err((404, error_body("no such job (pruned or never created)"))),
        Settled::KeyMismatch => Err(bad_request(
            "completion key does not match the job's spec hash".into(),
        )),
    }
}

/// Who computed the outcome being settled.
#[derive(Debug, Clone, Copy)]
enum Origin {
    /// An in-process worker. Its games count toward `games_simulated`
    /// and its compute time toward `busy_nanos`.
    Local { games: u64, busy_nanos: u64 },
    /// A pull worker, through `POST /v1/work/complete`. Its compute
    /// time is self-reported: the server cannot see the remote clock,
    /// so it trusts the report (telemetry, not accounting).
    External { compute_us: Option<u64> },
}

/// How a settlement ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Settled {
    /// The first outcome for the job: recorded.
    Recorded,
    /// The job was already settled; this outcome was discarded.
    Duplicate,
    /// No such job (pruned, or never created).
    UnknownJob,
    /// The key does not match the pending job's spec hash.
    KeyMismatch,
}

/// Settles the outcome of job `job_id` (cache key `key`, held under
/// `lease_id`), whoever computed it, then releases the lease.
///
/// First completion wins: a job already done or failed keeps its
/// record, and the late outcome is a [`Settled::Duplicate`] (a local
/// run of a requeued cell that a pull worker finished first, or a
/// retried delivery).
///
/// The order is the same for both origins: the outcome becomes visible
/// (cache, job record, metrics) under the state lock, in the same
/// critical section as the first-completion check; the journal append
/// follows outside the lock; the lease is released last. So exactly one
/// result per job reaches the journal — the one the server served — and
/// a draining node, which waits for leases, never stops between the
/// result becoming visible and its append. A crash in that window loses
/// only the journal line: a resubmitted cell is recomputed to identical
/// bytes.
fn settle(
    shared: &Shared,
    job_id: u64,
    key: u64,
    lease_id: u64,
    outcome: Result<String, String>,
    origin: Origin,
) -> Settled {
    let compute_us = match origin {
        Origin::Local { busy_nanos, .. } => Some(busy_nanos / 1_000),
        Origin::External { compute_us } => compute_us,
    };
    if let Some(compute_us) = compute_us {
        shared.metrics.job_compute_us.record(compute_us);
    }
    // Local spans name no lease: an in-process lease never leaves this
    // node, so no other log refers to it.
    let span = |name: &str| {
        let event = TraceEvent::new(trace_id_of_key(key), name)
            .key(key)
            .job(job_id);
        match origin {
            Origin::Local { .. } => event,
            Origin::External { .. } => event.lease(lease_id),
        }
    };

    let mut state = shared.state.lock().expect("state lock");
    let settled = match state.jobs.get(&job_id).map(|r| r.status) {
        None => Settled::UnknownJob,
        Some(JobStatus::Done | JobStatus::Failed) => Settled::Duplicate,
        // Idempotency cross-check: while a job is pending its cache key
        // is in the inflight map, so a completion whose key disagrees
        // with the server's record is a client bug, not a mergeable
        // result.
        Some(_) if state.inflight.get(&key) != Some(&job_id) => Settled::KeyMismatch,
        Some(_) => Settled::Recorded,
    };
    let mut recorded: Option<Arc<str>> = None;
    if settled == Settled::Recorded {
        let state = &mut *state;
        let record = state
            .jobs
            .get_mut(&job_id)
            .expect("a pending job has a record");
        match outcome {
            Ok(json) => {
                let result: Arc<str> = Arc::from(json);
                state.cache.put(key, Arc::clone(&result));
                record.status = JobStatus::Done;
                record.result = Some(Arc::clone(&result));
                recorded = Some(result);
                Metrics::bump(&shared.metrics.jobs_completed);
                match origin {
                    Origin::Local { games, busy_nanos } => {
                        Metrics::add(&shared.metrics.games_simulated, games);
                        Metrics::add(&shared.metrics.busy_nanos, busy_nanos);
                    }
                    Origin::External { .. } => {
                        Metrics::bump(&shared.metrics.work_completed);
                        // Externally computed cells count here, *not* in
                        // `games_simulated`: that gauge stays honest
                        // local compute (this node never simulated
                        // these games).
                        Metrics::bump(&shared.metrics.cells_completed_external);
                    }
                }
            }
            Err(error) => {
                record.status = JobStatus::Failed;
                record.error = Some(error);
                Metrics::bump(&shared.metrics.jobs_failed);
            }
        }
        state.inflight.remove(&key);
        state.finished.push_back(job_id);
        while state.finished.len() > state.retain_finished {
            if let Some(old) = state.finished.pop_front() {
                state.jobs.remove(&old);
            }
        }
    }
    drop(state);

    match settled {
        Settled::Recorded => {
            if let Some(result) = &recorded {
                shared.store.record_completion(key, result);
            }
            let mut complete = span("complete").outcome(recorded.is_some());
            if let Origin::External {
                compute_us: Some(compute_us),
            } = origin
            {
                complete = complete.dur_us(compute_us);
            }
            shared.emit(complete);
        }
        Settled::Duplicate => {
            if let Origin::External { .. } = origin {
                Metrics::bump(&shared.metrics.work_duplicate);
            }
            shared.emit(span("duplicate"));
        }
        Settled::UnknownJob | Settled::KeyMismatch => {}
    }
    shared.store.complete_lease(lease_id);
    settled
}

/// In-process worker body: claim, compute and settle until the store
/// closes.
fn worker_loop(shared: &Shared) {
    while let Some(LeasedJob { lease_id, job }) = claim_pending(shared, None) {
        let started = Instant::now();
        let outcome = run_job(&job.spec);
        let busy_nanos = started.elapsed().as_nanos() as u64;
        shared.emit(
            TraceEvent::new(trace_id_of_key(job.key), "compute")
                .key(job.key)
                .job(job.id)
                .dur_us(busy_nanos / 1_000)
                .outcome(outcome.is_ok()),
        );
        let origin = Origin::Local {
            games: job.spec.games(),
            busy_nanos,
        };
        settle(shared, job.id, job.key, lease_id, outcome, origin);
    }
}

/// A 400 carrying `message`.
fn bad_request(message: String) -> Reply {
    (400, error_body(&message))
}

/// `{"error": <json-escaped message>}`.
fn error_body(message: &str) -> String {
    format!(
        "{{\"error\":{}}}",
        serde_json::to_string(message).unwrap_or_else(|_| "\"error\"".into())
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadtest::smoke_spec;

    /// A server's shared state with no threads or sockets behind it.
    fn shared() -> Shared {
        let config = ServerConfig {
            workers: 0,
            ..ServerConfig::default()
        };
        Shared::new(config, "127.0.0.1:0".parse().unwrap()).unwrap()
    }

    /// Submits a job, leases it to a pull worker whose lease expires,
    /// and lets an in-process worker pick up the requeued copy. Returns
    /// `(job id, key, pull worker's lease, local lease)`.
    fn requeued_into_a_local_worker(shared: &Shared) -> (u64, u64, u64, u64) {
        let spec = smoke_spec(1);
        let key = spec.cache_key().unwrap();
        let SubmitOutcome::Job { id, .. } = submit_spec(shared, spec, key) else {
            panic!("a fresh spec must queue a job");
        };
        let external = claim_pending(shared, Some(Duration::ZERO)).unwrap();
        assert_eq!(shared.store.sweep_expired(), 1);
        let local = claim_pending(shared, None).unwrap();
        assert_eq!(local.job.id, id);
        (id, key, external.lease_id, local.lease_id)
    }

    fn count(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::SeqCst)
    }

    #[test]
    fn a_late_local_completion_is_a_duplicate() {
        let shared = shared();
        let (id, key, external, local) = requeued_into_a_local_worker(&shared);
        let pull = Origin::External { compute_us: None };
        let settled = settle(&shared, id, key, external, Ok("[1]".into()), pull);
        assert_eq!(settled, Settled::Recorded);
        let local_run = Origin::Local {
            games: 7,
            busy_nanos: 1_000,
        };
        let settled = settle(&shared, id, key, local, Ok("[2]".into()), local_run);
        assert_eq!(settled, Settled::Duplicate);

        let m = &shared.metrics;
        assert_eq!(count(&m.jobs_completed), 1);
        assert_eq!(count(&m.cells_completed_external), 1);
        assert_eq!(
            count(&m.games_simulated),
            0,
            "the discarded run counts no games"
        );
        let state = shared.state.lock().unwrap();
        assert_eq!(state.finished.len(), 1, "finished once");
        assert_eq!(state.jobs[&id].result.as_deref(), Some("[1]"));
        drop(state);
        assert_eq!(shared.store.outstanding(), 0, "both leases released");
    }

    #[test]
    fn a_late_local_success_cannot_overwrite_a_failure() {
        let shared = shared();
        let (id, key, external, local) = requeued_into_a_local_worker(&shared);
        let pull = Origin::External { compute_us: None };
        let settled = settle(&shared, id, key, external, Err("boom".into()), pull);
        assert_eq!(settled, Settled::Recorded);
        let local_run = Origin::Local {
            games: 7,
            busy_nanos: 1_000,
        };
        let settled = settle(&shared, id, key, local, Ok("[2]".into()), local_run);
        assert_eq!(settled, Settled::Duplicate);

        assert_eq!(count(&shared.metrics.jobs_failed), 1);
        assert_eq!(count(&shared.metrics.jobs_completed), 0);
        let state = shared.state.lock().unwrap();
        assert_eq!(state.jobs[&id].status, JobStatus::Failed);
        assert!(
            state.cache.is_empty(),
            "a duplicate never reaches the cache"
        );
    }
}
