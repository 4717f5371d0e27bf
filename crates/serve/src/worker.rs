//! The pull worker: leases cells from a serve node over
//! `POST /v1/work/claim`, computes them with the exact same
//! [`crate::jobs::run_job`] the server-side pool uses, and delivers
//! results via `POST /v1/work/complete` (the `ahn-exp worker`
//! subcommand).
//!
//! Determinism is free: a cell is a pure function of its resolved spec,
//! so *which* process computes it cannot change the bytes. The worker
//! still verifies the claimed spec's `canonical_hash` against the
//! server-supplied key before computing — a transport that corrupts a
//! spec turns into a loud failure, never a silently wrong cell.
//!
//! Delivery is at-least-once: a transport error after the server
//! applied a completion is retried, and the server answers
//! `{"status":"duplicate"}` for the replay (first completion wins).
//! The [`Transport`] trait is the seam the fault-injection harness
//! ([`crate::faults::FlakyTransport`]) and the resilience policies
//! ([`crate::resilience::CircuitBreaker`]) plug into. Retries sleep on
//! a seeded decorrelated-jitter backoff ([`crate::resilience::Backoff`])
//! instead of spinning hot at a fixed interval.

use crate::jobs::run_job;
use crate::loadtest::one_shot_deadlined;
use crate::protocol::{WorkCompletion, WorkGrant};
use crate::resilience::{Backoff, BackoffPolicy};
use ahn_obs::{trace_id_of_key, AtomicHistogram, HistogramSnapshot, TraceEvent, TraceLog};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// One HTTP round trip, abstracted so tests can inject failures
/// deterministically. `Err` means the response was never observed — the
/// request may or may not have reached the server (exactly the
/// ambiguity a crashing worker produces).
pub trait Transport: Send {
    /// Performs `method path` with `body`, returning `(status, body)`.
    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String>;

    /// Circuit-breaker trips observed by this transport stack so far
    /// (0 when no breaker is in the stack); wrappers delegate inward so
    /// the worker can report trips to the server regardless of
    /// stacking order.
    fn breaker_opens(&self) -> u64 {
        0
    }
}

/// Default per-call deadline of [`HttpTransport`], milliseconds: bounds
/// connect, send and receive so a stalled server cannot wedge a worker
/// (claims and completions are sub-second; compute happens locally).
pub const DEFAULT_TRANSPORT_DEADLINE_MS: u64 = 30_000;

/// The real transport: one fresh TCP connection per request (a worker
/// is idle-or-computing, so connection reuse buys nothing and fresh
/// connections survive server restarts). Every call runs under a
/// deadline — a worker never blocks forever on a wedged server.
#[derive(Debug, Clone)]
pub struct HttpTransport {
    addr: String,
    deadline: Option<Duration>,
}

impl HttpTransport {
    /// A transport talking to `addr` (`host:port`) with the default
    /// per-call deadline.
    pub fn new(addr: &str) -> HttpTransport {
        HttpTransport::with_deadline(addr, DEFAULT_TRANSPORT_DEADLINE_MS)
    }

    /// A transport with an explicit per-call deadline in milliseconds
    /// (0 disables the deadline — the pre-hardening behavior).
    pub fn with_deadline(addr: &str, deadline_ms: u64) -> HttpTransport {
        HttpTransport {
            addr: addr.into(),
            deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
        }
    }
}

impl Transport for HttpTransport {
    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        one_shot_deadlined(&self.addr, method, path, body, self.deadline)
    }
}

/// Worker tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerConfig {
    /// Lease requested per claim, in milliseconds. Until it elapses the
    /// cell is this worker's; afterwards the server may requeue it.
    pub lease_ms: u64,
    /// Sleep between claims that found nothing (idle polling, not
    /// error retrying — retries use the backoff policy).
    pub poll_ms: u64,
    /// Stop after processing this many cells (0 = unlimited).
    pub max_cells: u64,
    /// Exit after this many *consecutive* empty claims (0 = keep
    /// polling forever; the operator kills the worker).
    pub idle_exit_polls: u64,
    /// Give up after this many consecutive transport errors.
    pub max_consecutive_errors: u64,
    /// Backoff between transport-error retries: exponential with
    /// seeded decorrelated jitter, reset on the first success.
    pub backoff: BackoffPolicy,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            lease_ms: crate::protocol::DEFAULT_LEASE_MS,
            poll_ms: 50,
            max_cells: 0,
            idle_exit_polls: 0,
            max_consecutive_errors: 25,
            backoff: BackoffPolicy::default(),
        }
    }
}

/// What a worker did before exiting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Results the server accepted.
    pub completed: u64,
    /// Cells that failed to compute (delivered as errors).
    pub failed: u64,
    /// Deliveries the server discarded as duplicates (another worker —
    /// or an earlier retry of this one — got there first).
    pub duplicates: u64,
    /// Results dropped because the server no longer knew the job
    /// (typically a server restart between claim and completion).
    pub dropped: u64,
    /// Claims that found the queue empty.
    pub empty_polls: u64,
    /// Transport errors survived (claim and completion combined).
    pub transport_errors: u64,
    /// Circuit-breaker trips observed by the transport stack.
    pub breaker_opens: u64,
}

/// Latency distributions a worker collected while running — returned by
/// [`run_worker`] next to the counter report.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerTelemetry {
    /// Grant received → completion acknowledged, microseconds (the
    /// worker-side view of the server's `claim_rtt_us`).
    pub claim_rtt_us: HistogramSnapshot,
    /// `run_job` compute time per cell, microseconds.
    pub compute_us: HistogramSnapshot,
    /// Individual backoff sleeps, milliseconds.
    pub backoff_ms: HistogramSnapshot,
}

/// The worker's exit summary, printed by `ahn-exp worker` as one final
/// JSON line so fleet scripts can scrape per-worker stats without
/// parsing human-oriented stderr.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerSummary {
    /// Report schema tag (`"ahn-worker-summary/1"`).
    pub schema: String,
    /// Results the server accepted.
    pub completed: u64,
    /// Cells delivered as errors.
    pub failed: u64,
    /// Deliveries discarded as duplicates.
    pub duplicates: u64,
    /// Results dropped because the server forgot the job.
    pub dropped: u64,
    /// Claims that found the queue empty.
    pub empty_polls: u64,
    /// Transport errors survived.
    pub transport_errors: u64,
    /// Circuit-breaker trips observed.
    pub breaker_opens: u64,
    /// Grant → completion-ack round trip, microseconds.
    pub claim_rtt_us: HistogramSnapshot,
    /// Per-cell compute time, microseconds.
    pub compute_us: HistogramSnapshot,
    /// Individual backoff sleeps, milliseconds.
    pub backoff_ms: HistogramSnapshot,
}

impl WorkerSummary {
    /// Folds a report and its telemetry into the printable summary.
    pub fn new(report: &WorkerReport, telemetry: &WorkerTelemetry) -> WorkerSummary {
        WorkerSummary {
            schema: "ahn-worker-summary/1".into(),
            completed: report.completed,
            failed: report.failed,
            duplicates: report.duplicates,
            dropped: report.dropped,
            empty_polls: report.empty_polls,
            transport_errors: report.transport_errors,
            breaker_opens: report.breaker_opens,
            claim_rtt_us: telemetry.claim_rtt_us.clone(),
            compute_us: telemetry.compute_us.clone(),
            backoff_ms: telemetry.backoff_ms.clone(),
        }
    }
}

/// Runs the claim → compute → complete loop until an exit condition of
/// `config` fires, returning what happened and the latency histograms
/// it collected (claim round trip, compute, backoff sleeps). `Err`
/// means the worker gave up (transport dead, or a protocol violation).
///
/// Each claim reports the breaker trips observed since the last
/// *acknowledged* claim (`breaker_trips` in the body), so the server's
/// `breaker_open_total` aggregates fleet-wide trips. The report is
/// at-least-once under faults: a delta whose claim response is lost is
/// re-sent with the next claim.
///
/// When `trace` is set the worker appends one span event per lifecycle
/// step (claim/compute/deliver/retry/breaker_open), so a cell's trail
/// joins with the server's via the grant's `trace_id`.
pub fn run_worker(
    transport: &mut dyn Transport,
    config: &WorkerConfig,
    trace: Option<&TraceLog>,
) -> Result<(WorkerReport, WorkerTelemetry), String> {
    let telemetry = WorkerHistograms::default();
    let result = run_worker_loop(transport, config, trace, &telemetry);
    let telemetry = WorkerTelemetry {
        claim_rtt_us: telemetry.claim_rtt_us.snapshot(),
        compute_us: telemetry.compute_us.snapshot(),
        backoff_ms: telemetry.backoff_ms.snapshot(),
    };
    match result {
        Ok(mut report) => {
            report.breaker_opens = transport.breaker_opens();
            Ok((report, telemetry))
        }
        Err(e) => Err(e),
    }
}

/// Live histograms behind [`WorkerTelemetry`] (the worker is
/// single-threaded; [`AtomicHistogram`] is simply the zero-allocation
/// recorder we already have).
#[derive(Debug, Default)]
struct WorkerHistograms {
    claim_rtt_us: AtomicHistogram,
    compute_us: AtomicHistogram,
    backoff_ms: AtomicHistogram,
}

fn run_worker_loop(
    transport: &mut dyn Transport,
    config: &WorkerConfig,
    trace: Option<&TraceLog>,
    telemetry: &WorkerHistograms,
) -> Result<WorkerReport, String> {
    let emit = |event: TraceEvent| {
        if let Some(log) = trace {
            log.emit(event);
        }
    };
    // Records a backoff sleep everywhere it is taken: the histogram, the
    // next claim body (server-side sample) and the trace.
    let sleep_backoff = |backoff: &mut Backoff, pending_ms: &mut u64, trace_id: u64, why: &str| {
        let delay = backoff.next_delay();
        let delay_ms = delay.as_millis() as u64;
        telemetry.backoff_ms.record(delay_ms);
        *pending_ms += delay_ms;
        emit(
            TraceEvent::new(trace_id, "retry")
                .dur_us(delay.as_micros() as u64)
                .detail(why.to_owned()),
        );
        std::thread::sleep(delay);
    };

    let pause = Duration::from_millis(config.poll_ms.max(1));
    let mut backoff = Backoff::new(config.backoff);
    let mut report = WorkerReport::default();
    let mut consecutive_errors = 0u64;
    let mut idle_polls = 0u64;
    let mut processed = 0u64;
    let mut trips_reported = 0u64;
    let mut trips_traced = 0u64;
    // Backoff milliseconds slept since the last acknowledged claim,
    // reported in the next claim body (same at-least-once contract as
    // `breaker_trips`).
    let mut backoff_ms_pending = 0u64;

    loop {
        if config.max_cells > 0 && processed >= config.max_cells {
            return Ok(report);
        }
        let trips_now = transport.breaker_opens();
        if trips_now > trips_traced {
            // trace_id 0: a node-local event — the breaker is not tied
            // to any one cell.
            emit(TraceEvent::new(0, "breaker_open").detail(format!(
                "trips={} total={trips_now}",
                trips_now - trips_traced
            )));
            trips_traced = trips_now;
        }
        let claim_body = format!(
            "{{\"lease_ms\":{},\"breaker_trips\":{},\"backoff_ms\":{}}}",
            config.lease_ms,
            trips_now - trips_reported,
            backoff_ms_pending
        );
        let claim_started = Instant::now();
        let body = match transport.request("POST", "/v1/work/claim", &claim_body) {
            Ok((200, body)) => {
                trips_reported = trips_now;
                backoff_ms_pending = 0;
                body
            }
            Ok((status, body)) => return Err(format!("claim rejected: {status} {body}")),
            Err(e) => {
                report.transport_errors += 1;
                consecutive_errors += 1;
                if consecutive_errors >= config.max_consecutive_errors {
                    return Err(format!(
                        "giving up after {consecutive_errors} consecutive transport errors: {e}"
                    ));
                }
                sleep_backoff(&mut backoff, &mut backoff_ms_pending, 0, "claim failed");
                continue;
            }
        };
        consecutive_errors = 0;
        backoff.reset();

        let grant: WorkGrant = match serde_json::from_str(&body) {
            Ok(grant) => grant,
            Err(_) if body.contains("\"empty\"") => {
                report.empty_polls += 1;
                idle_polls += 1;
                if config.idle_exit_polls > 0 && idle_polls >= config.idle_exit_polls {
                    return Ok(report);
                }
                std::thread::sleep(pause);
                continue;
            }
            Err(e) => return Err(format!("cannot parse claim response: {e} in {body}")),
        };
        idle_polls = 0;
        // Echo the server's trace id; derive it from the key when an
        // old server omitted the field (same pure function both ends).
        let trace_id = grant.trace_id.unwrap_or_else(|| trace_id_of_key(grant.key));
        let granted_at = Instant::now();
        emit(
            TraceEvent::new(trace_id, "claim")
                .key(grant.key)
                .job(grant.job_id)
                .lease(grant.lease_id)
                .dur_us(claim_started.elapsed().as_micros() as u64),
        );

        // Per-cell idempotency check: the canonical hash of the spec we
        // are about to run must be the key the server indexed it under.
        let compute_started = Instant::now();
        let outcome = match grant.spec.cache_key() {
            Ok(key) if key == grant.key => run_job(&grant.spec),
            Ok(key) => Err(format!(
                "claimed spec hashes to {key:#018x} but the server granted key {:#018x} \
                 (corrupted claim?)",
                grant.key
            )),
            Err(e) => Err(e),
        };
        let compute_us = compute_started.elapsed().as_micros() as u64;
        telemetry.compute_us.record(compute_us);
        let succeeded = outcome.is_ok();
        emit(
            TraceEvent::new(trace_id, "compute")
                .key(grant.key)
                .job(grant.job_id)
                .lease(grant.lease_id)
                .dur_us(compute_us)
                .outcome(succeeded),
        );
        let completion = WorkCompletion {
            lease_id: grant.lease_id,
            job_id: grant.job_id,
            key: grant.key,
            result: outcome.as_ref().ok().cloned(),
            error: outcome.err(),
            trace_id: Some(trace_id),
            compute_us: Some(compute_us),
        };
        let completion_body = serde_json::to_string(&completion)
            .map_err(|e| format!("cannot serialize completion: {e}"))?;

        // Deliver at-least-once: retry transport errors until the
        // server answers; it deduplicates replays.
        loop {
            match transport.request("POST", "/v1/work/complete", &completion_body) {
                Ok((200, response)) => {
                    let duplicate = response.contains("\"duplicate\"");
                    if duplicate {
                        report.duplicates += 1;
                    } else if succeeded {
                        report.completed += 1;
                    } else {
                        report.failed += 1;
                    }
                    telemetry
                        .claim_rtt_us
                        .record(granted_at.elapsed().as_micros() as u64);
                    let mut deliver = TraceEvent::new(trace_id, "deliver")
                        .key(grant.key)
                        .job(grant.job_id)
                        .lease(grant.lease_id)
                        .outcome(true);
                    if duplicate {
                        deliver = deliver.detail("duplicate".into());
                    }
                    emit(deliver);
                    break;
                }
                Ok((404, _)) => {
                    // The server forgot the job (restart, pruning):
                    // nothing to deliver to; the cell will be
                    // resubmitted and recomputed identically.
                    report.dropped += 1;
                    emit(
                        TraceEvent::new(trace_id, "deliver")
                            .key(grant.key)
                            .job(grant.job_id)
                            .lease(grant.lease_id)
                            .outcome(false)
                            .detail("dropped: server forgot the job".into()),
                    );
                    break;
                }
                Ok((status, response)) => {
                    return Err(format!("completion rejected: {status} {response}"))
                }
                Err(e) => {
                    report.transport_errors += 1;
                    consecutive_errors += 1;
                    if consecutive_errors >= config.max_consecutive_errors {
                        return Err(format!(
                            "giving up after {consecutive_errors} consecutive transport \
                             errors: {e}"
                        ));
                    }
                    sleep_backoff(
                        &mut backoff,
                        &mut backoff_ms_pending,
                        trace_id,
                        "completion delivery failed",
                    );
                }
            }
        }
        consecutive_errors = 0;
        backoff.reset();
        processed += 1;
    }
}
