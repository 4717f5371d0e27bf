//! Fault-injection tests for the distributed sweep layer: real servers
//! on ephemeral ports, real pull workers on threads, seeded
//! [`FlakyTransport`] failures — and one invariant throughout: the
//! merged report is byte-identical to a single-process run no matter
//! how many workers ran, which crashed, or what got delivered twice.

use ahn_serve::jobs::run_job;
use ahn_serve::loadtest::one_shot;
use ahn_serve::protocol::{WorkCompletion, WorkGrant};
use ahn_serve::server::{spawn, ServerConfig, ServerHandle};
use ahn_serve::{
    run_calibration_via, run_sweep_via, run_worker, BackoffPolicy, CircuitBreaker, FaultPlan,
    FlakyTransport, HttpTransport, WorkerConfig, WorkerReport,
};
use serde_json::Value;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Boots a server; `workers: 0` makes it pull-only (all compute happens
/// in `ahn-exp worker`-style pull loops).
fn boot(workers: usize, journal: Option<&std::path::Path>) -> (ServerHandle, String) {
    let handle = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        cache_cap: 64,
        queue_cap: 64,
        journal: journal.map(|p| p.display().to_string()),
        // Short drain: several tests shut down with work still queued
        // and must not wait out the default drain budget.
        drain_ms: 250,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "ahn-distributed-test-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// A 4-cell sweep (2 cases x 2 seed blocks) small enough to run many
/// times per test but exercising distinct per-cell seeds.
fn small_grid() -> ahn_core::SweepGrid {
    let mut base = ahn_core::ExperimentConfig::smoke();
    base.generations = 3;
    base.replications = 1;
    ahn_core::SweepGrid {
        base,
        scenarios: None,
        cases: vec![1, 3],
        payoffs: vec!["paper".into()],
        sizes: vec![10],
        seed_blocks: vec![0, 1],
    }
}

/// Starts a pull worker on a thread with the given fault schedule.
/// Returns the worker's report and how many faults were injected.
fn start_worker(
    addr: &str,
    plan: FaultPlan,
    lease_ms: u64,
) -> JoinHandle<(Result<WorkerReport, String>, u64)> {
    let addr = addr.to_string();
    std::thread::spawn(move || {
        let mut transport = FlakyTransport::new(HttpTransport::new(&addr), plan);
        let config = WorkerConfig {
            lease_ms,
            poll_ms: 5,
            max_cells: 0,
            // Generous idle tolerance (~2s): the worker must outlive
            // submission gaps and lease-expiry waits mid-test.
            idle_exit_polls: 400,
            max_consecutive_errors: 200,
            // Fast backoff so injected faults cost milliseconds, not
            // the production-scale default delays.
            backoff: BackoffPolicy {
                base_ms: 1,
                cap_ms: 8,
                seed: 3,
            },
        };
        let outcome = run_worker(&mut transport, &config, None).map(|(report, _)| report);
        (outcome, transport.injected())
    })
}

/// Starts a pull worker behind the full resilience stack — circuit
/// breaker over seeded chaos over HTTP, the `ahn-exp worker --chaos-*`
/// configuration in-process. Fast backoff keeps retries test-friendly;
/// zero cooldown makes every post-trip call a half-open probe, so the
/// breaker exercises its state machine without fail-fast nondeterminism.
/// Returns `(report, injected faults, breaker trips)`.
fn start_hardened_worker(
    addr: &str,
    plan: FaultPlan,
    lease_ms: u64,
) -> JoinHandle<(Result<WorkerReport, String>, u64, u64)> {
    let addr = addr.to_string();
    std::thread::spawn(move || {
        let mut transport = CircuitBreaker::new(
            FlakyTransport::new(HttpTransport::new(&addr), plan),
            2,
            Duration::ZERO,
        );
        let config = WorkerConfig {
            lease_ms,
            poll_ms: 5,
            max_cells: 0,
            idle_exit_polls: 400,
            max_consecutive_errors: 500,
            backoff: BackoffPolicy {
                base_ms: 1,
                cap_ms: 8,
                seed: 7,
            },
        };
        let outcome = run_worker(&mut transport, &config, None).map(|(report, _)| report);
        (outcome, transport.inner().injected(), transport.opens())
    })
}

fn get(addr: &str, path: &str) -> (u16, Value) {
    let (status, body) = one_shot(addr, "GET", path, "").expect("request");
    (status, serde_json::from_str(&body).unwrap_or(Value::Null))
}

fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
    one_shot(addr, "POST", path, body).expect("request")
}

fn metric_u64(addr: &str, field: &str) -> u64 {
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    match metrics[field] {
        Value::U64(n) => n,
        ref other => panic!("metric {field} should be an integer, got {other:?}"),
    }
}

#[test]
fn one_two_and_four_workers_merge_bit_identically() {
    let grid = small_grid();
    let local = ahn_core::run_sweep(&grid).expect("local sweep");
    let local_json = serde_json::to_string_pretty(&local).unwrap();

    for worker_count in [1usize, 2, 4] {
        let (handle, addr) = boot(0, None);
        let workers: Vec<_> = (0..worker_count)
            .map(|_| start_worker(&addr, FaultPlan::none(), 60_000))
            .collect();

        let mut transport = HttpTransport::new(&addr);
        let report = run_sweep_via(&mut transport, &grid, None, 2, None)
            .unwrap_or_else(|e| panic!("{worker_count}-worker sweep failed: {e}"));
        let distributed_json = serde_json::to_string_pretty(&report).unwrap();
        assert_eq!(
            distributed_json, local_json,
            "{worker_count} workers changed the report bytes"
        );

        for worker in workers {
            let (outcome, _) = worker.join().expect("worker thread");
            outcome.expect("healthy worker exits cleanly");
        }
        handle.shutdown();
    }
}

#[test]
fn flaky_workers_cannot_change_a_byte() {
    let grid = small_grid();
    let local_json =
        serde_json::to_string_pretty(&ahn_core::run_sweep(&grid).expect("local sweep")).unwrap();

    let (handle, addr) = boot(0, None);
    // Two lossy workers: dropped requests stall claims, dropped
    // responses make the server process completions the worker never
    // sees — forcing the retry-then-duplicate path. Short leases heal
    // claims whose grant got lost in flight.
    let plans = [
        FaultPlan {
            seed: 11,
            drop_request_percent: 20,
            drop_response_percent: 20,
            ..FaultPlan::none()
        },
        FaultPlan {
            seed: 12,
            drop_request_percent: 20,
            drop_response_percent: 20,
            ..FaultPlan::none()
        },
    ];
    let workers: Vec<_> = plans
        .iter()
        .map(|plan| start_worker(&addr, *plan, 300))
        .collect();

    let mut transport = HttpTransport::new(&addr);
    let report =
        run_sweep_via(&mut transport, &grid, None, 2, None).expect("flaky distributed sweep");
    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        local_json,
        "injected faults changed the report bytes"
    );

    let mut total_injected = 0;
    for worker in workers {
        let (_, injected) = worker.join().expect("worker thread");
        total_injected += injected;
    }
    // Each worker polls idle for hundreds of calls before exiting, so a
    // 40% fault schedule cannot miss every call.
    assert!(total_injected > 0, "the fault plans never fired");
    handle.shutdown();
}

#[test]
fn worker_crash_mid_cell_expires_the_lease_and_another_worker_finishes() {
    let grid = small_grid();
    let local_json =
        serde_json::to_string_pretty(&ahn_core::run_sweep(&grid).expect("local sweep")).unwrap();

    let (handle, addr) = boot(0, None);

    // Queue all four cells up front so the crasher has work to claim.
    for spec in grid.cell_specs() {
        let (config, case) = grid.resolve(&spec).unwrap();
        let body = serde_json::to_string(&ahn_serve::JobSpec::Experiment {
            config,
            cases: vec![case],
        })
        .unwrap();
        let (status, response) = post(&addr, "/v1/experiments", &body);
        assert_eq!(status, 202, "{response}");
    }

    // The crasher claims a cell (call 0 succeeds), computes it, then
    // dies permanently before any completion lands — kill -9 between
    // compute and report. Its short lease is now orphaned.
    let crasher = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let plan = FaultPlan {
                die_after_calls: Some(1),
                ..FaultPlan::none()
            };
            let mut transport = FlakyTransport::new(HttpTransport::new(&addr), plan);
            let config = WorkerConfig {
                lease_ms: 150,
                poll_ms: 2,
                max_cells: 0,
                idle_exit_polls: 0,
                max_consecutive_errors: 3,
                ..WorkerConfig::default()
            };
            run_worker(&mut transport, &config, None).map(|(report, _)| report)
        }
    });
    assert!(
        crasher.join().expect("crasher thread").is_err(),
        "the dead transport must kill the crasher"
    );

    // A healthy worker takes over: once the 150ms lease expires, its
    // next claim sweeps the orphan back to the queue front.
    let healthy = start_worker(&addr, FaultPlan::none(), 60_000);
    let mut transport = HttpTransport::new(&addr);
    let report = run_sweep_via(&mut transport, &grid, None, 2, None).expect("recovery sweep");
    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        local_json,
        "crash recovery changed the report bytes"
    );
    assert!(
        metric_u64(&addr, "lease_requeues") >= 1,
        "the orphaned lease must have been requeued"
    );
    healthy
        .join()
        .expect("healthy thread")
        .0
        .expect("clean exit");
    handle.shutdown();
}

#[test]
fn duplicate_completion_keeps_the_first_result() {
    let (handle, addr) = boot(0, None);
    let spec = ahn_serve::loadtest::smoke_spec(3);
    let body = serde_json::to_string(&spec).unwrap();
    let (status, response) = post(&addr, "/v1/experiments", &body);
    assert_eq!(status, 202, "{response}");

    // Claim the cell and compute it exactly like a worker would.
    let (status, granted) = post(&addr, "/v1/work/claim", "{\"lease_ms\":60000}");
    assert_eq!(status, 200, "{granted}");
    let grant: WorkGrant = serde_json::from_str(&granted).expect("work grant");
    assert_eq!(grant.spec.cache_key().unwrap(), grant.key);
    let result = run_job(&grant.spec).expect("compute cell");

    let completion = serde_json::to_string(&WorkCompletion {
        lease_id: grant.lease_id,
        job_id: grant.job_id,
        key: grant.key,
        result: Some(result.clone()),
        error: None,
        trace_id: grant.trace_id,
        compute_us: None,
    })
    .unwrap();

    // First delivery wins; the byte-identical replay is a duplicate.
    let (status, first) = post(&addr, "/v1/work/complete", &completion);
    assert_eq!((status, first.as_str()), (200, "{\"status\":\"recorded\"}"));
    let (status, second) = post(&addr, "/v1/work/complete", &completion);
    assert_eq!(
        (status, second.as_str()),
        (200, "{\"status\":\"duplicate\"}")
    );
    assert_eq!(metric_u64(&addr, "work_duplicate"), 1);
    assert_eq!(metric_u64(&addr, "work_completed"), 1);

    // The job's recorded result is the first delivery, bit for bit.
    let (status, job) = get(&addr, &format!("/v1/jobs/{}", grant.job_id));
    assert_eq!(status, 200);
    assert_eq!(job["status"], Value::String("done".into()));
    assert_eq!(
        serde_json::to_string(&job["result"]).unwrap(),
        result,
        "stored result must be the delivered bytes"
    );
    handle.shutdown();
}

#[test]
fn coordinator_resumes_from_journal_and_recomputes_only_missing_cells() {
    let grid = small_grid();
    let local_json =
        serde_json::to_string_pretty(&ahn_core::run_sweep(&grid).expect("local sweep")).unwrap();
    let journal = tmp("coordinator-resume");

    // Phase 1: checkpoint half the grid (one seed block = 2 of 4 cells)
    // through a server with its own compute workers.
    let mut half = grid.clone();
    half.seed_blocks = vec![0];
    {
        let (handle, addr) = boot(1, None);
        let mut transport = HttpTransport::new(&addr);
        run_sweep_via(&mut transport, &half, Some(&journal), 2, None).expect("half sweep");
        handle.shutdown();
    }

    // Phase 2: a fresh server (empty cache) finishes the full grid.
    // Only the two cells missing from the journal may run as jobs.
    let (handle, addr) = boot(1, None);
    let mut transport = HttpTransport::new(&addr);
    let report =
        run_sweep_via(&mut transport, &grid, Some(&journal), 2, None).expect("resumed sweep");
    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        local_json,
        "journal resume changed the report bytes"
    );
    assert_eq!(
        metric_u64(&addr, "jobs_completed"),
        2,
        "checkpointed cells must not be recomputed"
    );
    handle.shutdown();

    // Phase 3: crash the coordinator mid-run against a fresh journal,
    // then resume. Any partial checkpoint state must converge to the
    // same bytes.
    let crash_journal = tmp("coordinator-crash");
    let (handle, addr) = boot(1, None);
    let plan = FaultPlan {
        die_after_calls: Some(6),
        ..FaultPlan::none()
    };
    let mut flaky = FlakyTransport::new(HttpTransport::new(&addr), plan);
    let crashed = run_sweep_via(&mut flaky, &grid, Some(&crash_journal), 2, None);
    assert!(crashed.is_err(), "the dead transport must fail the run");

    let mut transport = HttpTransport::new(&addr);
    let report =
        run_sweep_via(&mut transport, &grid, Some(&crash_journal), 2, None).expect("crash resume");
    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        local_json,
        "crash/resume changed the report bytes"
    );
    handle.shutdown();
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&crash_journal);
}

#[test]
fn distributed_calibration_matches_local_including_pareto_front() {
    let grid = ahn_core::CalibrationGrid::smoke();
    let local_json =
        serde_json::to_string_pretty(&ahn_core::run_calibration(&grid).expect("local calibration"))
            .unwrap();
    let journal = tmp("calibration");

    let (handle, addr) = boot(0, None);
    let workers: Vec<_> = (0..2)
        .map(|_| start_worker(&addr, FaultPlan::none(), 60_000))
        .collect();
    let mut transport = HttpTransport::new(&addr);
    let report = run_calibration_via(&mut transport, &grid, Some(&journal), 2, None)
        .expect("distributed calibration");
    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        local_json,
        "distributed calibration changed the report bytes"
    );
    for worker in workers {
        worker.join().expect("worker thread").0.expect("clean exit");
    }
    handle.shutdown();

    // Resume from the journal alone: a pull-only server with *no*
    // workers anywhere can still produce the full report.
    let (handle, addr) = boot(0, None);
    let mut transport = HttpTransport::new(&addr);
    let resumed = run_calibration_via(&mut transport, &grid, Some(&journal), 2, None)
        .expect("journal-only calibration");
    assert_eq!(
        serde_json::to_string_pretty(&resumed).unwrap(),
        local_json,
        "journal-only resume changed the report bytes"
    );
    handle.shutdown();
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn churn_under_latency_stalls_partial_writes_and_breakers_cannot_change_a_byte() {
    let grid = small_grid();
    let local_json =
        serde_json::to_string_pretty(&ahn_core::run_sweep(&grid).expect("local sweep")).unwrap();

    let (handle, addr) = boot(0, None);
    // Two workers behind breaker-over-chaos transports: dropped calls
    // trip retries, stalls burn their transport deadline budget, partial
    // writes feed the server malformed JSON, and two consecutive
    // failures trip the breaker. Short leases heal every lost grant.
    let plans = [
        FaultPlan {
            seed: 21,
            drop_request_percent: 10,
            drop_response_percent: 10,
            latency_percent: 15,
            latency_ms: 5,
            stall_percent: 10,
            stall_ms: 10,
            partial_write_percent: 10,
            die_after_calls: None,
        },
        FaultPlan {
            seed: 22,
            drop_request_percent: 10,
            drop_response_percent: 10,
            latency_percent: 15,
            latency_ms: 5,
            stall_percent: 10,
            stall_ms: 10,
            partial_write_percent: 10,
            die_after_calls: None,
        },
    ];
    let workers: Vec<_> = plans
        .iter()
        .map(|plan| start_hardened_worker(&addr, *plan, 300))
        .collect();

    let mut transport = HttpTransport::new(&addr);
    let report = run_sweep_via(&mut transport, &grid, None, 2, None).expect("churned sweep");
    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        local_json,
        "timeouts, breakers, and chaos changed the report bytes"
    );

    let (mut total_injected, mut total_opens) = (0, 0);
    for worker in workers {
        let (_, injected, opens) = worker.join().expect("worker thread");
        total_injected += injected;
        total_opens += opens;
    }
    assert!(total_injected > 0, "the fault plans never fired");
    // ~45% of calls fail, so two consecutive failures (a trip) are
    // certain across hundreds of deterministic per-worker schedules.
    assert!(total_opens > 0, "the breakers never tripped");
    // Workers report trip deltas on their (many) trailing idle claims,
    // so the server-side fold must have seen at least one.
    assert!(
        metric_u64(&addr, "breaker_open_total") > 0,
        "claim-reported trips must fold into breaker_open_total"
    );
    // All four cells were computed externally; the local-compute gauge
    // stays honest at zero on a pull-only node.
    assert_eq!(metric_u64(&addr, "cells_completed_external"), 4);
    assert_eq!(metric_u64(&addr, "games_simulated"), 0);
    handle.shutdown();
}

#[test]
fn claim_reported_breaker_trips_fold_into_the_metric() {
    let (handle, addr) = boot(0, None);
    let (status, body) = post(
        &addr,
        "/v1/work/claim",
        "{\"lease_ms\":1000,\"breaker_trips\":3}",
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(metric_u64(&addr, "breaker_open_total"), 3);
    // The field is optional: plain claims add nothing.
    let (status, _) = post(&addr, "/v1/work/claim", "{\"lease_ms\":1000}");
    assert_eq!(status, 200);
    assert_eq!(metric_u64(&addr, "breaker_open_total"), 3);
    handle.shutdown();
}

#[test]
fn drain_mid_sweep_then_restart_resumes_byte_identically_from_a_torn_journal() {
    let mut grid = small_grid();
    grid.seed_blocks = vec![0, 1, 2, 3]; // 8 cells: enough to drain mid-run
    let cells = grid.cell_specs().len() as u64;
    let local_json =
        serde_json::to_string_pretty(&ahn_core::run_sweep(&grid).expect("local sweep")).unwrap();
    let journal = tmp("drain-midrun");

    // Phase 1: a pull-only server, one worker slowed by injected
    // latency, and a checkpointing coordinator on a thread. Once the
    // journal holds at least one completion, drain the server out from
    // under both of them.
    let (handle, addr) = boot(0, None);
    let slow = FaultPlan {
        seed: 5,
        latency_percent: 100,
        latency_ms: 30,
        ..FaultPlan::none()
    };
    let worker = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut transport = FlakyTransport::new(HttpTransport::new(&addr), slow);
            // Low error tolerance + fast backoff: once the server is
            // gone this worker gives up in well under a second.
            let config = WorkerConfig {
                lease_ms: 60_000,
                poll_ms: 2,
                max_cells: 0,
                idle_exit_polls: 400,
                max_consecutive_errors: 10,
                backoff: BackoffPolicy {
                    base_ms: 1,
                    cap_ms: 5,
                    seed: 3,
                },
            };
            run_worker(&mut transport, &config, None).map(|(report, _)| report)
        }
    });
    let coordinator = std::thread::spawn({
        let addr = addr.clone();
        let grid = grid.clone();
        let journal = journal.clone();
        move || {
            let mut transport = HttpTransport::new(&addr);
            run_sweep_via(&mut transport, &grid, Some(&journal), 2, None)
        }
    });
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let checkpointed = ahn_serve::journal::replay(&journal)
            .map(|r| r.records.len())
            .unwrap_or(0);
        if checkpointed >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "no cell was ever checkpointed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, _) = post(&addr, "/v1/shutdown", "");
    assert_eq!(status, 200);
    handle.join();
    assert!(
        coordinator.join().expect("coordinator thread").is_err(),
        "the drained server must fail the mid-run coordinator"
    );
    let _ = worker.join().expect("worker thread");

    // Phase 1.5: tear the journal's trailing record, as a crash mid-append
    // would. Replay discards exactly the torn tail and keeps the rest.
    let bytes = std::fs::read(&journal).expect("journal exists");
    assert!(!bytes.is_empty());
    std::fs::write(&journal, &bytes[..bytes.len() - 3]).expect("tear the tail");
    let replayed = ahn_serve::journal::replay(&journal).expect("replay torn journal");
    assert_eq!(replayed.discarded, 1, "exactly the torn record is dropped");
    let salvaged = replayed.records.len() as u64;
    assert!(salvaged < cells);

    // Phase 2: a fresh server and a healthy worker resume from the torn
    // journal — byte-identical, recomputing only the missing cells.
    let (handle, addr) = boot(0, None);
    let healthy = start_worker(&addr, FaultPlan::none(), 60_000);
    let mut transport = HttpTransport::new(&addr);
    let report =
        run_sweep_via(&mut transport, &grid, Some(&journal), 2, None).expect("resumed sweep");
    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        local_json,
        "drain/tear/resume changed the report bytes"
    );
    assert_eq!(
        metric_u64(&addr, "cells_completed_external"),
        cells - salvaged,
        "checkpointed cells must not be recomputed (and none double-counted)"
    );
    healthy
        .join()
        .expect("healthy thread")
        .0
        .expect("clean exit");
    handle.shutdown();
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn server_journal_replays_onto_a_fresh_store_identically() {
    let journal = tmp("server-journal");
    let spec = ahn_serve::loadtest::smoke_spec(9);
    let body = serde_json::to_string(&spec).unwrap();
    let key = spec.cache_key().unwrap();

    // Server A computes the job and records it in its on-disk store.
    let first_result = {
        let (handle, addr) = boot(1, Some(&journal));
        let (status, response) = post(&addr, "/v1/experiments", &body);
        assert_eq!(status, 202, "{response}");
        let ack: Value = serde_json::from_str(&response).unwrap();
        let Value::U64(job_id) = ack["job_id"] else {
            panic!("no job id in {response}");
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        let result = loop {
            let (status, job) = get(&addr, &format!("/v1/jobs/{job_id}"));
            assert_eq!(status, 200);
            match &job["status"] {
                Value::String(s) if s == "done" => {
                    break serde_json::to_string(&job["result"]).unwrap()
                }
                Value::String(s) if s == "failed" => panic!("job failed: {job:?}"),
                _ => {
                    assert!(Instant::now() < deadline, "job timed out");
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        };
        handle.shutdown();
        result
    };

    // The journal on disk holds exactly that completion, checksummed.
    let replayed = ahn_serve::journal::replay(&journal).expect("replay journal");
    assert_eq!(replayed.discarded, 0);
    assert_eq!(replayed.records.len(), 1);
    assert_eq!(replayed.records[0].key, key);
    assert_eq!(replayed.records[0].result, first_result);

    // Server B (same journal, zero compute anywhere) answers the same
    // submission inline from the replayed cache — byte-identical.
    let (handle, addr) = boot(0, Some(&journal));
    let (status, response) = post(&addr, "/v1/experiments", &body);
    assert_eq!(
        status, 200,
        "replayed journal must warm the cache: {response}"
    );
    let hit: Value = serde_json::from_str(&response).unwrap();
    assert_eq!(hit["cached"], Value::Bool(true));
    assert_eq!(
        serde_json::to_string(&hit["result"]).unwrap(),
        first_result,
        "replayed result must be bit-identical"
    );
    handle.shutdown();
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn drain_waits_for_an_in_process_job_and_journals_it() {
    let journal = tmp("drain-in-process");
    // A drain budget far above the job's run time: the drain itself,
    // not the final worker join, must wait for the in-process job.
    let handle = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        journal: Some(journal.display().to_string()),
        drain_ms: 60_000,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    // Slow enough to still be running when the drain starts.
    let mut spec = ahn_serve::loadtest::smoke_spec(17);
    if let ahn_serve::JobSpec::Experiment { config, .. } = &mut spec {
        config.generations = 1_000;
    }
    let key = spec.cache_key().unwrap();
    let (status, response) = post(
        &addr,
        "/v1/experiments",
        &serde_json::to_string(&spec).unwrap(),
    );
    assert_eq!(status, 202, "{response}");
    let ack: Value = serde_json::from_str(&response).unwrap();
    let Value::U64(job_id) = ack["job_id"] else {
        panic!("no job id in {response}");
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, job) = get(&addr, &format!("/v1/jobs/{job_id}"));
        match &job["status"] {
            Value::String(s) if s == "running" => break,
            Value::String(s) if s == "queued" => {}
            other => panic!("the job must still be running at the drain, got {other:?}"),
        }
        assert!(Instant::now() < deadline, "the worker never took the job");
        std::thread::sleep(Duration::from_millis(1));
    }

    handle.shutdown();
    let replayed = ahn_serve::journal::replay(&journal).expect("replay journal");
    let keys: Vec<u64> = replayed.records.iter().map(|r| r.key).collect();
    assert_eq!(keys, vec![key], "the drained job's completion is journaled");
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn local_and_pull_workers_share_one_queue_bit_identically() {
    let mut grid = small_grid();
    grid.seed_blocks = vec![0, 1, 2, 3]; // 8 cells
    let cells = grid.cell_specs().len() as u64;
    let local_json =
        serde_json::to_string_pretty(&ahn_core::run_sweep(&grid).expect("local sweep")).unwrap();

    // One in-process worker plus two lossy pull workers on short leases:
    // lost grants and slow deliveries expire leases, and their cells
    // requeue into whichever worker claims next — the local one too.
    let (handle, addr) = boot(1, None);
    let plans = [31, 32].map(|seed| FaultPlan {
        seed,
        drop_request_percent: 20,
        drop_response_percent: 20,
        ..FaultPlan::none()
    });
    let workers: Vec<_> = plans
        .iter()
        .map(|plan| start_worker(&addr, *plan, 20))
        .collect();

    let mut transport = HttpTransport::new(&addr);
    let report = run_sweep_via(&mut transport, &grid, None, 2, None).expect("mixed-node sweep");
    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        local_json,
        "mixing local and pull workers changed the report bytes"
    );
    assert_eq!(
        metric_u64(&addr, "jobs_completed"),
        cells,
        "every cell completes exactly once, whoever finished it first"
    );
    for worker in workers {
        let _ = worker.join().expect("worker thread");
    }
    handle.shutdown();
}
