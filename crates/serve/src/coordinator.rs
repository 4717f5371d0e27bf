//! The distributed coordinator: runs a sweep or calibration *through* a
//! serve node instead of in-process, one `POST /v1/experiments` job per
//! grid cell, and merges the completed cells into a report bit-identical
//! to the single-process `run_sweep` / `run_calibration` fold.
//!
//! Why per-cell submissions instead of `POST /v1/sweeps`: each cell
//! rides the server's full cache/coalesce/queue flow under its own
//! `canonical_hash` key, so distributed sweeps share cached cells with
//! direct submissions, other sweeps, and calibration searches — and a
//! full queue backpressures one cell at a time (the coordinator retries
//! 503s) instead of bouncing a whole grid.
//!
//! Determinism: the coordinator never folds floats from wire text.
//! Results deserialize into typed [`ExperimentResult`]s (the vendored
//! JSON writer emits shortest-round-trip f64, so the parse is lossless),
//! become [`SweepCell`]s via [`ahn_core::cell_from_result`], and are
//! merged by [`ahn_core::merge_sweep`] in grid order — worker count,
//! arrival order, duplicate completions and crash/resume cannot change
//! a byte of the output.
//!
//! Checkpoint/resume: with a journal path every completed cell is
//! appended (checksummed, flushed) before the coordinator moves on; a
//! restarted coordinator replays the journal and submits only the
//! missing cells.

use crate::journal::{replay, Journal};
use crate::protocol::{grid_cells, GridCell};
use crate::worker::Transport;
use ahn_core::{
    cell_from_result, merge_sweep, score_calibration, CalibrationGrid, CalibrationReport,
    ExperimentResult, SweepCell, SweepGrid, SweepReport,
};
use ahn_obs::{trace_id_of_key, TraceEvent, TraceLog};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::Duration;

/// How many poll rounds a cell may take before the coordinator gives
/// up (multiplied by `poll_ms`; 15 000 × the 2 ms test cadence = 30 s,
/// matching the loadtest budget).
const MAX_POLL_ROUNDS: usize = 15_000;

/// How many consecutive 503 (queue full) answers a single cell may
/// absorb before the coordinator gives up.
const MAX_BACKPRESSURE_RETRIES: usize = 10_000;

/// Drives every cell through the serve node: journal replay → submit
/// missing → poll → journal append. Returns result JSON by cache key.
fn execute_cells(
    transport: &mut dyn Transport,
    cells: &[&GridCell],
    journal_path: Option<&Path>,
    poll_ms: u64,
    trace: Option<&TraceLog>,
) -> Result<HashMap<u64, String>, String> {
    let emit = |event: TraceEvent| {
        if let Some(log) = trace {
            log.emit(event);
        }
    };
    let pause = Duration::from_millis(poll_ms.max(1));
    let mut done: HashMap<u64, String> = HashMap::new();
    let mut journal = match journal_path {
        None => None,
        Some(path) => {
            let replayed = replay(path)
                .map_err(|e| format!("cannot replay journal {}: {e}", path.display()))?;
            for record in replayed.records {
                done.insert(record.key, record.result);
            }
            Some(
                Journal::open(path)
                    .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?,
            )
        }
    };

    // Submit every cell not already checkpointed (distinct keys once —
    // calibration candidates can share cells).
    let mut polling: Vec<(&GridCell, u64)> = Vec::new(); // (cell, job id)
    let mut submitted: HashSet<u64> = HashSet::new();
    for &task in cells {
        if done.contains_key(&task.key) || !submitted.insert(task.key) {
            continue;
        }
        let body =
            serde_json::to_string(&task.job).map_err(|e| format!("cannot serialize cell: {e}"))?;
        let trace_id = trace_id_of_key(task.key);
        let mut backpressure = 0usize;
        loop {
            let (status, response) = transport
                .request("POST", "/v1/experiments", &body)
                .map_err(|e| format!("cell submission failed: {e}"))?;
            match status {
                200 => {
                    // Cache hit: the result is inline.
                    emit(
                        TraceEvent::new(trace_id, "submit")
                            .key(task.key)
                            .outcome(true)
                            .detail("cache_hit".into()),
                    );
                    let result = extract_field(&response, "result")?;
                    checkpoint(&mut done, &mut journal, task.key, result)?;
                    emit(
                        TraceEvent::new(trace_id, "merge")
                            .key(task.key)
                            .outcome(true),
                    );
                    break;
                }
                202 => {
                    let value: serde_json::Value = serde_json::from_str(&response)
                        .map_err(|e| format!("cannot parse submit ack: {e}"))?;
                    let serde_json::Value::U64(job_id) = value["job_id"] else {
                        return Err(format!("submit ack without job_id: {response}"));
                    };
                    emit(
                        TraceEvent::new(trace_id, "submit")
                            .key(task.key)
                            .job(job_id),
                    );
                    polling.push((task, job_id));
                    break;
                }
                503 => {
                    backpressure += 1;
                    if backpressure >= MAX_BACKPRESSURE_RETRIES {
                        return Err("server queue stayed full; giving up".into());
                    }
                    std::thread::sleep(pause);
                }
                _ => return Err(format!("cell submission rejected: {status} {response}")),
            }
        }
    }

    // Poll submissions to completion in order; cells finish in any
    // order server-side, the order here only shapes wait time.
    for (task, job_id) in polling {
        let mut rounds = 0usize;
        loop {
            let (status, response) = transport
                .request("GET", &format!("/v1/jobs/{job_id}"), "")
                .map_err(|e| format!("job poll failed: {e}"))?;
            if status != 200 {
                return Err(format!("job {job_id} poll rejected: {status} {response}"));
            }
            let value: serde_json::Value = serde_json::from_str(&response)
                .map_err(|e| format!("cannot parse job status: {e}"))?;
            match &value["status"] {
                serde_json::Value::String(s) if s == "done" => {
                    let result = extract_field(&response, "result")?;
                    checkpoint(&mut done, &mut journal, task.key, result)?;
                    emit(
                        TraceEvent::new(trace_id_of_key(task.key), "merge")
                            .key(task.key)
                            .job(job_id)
                            .outcome(true),
                    );
                    break;
                }
                serde_json::Value::String(s) if s == "failed" => {
                    let error = serde_json::to_string(&value["error"]).unwrap_or_default();
                    return Err(format!("cell job {job_id} failed: {error}"));
                }
                _ => {
                    rounds += 1;
                    if rounds >= MAX_POLL_ROUNDS {
                        return Err(format!("cell job {job_id} did not finish in time"));
                    }
                    std::thread::sleep(pause);
                }
            }
        }
    }
    Ok(done)
}

/// Re-serializes `field` of a JSON response body. Both sides use the
/// same writer, so this reproduces the worker's compact result bytes.
fn extract_field(response: &str, field: &str) -> Result<String, String> {
    let value: serde_json::Value =
        serde_json::from_str(response).map_err(|e| format!("cannot parse response: {e}"))?;
    match value.get(field) {
        Some(inner) => {
            serde_json::to_string(inner).map_err(|e| format!("cannot re-serialize {field}: {e}"))
        }
        None => Err(format!("response has no {field:?} field: {response}")),
    }
}

/// Records one completed cell: durably first (journal append is
/// checksummed and flushed), then in the in-memory map.
fn checkpoint(
    done: &mut HashMap<u64, String>,
    journal: &mut Option<Journal>,
    key: u64,
    result: String,
) -> Result<(), String> {
    if let Some(journal) = journal {
        journal
            .append(key, &result)
            .map_err(|e| format!("cannot append to journal: {e}"))?;
    }
    done.insert(key, result);
    Ok(())
}

/// Rebuilds the typed [`SweepCell`]s of one sweep from wire results.
fn build_cells(
    cells: &[GridCell],
    results: &HashMap<u64, String>,
) -> Result<Vec<SweepCell>, String> {
    cells
        .iter()
        .map(|task| {
            let json = results
                .get(&task.key)
                .ok_or_else(|| format!("cell {:?} has no result", task.cell))?;
            let mut parsed: Vec<ExperimentResult> =
                serde_json::from_str(json).map_err(|e| format!("cannot parse cell result: {e}"))?;
            if parsed.len() != 1 {
                return Err(format!(
                    "cell {:?} returned {} results, expected 1",
                    task.cell,
                    parsed.len()
                ));
            }
            Ok(cell_from_result(
                task.cell.clone(),
                &task.config,
                &task.case,
                &parsed.remove(0),
            ))
        })
        .collect()
}

/// Runs `grid` through the serve node behind `transport` and merges the
/// cells into a [`SweepReport`] bit-identical to
/// [`ahn_core::run_sweep`]. `journal_path` enables checkpoint/resume.
///
/// When `trace` is set the coordinator emits a `submit` event per cell
/// submission and a `merge` event per checkpoint, so the coordinator's
/// view joins with the server's and the workers' via the shared
/// key-derived trace id. The report stays bit-identical — tracing never
/// touches the fold.
pub fn run_sweep_via(
    transport: &mut dyn Transport,
    grid: &SweepGrid,
    journal_path: Option<&Path>,
    poll_ms: u64,
    trace: Option<&TraceLog>,
) -> Result<SweepReport, String> {
    grid.validate()?;
    let cells = grid_cells(grid)?;
    let refs: Vec<&GridCell> = cells.iter().collect();
    let results = execute_cells(transport, &refs, journal_path, poll_ms, trace)?;
    merge_sweep(grid, &build_cells(&cells, &results)?)
}

/// Runs `grid` through the serve node behind `transport` and scores the
/// merged per-candidate sweeps into a [`CalibrationReport`] — Pareto
/// front included — bit-identical to [`ahn_core::run_calibration`].
/// `journal_path` enables checkpoint/resume; `trace` works as in
/// [`run_sweep_via`].
pub fn run_calibration_via(
    transport: &mut dyn Transport,
    grid: &CalibrationGrid,
    journal_path: Option<&Path>,
    poll_ms: u64,
    trace: Option<&TraceLog>,
) -> Result<CalibrationReport, String> {
    grid.validate()?;
    let mut sweeps = Vec::new();
    for candidate in grid.candidates() {
        let sweep = grid.sweep_for(&candidate)?;
        let cells = grid_cells(&sweep)?;
        sweeps.push((sweep, cells));
    }
    let refs: Vec<&GridCell> = sweeps.iter().flat_map(|(_, cells)| cells).collect();
    let results = execute_cells(transport, &refs, journal_path, poll_ms, trace)?;
    let mut merged = Vec::with_capacity(sweeps.len());
    for (sweep, cells) in &sweeps {
        merged.push(merge_sweep(sweep, &build_cells(cells, &results)?)?);
    }
    score_calibration(grid, &merged)
}
