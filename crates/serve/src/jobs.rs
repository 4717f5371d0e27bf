//! Job storage and execution: the one [`JobStore`] every consumer
//! takes jobs from, and the single place server-side compute happens.
//!
//! Submissions that miss the result cache become [`QueuedJob`]s in a
//! bounded FIFO. Every consumer holds a lease on the job it runs:
//!
//! * in-process workers block in [`JobStore::claim_blocking`] on the
//!   store's condvar. Their leases carry no deadline: the worker lives
//!   in this process, so its lease can only end in a settlement;
//! * pull workers lease cells via [`JobStore::claim`] (the
//!   `/v1/work/*` endpoints). A claim carries a deadline; when it
//!   passes without a completion the job is requeued at the *front* of
//!   the queue by the next [`JobStore::sweep_expired`] call, so a
//!   crashed worker can never strand a cell.
//!
//! Either way the lease is released with [`JobStore::complete_lease`]
//! once the job is settled, so [`JobStore::outstanding`] counts every
//! job a draining node must wait for.
//!
//! Lease expiry is swept lazily from request handlers — never from a
//! background thread — so an idle serve node does exactly zero work.
//! Each sweep is bounded by the number of outstanding leases, which is
//! itself bounded by the number of claims granted.
//!
//! Backpressure is explicit: when the queue is full, [`JobStore::try_push`]
//! fails and the server answers 503 instead of buffering unbounded work.
//! Requeues of expired leases are exempt (the job was already admitted).
//!
//! With a journal ([`JobStore::open`]) every completion is appended as
//! one checksummed line; on open the journal is replayed (torn trailing
//! writes discarded) and the recovered records are handed back so the
//! server can warm its result cache — a restarted node resumes without
//! recomputing finished cells.

use crate::journal::{Journal, Record};
use crate::protocol::JobSpec;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the queue.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; the result is in the job table (and the cache).
    Done,
    /// Finished with an error.
    Failed,
}

impl JobStatus {
    /// Wire name of the status.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }
}

/// One queued unit of work.
#[derive(Debug, Clone)]
pub struct QueuedJob {
    /// Server-assigned id.
    pub id: u64,
    /// Result-cache key of the resolved spec.
    pub key: u64,
    /// The resolved (non-preset) spec to run.
    pub spec: JobSpec,
    /// When the job entered the queue, so the consumer that claims it
    /// can sample the `queue_wait_us` histogram. Requeued leases keep
    /// the original enqueue time — the cell really did wait that long.
    pub enqueued_at: Instant,
}

/// Error returned when the queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

/// A job handed to a worker under a lease.
#[derive(Debug, Clone)]
pub struct LeasedJob {
    /// Store-assigned lease id; quote it back when settling.
    pub lease_id: u64,
    /// The leased job.
    pub job: QueuedJob,
}

/// An expiring lease keeps a copy of its job to requeue. A local lease
/// (`None` in the lease table) never expires, so it keeps nothing.
struct Lease {
    deadline: Instant,
    job: QueuedJob,
}

struct StoreInner {
    jobs: VecDeque<QueuedJob>,
    leases: HashMap<u64, Option<Lease>>,
    next_lease_id: u64,
    open: bool,
}

/// The job store: a bounded multi-producer multi-consumer FIFO, a lease
/// table covering every job a worker holds, and an optional durable
/// completion journal. Safe to share across the accept loop, the
/// in-process workers and every connection thread.
pub struct JobStore {
    inner: Mutex<StoreInner>,
    ready: Condvar,
    capacity: usize,
    journal: Option<Mutex<Journal>>,
}

impl JobStore {
    /// Creates an in-memory store queueing at most `capacity` waiting
    /// jobs.
    pub fn new(capacity: usize) -> JobStore {
        JobStore {
            inner: Mutex::new(StoreInner {
                jobs: VecDeque::with_capacity(capacity.min(1024)),
                leases: HashMap::new(),
                next_lease_id: 1,
                open: true,
            }),
            ready: Condvar::new(),
            capacity,
            journal: None,
        }
    }

    /// Opens a journal-backed store, replaying any existing journal at
    /// `path`; returns the store and the completions recovered from it.
    pub fn open(capacity: usize, path: &Path) -> std::io::Result<(JobStore, Vec<Record>)> {
        let recovered = crate::journal::replay(path)?.records;
        let store = JobStore {
            journal: Some(Mutex::new(Journal::open(path)?)),
            ..JobStore::new(capacity)
        };
        Ok((store, recovered))
    }

    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().expect("store lock")
    }

    /// Enqueues a job, failing when the queue is full or closed.
    pub fn try_push(&self, job: QueuedJob) -> Result<(), QueueFull> {
        let mut inner = self.lock();
        if !inner.open || inner.jobs.len() >= self.capacity {
            return Err(QueueFull);
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Leases the front of the queue until `deadline` (`None`: a local
    /// lease that never expires).
    fn lease_front(inner: &mut StoreInner, deadline: Option<Instant>) -> Option<LeasedJob> {
        let job = inner.jobs.pop_front()?;
        let lease_id = inner.next_lease_id;
        inner.next_lease_id += 1;
        let lease = deadline.map(|deadline| Lease {
            deadline,
            job: job.clone(),
        });
        inner.leases.insert(lease_id, lease);
        Some(LeasedJob { lease_id, job })
    }

    /// Non-blocking claim for a pull worker: the job must be settled
    /// via [`JobStore::complete_lease`] before `lease` elapses or it is
    /// requeued by the next sweep. Returns `None` when the queue is
    /// empty.
    pub fn claim(&self, lease: Duration) -> Option<LeasedJob> {
        Self::lease_front(&mut self.lock(), Some(Instant::now() + lease))
    }

    /// Blocking claim for an in-process worker: waits on the store's
    /// condvar until a job is available and leases it with no deadline.
    /// Returns `None` once the store is closed and drained (worker
    /// shutdown signal).
    pub fn claim_blocking(&self) -> Option<LeasedJob> {
        let mut inner = self.lock();
        loop {
            if let Some(leased) = Self::lease_front(&mut inner, None) {
                return Some(leased);
            }
            if !inner.open {
                return None;
            }
            inner = self.ready.wait(inner).expect("store lock");
        }
    }

    /// Releases a lease (its job was settled). Returns `false` when the
    /// lease is unknown — typically already expired and requeued; the
    /// *result* may still be usable, only the lease bookkeeping is gone.
    pub fn complete_lease(&self, lease_id: u64) -> bool {
        self.lock().leases.remove(&lease_id).is_some()
    }

    /// Requeues every expired lease (at the front of the queue) and
    /// returns how many were requeued, waking a blocked worker per
    /// requeue. Called lazily from request handlers; cost is bounded by
    /// the number of outstanding leases.
    pub fn sweep_expired(&self) -> usize {
        let mut inner = self.lock();
        let now = Instant::now();
        let expired: Vec<u64> = inner
            .leases
            .iter()
            .filter(|(_, lease)| lease.as_ref().is_some_and(|l| l.deadline <= now))
            .map(|(&id, _)| id)
            .collect();
        for id in &expired {
            if let Some(Some(lease)) = inner.leases.remove(id) {
                inner.jobs.push_front(lease.job);
            }
        }
        drop(inner);
        for _ in &expired {
            self.ready.notify_one();
        }
        expired.len()
    }

    /// Records a completed result durably: one flushed, checksummed
    /// journal line, or nothing for an in-memory store.
    pub fn record_completion(&self, key: u64, result: &str) {
        // A full disk must not take the serving path down: the journal
        // is an optimization (resume without recompute), not a
        // correctness requirement, so append errors degrade to
        // in-memory behavior.
        if let Some(journal) = &self.journal {
            let _ = journal.lock().expect("journal lock").append(key, result);
        }
    }

    /// Closes the store: pending jobs still drain, new pushes fail, and
    /// blocked workers wake up to exit.
    pub fn close(&self) {
        self.lock().open = false;
        self.ready.notify_all();
    }

    /// Jobs currently waiting (excludes leased jobs).
    pub fn depth(&self) -> usize {
        self.lock().jobs.len()
    }

    /// Leases currently outstanding, local and external.
    pub fn leased(&self) -> usize {
        self.lock().leases.len()
    }

    /// Queued plus leased jobs — the work a draining node must see
    /// settled (or give up on at its drain deadline) before it can
    /// stop.
    pub fn outstanding(&self) -> usize {
        let inner = self.lock();
        inner.jobs.len() + inner.leases.len()
    }
}

/// Runs a resolved job to completion, returning the serialized result
/// JSON. This is the only place server-side compute happens; everything
/// around it is bookkeeping.
///
/// Panics inside the simulation (validation holes, internal asserts)
/// are caught and reported as job failures — a poisoned spec must never
/// take a worker thread down with it.
pub fn run_job(spec: &JobSpec) -> Result<String, String> {
    let spec = std::panic::AssertUnwindSafe(spec);
    match std::panic::catch_unwind(|| run_job_inner(*spec)) {
        Ok(outcome) => outcome,
        Err(panic) => {
            let reason = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(format!("job panicked: {reason}"))
        }
    }
}

fn run_job_inner(spec: &JobSpec) -> Result<String, String> {
    match spec {
        JobSpec::Experiment { config, cases } => {
            let results: Vec<ahn_core::ExperimentResult> = cases
                .iter()
                .map(|case| ahn_core::run_experiment(config, case))
                .collect();
            serde_json::to_string(&results).map_err(|e| format!("cannot serialize result: {e}"))
        }
        JobSpec::Ipdrp { config, seed } => {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(*seed);
            let history = ahn_ipdrp::run_ipdrp(&mut rng, config);
            serde_json::to_string(&history).map_err(|e| format!("cannot serialize result: {e}"))
        }
        JobSpec::Preset { name } => Err(format!("unresolved preset {name:?} reached a worker")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::presets;
    use std::sync::Arc;

    fn job(id: u64) -> QueuedJob {
        QueuedJob {
            id,
            key: id,
            spec: JobSpec::Preset { name: "x".into() },
            enqueued_at: Instant::now(),
        }
    }

    #[test]
    fn push_pop_fifo() {
        let q = JobStore::new(4);
        q.try_push(job(1)).unwrap();
        q.try_push(job(2)).unwrap();
        assert_eq!(q.depth(), 2);
        assert_eq!(q.claim_blocking().unwrap().job.id, 1);
        assert_eq!(q.claim_blocking().unwrap().job.id, 2);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn full_queue_rejects() {
        let q = JobStore::new(1);
        q.try_push(job(1)).unwrap();
        assert_eq!(q.try_push(job(2)), Err(QueueFull));
        let _ = q.claim_blocking();
        q.try_push(job(3)).unwrap();
    }

    #[test]
    fn close_drains_then_stops() {
        let q = JobStore::new(4);
        q.try_push(job(1)).unwrap();
        q.close();
        assert_eq!(q.try_push(job(2)), Err(QueueFull));
        assert_eq!(q.claim_blocking().unwrap().job.id, 1);
        assert!(q.claim_blocking().is_none());
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let q = Arc::new(JobStore::new(1));
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || q2.claim_blocking());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(waiter.join().unwrap().is_none());
    }

    #[test]
    fn claim_then_complete_settles_the_lease() {
        let q = JobStore::new(4);
        q.try_push(job(1)).unwrap();
        let leased = q.claim(Duration::from_secs(60)).unwrap();
        assert_eq!(leased.job.id, 1);
        assert_eq!((q.depth(), q.leased()), (0, 1));
        assert!(q.complete_lease(leased.lease_id));
        assert!(
            !q.complete_lease(leased.lease_id),
            "second settle is a no-op"
        );
        assert_eq!((q.depth(), q.leased()), (0, 0));
        // Nothing left to claim, and sweeping an empty table is free.
        assert!(q.claim(Duration::from_secs(60)).is_none());
        assert_eq!(q.sweep_expired(), 0);
    }

    #[test]
    fn expired_lease_requeues_at_the_front() {
        let q = JobStore::new(4);
        q.try_push(job(1)).unwrap();
        q.try_push(job(2)).unwrap();
        let leased = q.claim(Duration::from_millis(0)).unwrap();
        assert_eq!(leased.job.id, 1);
        // Deadline already passed; the sweep puts #1 ahead of #2.
        assert_eq!(q.sweep_expired(), 1);
        assert_eq!(q.leased(), 0);
        assert_eq!(q.claim(Duration::from_secs(60)).unwrap().job.id, 1);
        // A completion for the dead lease reports unknown but is harmless.
        assert!(!q.complete_lease(leased.lease_id));
    }

    #[test]
    fn unexpired_leases_survive_the_sweep() {
        let q = JobStore::new(4);
        q.try_push(job(1)).unwrap();
        let leased = q.claim(Duration::from_secs(60)).unwrap();
        assert_eq!(q.sweep_expired(), 0);
        assert_eq!((q.depth(), q.leased()), (0, 1));
        assert!(q.complete_lease(leased.lease_id));
    }

    #[test]
    fn expired_requeue_wakes_a_blocked_worker() {
        let q = Arc::new(JobStore::new(4));
        q.try_push(job(7)).unwrap();
        let _leased = q.claim(Duration::from_millis(0)).unwrap();
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || q2.claim_blocking());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.sweep_expired(), 1);
        assert_eq!(waiter.join().unwrap().unwrap().job.id, 7);
    }

    #[test]
    fn local_leases_never_expire_and_count_as_outstanding() {
        let q = JobStore::new(4);
        q.try_push(job(1)).unwrap();
        q.try_push(job(2)).unwrap();
        let local = q.claim_blocking().unwrap();
        let external = q.claim(Duration::from_millis(0)).unwrap();
        assert_eq!((q.depth(), q.leased(), q.outstanding()), (0, 2, 2));
        // Only the external lease has a deadline to miss.
        assert_eq!(q.sweep_expired(), 1);
        assert_eq!(
            q.claim(Duration::from_secs(60)).unwrap().job.id,
            external.job.id
        );
        assert!(q.complete_lease(local.lease_id));
        assert!(!q.complete_lease(external.lease_id));
        assert_eq!((q.depth(), q.outstanding()), (0, 1));
    }

    #[test]
    fn journal_store_records_survive_reopen() {
        let mut path = std::env::temp_dir();
        path.push(format!("ahn-jobstore-test-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let (store, recovered) = JobStore::open(4, &path).unwrap();
        assert!(recovered.is_empty());
        store.record_completion(11, "\"one\"");
        store.record_completion(22, "\"two\"");
        store.record_completion(11, "\"one-retry\"");
        drop(store);

        let (store, recovered) = JobStore::open(4, &path).unwrap();
        let recovered: Vec<(u64, &str)> = recovered
            .iter()
            .map(|r| (r.key, r.result.as_str()))
            .collect();
        // First completion wins; append order preserved.
        assert_eq!(recovered, vec![(11, "\"one\""), (22, "\"two\"")]);
        // Queue/lease semantics are the in-memory store's.
        store.try_push(job(1)).unwrap();
        let leased = store.claim(Duration::from_secs(60)).unwrap();
        assert!(store.complete_lease(leased.lease_id));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_job_executes_every_preset() {
        for preset in presets() {
            let json = run_job(&preset.body).unwrap();
            let value: serde_json::Value = serde_json::from_str(&json).unwrap();
            assert!(
                matches!(value, serde_json::Value::Seq(ref items) if !items.is_empty()),
                "{}: result should be a non-empty array",
                preset.name
            );
        }
    }

    #[test]
    fn run_job_is_deterministic() {
        let spec = presets()[2].body.clone(); // ipdrp: cheapest
        assert_eq!(run_job(&spec).unwrap(), run_job(&spec).unwrap());
    }

    #[test]
    fn unresolved_preset_fails() {
        assert!(run_job(&JobSpec::Preset { name: "x".into() }).is_err());
    }

    #[test]
    fn panicking_job_becomes_a_failure_not_a_dead_worker() {
        // A spec that dodges validation and trips an internal assert
        // (no environments) must come back as Err, so the worker thread
        // survives and the job is marked failed instead of wedging.
        let case: ahn_core::CaseSpec =
            serde_json::from_str("{\"name\":\"empty\",\"envs\":[],\"mode\":\"Shorter\"}").unwrap();
        let spec = JobSpec::Experiment {
            config: ahn_core::ExperimentConfig::smoke(),
            cases: vec![case],
        };
        let err = run_job(&spec).unwrap_err();
        assert!(err.contains("job panicked"), "{err}");
    }
}
