//! The job table: bounded admission, explicit state machine, capped
//! retry, cooperative cancellation.
//!
//! State machine (DESIGN.md §18):
//!
//! ```text
//! submit ──▶ queued ──take_next──▶ running ──▶ done
//!              │                     │  │
//!              │ cancel              │  └──panic, attempts < max──▶ queued
//!              ▼                     ▼
//!           cancelled ◀──cancel──  (token observed)     └──else──▶ failed
//! ```
//!
//! Cancellation is two-phase: a *queued* job flips straight to the
//! terminal `cancelled` state (take_next skips it); a *running* job only
//! gets its [`CancelToken`] fired — the worker observes the token inside
//! the measurement loop and reports back, so the table never lies about
//! a job that is actually still executing.

use crate::cache::CacheEntry;
use manet_experiments::harness::CancelToken;
use manet_experiments::spec::ScenarioSpec;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Monotonic job identifier (also the submission order).
pub type JobId = u64;

/// Retained-job table cap: once exceeded, the oldest *terminal* jobs are
/// evicted so an immortal server's table stays bounded. Live (queued or
/// running) jobs are never evicted.
pub const JOBS_CAP: usize = 1024;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished with a result (possibly straight from the cache).
    Done,
    /// Exhausted its attempts or hit an invalid-spec error.
    Failed,
    /// Cancelled before producing a result.
    Cancelled,
}

impl JobStatus {
    /// The wire name served by `GET /jobs/:id`.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }

    /// Whether the status is final (no further transitions).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Failed | JobStatus::Cancelled
        )
    }
}

/// One submitted job and everything the HTTP layer reports about it.
#[derive(Debug, Clone)]
pub struct Job {
    /// Identifier (assigned at submit, monotonically increasing).
    pub id: JobId,
    /// The parsed, validated spec.
    pub spec: ScenarioSpec,
    /// The spec's canonical serialized form — the cache key.
    pub canonical: String,
    /// Lifecycle state.
    pub status: JobStatus,
    /// Execution attempts so far (a panic retry increments this).
    pub attempts: u32,
    /// Whether the result came from the cache without running anything.
    pub cache_hit: bool,
    /// Terminal error description (`failed` only).
    pub error: Option<String>,
    /// The result document (`done` only) — exact bytes, shared with the
    /// cache so a hit serves the original run's bytes.
    pub result: Option<Arc<str>>,
    /// Captured JSONL trace, when the spec asked for one.
    pub trace: Option<Arc<str>>,
    /// Cooperative cancellation handle the executing worker polls.
    pub cancel: CancelToken,
    /// When the job last entered the pending queue (submit, or a panic
    /// retry): the start of its queue wait.
    pub queued_at: Instant,
}

/// Monotonic counters the `/metrics` endpoint exports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueMetrics {
    /// Jobs admitted (including cache hits).
    pub submitted: u64,
    /// Submissions bounced off the full queue.
    pub rejected: u64,
    /// Jobs that reached `done` by running (cache hits not included).
    pub completed: u64,
    /// Jobs that reached `failed`.
    pub failed: u64,
    /// Jobs that reached `cancelled`.
    pub cancelled: u64,
    /// Panic retries (re-enqueues).
    pub retries: u64,
}

/// What `submit` decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Admitted; a worker will pick it up.
    Queued(JobId),
    /// Served from the cache: the job is already `done`.
    CacheHit(JobId),
    /// The pending queue is at capacity — backpressure, try later.
    Full,
}

/// What `cancel` did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// No such job.
    Unknown,
    /// Was queued; now terminally cancelled.
    Cancelled,
    /// Is running; its token fired, the worker will confirm.
    Signalled,
    /// Already terminal; nothing to do.
    AlreadyTerminal,
}

/// The job table plus the bounded pending FIFO. Not internally
/// synchronized — the server wraps it in its state mutex.
#[derive(Debug)]
pub struct JobQueue {
    jobs: BTreeMap<JobId, Job>,
    pending: VecDeque<JobId>,
    next_id: JobId,
    queue_cap: usize,
    max_attempts: u32,
    /// Monotonic counters for `/metrics`.
    pub metrics: QueueMetrics,
}

impl JobQueue {
    /// An empty table admitting at most `queue_cap` pending jobs and
    /// giving each job `max_attempts` executions before `failed`.
    pub fn new(queue_cap: usize, max_attempts: u32) -> JobQueue {
        JobQueue {
            jobs: BTreeMap::new(),
            pending: VecDeque::new(),
            next_id: 1,
            queue_cap: queue_cap.max(1),
            max_attempts: max_attempts.max(1),
            metrics: QueueMetrics::default(),
        }
    }

    /// Admits `spec`, unless `cached` short-circuits it to `done` or the
    /// pending queue is full.
    pub fn submit(
        &mut self,
        spec: ScenarioSpec,
        canonical: String,
        cached: Option<CacheEntry>,
    ) -> SubmitOutcome {
        if cached.is_none() && self.queue_depth() >= self.queue_cap {
            self.metrics.rejected += 1;
            return SubmitOutcome::Full;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.metrics.submitted += 1;
        let hit = cached.is_some();
        let (status, result, trace) = match cached {
            Some(entry) => (JobStatus::Done, Some(entry.result), entry.trace),
            None => (JobStatus::Queued, None, None),
        };
        self.insert_job(Job {
            id,
            spec,
            canonical,
            status,
            attempts: 0,
            cache_hit: hit,
            error: None,
            result,
            trace,
            cancel: CancelToken::new(),
            queued_at: Instant::now(),
        });
        if hit {
            SubmitOutcome::CacheHit(id)
        } else {
            self.pending.push_back(id);
            SubmitOutcome::Queued(id)
        }
    }

    fn insert_job(&mut self, job: Job) {
        self.jobs.insert(job.id, job);
        if self.jobs.len() > JOBS_CAP {
            let stale: Vec<JobId> = self
                .jobs
                .values()
                .filter(|j| j.status.is_terminal())
                .map(|j| j.id)
                .take(self.jobs.len() - JOBS_CAP)
                .collect();
            for id in stale {
                self.jobs.remove(&id);
            }
        }
    }

    /// Pops the next runnable job, marking it `running` and handing the
    /// worker its spec, its cancel token and how long it waited in the
    /// queue. Skips jobs cancelled while queued.
    pub fn take_next(&mut self) -> Option<(JobId, ScenarioSpec, CancelToken, Duration)> {
        while let Some(id) = self.pending.pop_front() {
            let Some(job) = self.jobs.get_mut(&id) else {
                continue;
            };
            if job.status != JobStatus::Queued {
                continue;
            }
            job.status = JobStatus::Running;
            job.attempts += 1;
            let waited = job.queued_at.elapsed();
            return Some((id, job.spec.clone(), job.cancel.clone(), waited));
        }
        None
    }

    /// Worker report: the job finished with `result` (and maybe a trace).
    pub fn complete(&mut self, id: JobId, result: Arc<str>, trace: Option<Arc<str>>) {
        if let Some(job) = self.jobs.get_mut(&id) {
            if job.status == JobStatus::Running {
                job.status = JobStatus::Done;
                job.result = Some(result);
                job.trace = trace;
                self.metrics.completed += 1;
            }
        }
    }

    /// Worker report: the job failed terminally (invalid spec, or a
    /// panic with attempts exhausted).
    pub fn fail(&mut self, id: JobId, error: String) {
        if let Some(job) = self.jobs.get_mut(&id) {
            if !job.status.is_terminal() {
                job.status = JobStatus::Failed;
                job.error = Some(error);
                self.metrics.failed += 1;
            }
        }
    }

    /// Worker report: the job observed its cancel token and bailed.
    pub fn mark_cancelled(&mut self, id: JobId) {
        if let Some(job) = self.jobs.get_mut(&id) {
            if !job.status.is_terminal() {
                job.status = JobStatus::Cancelled;
                self.metrics.cancelled += 1;
            }
        }
    }

    /// Worker report: the runner panicked. Re-enqueues when attempts
    /// remain (returns `true` — the caller should wake a worker),
    /// otherwise fails the job with the panic message.
    pub fn retry_or_fail(&mut self, id: JobId, error: String) -> bool {
        let Some(job) = self.jobs.get_mut(&id) else {
            return false;
        };
        if job.status == JobStatus::Running && job.attempts < self.max_attempts {
            job.status = JobStatus::Queued;
            job.queued_at = Instant::now();
            self.metrics.retries += 1;
            self.pending.push_back(id);
            true
        } else {
            self.fail(id, format!("panicked: {error}"));
            false
        }
    }

    /// Client request: cancel `id`. Queued jobs die immediately; running
    /// jobs get their token fired and stay `running` until the worker
    /// confirms.
    pub fn cancel(&mut self, id: JobId) -> CancelOutcome {
        let Some(job) = self.jobs.get_mut(&id) else {
            return CancelOutcome::Unknown;
        };
        match job.status {
            JobStatus::Queued => {
                job.status = JobStatus::Cancelled;
                job.cancel.cancel();
                self.metrics.cancelled += 1;
                CancelOutcome::Cancelled
            }
            JobStatus::Running => {
                job.cancel.cancel();
                CancelOutcome::Signalled
            }
            _ => CancelOutcome::AlreadyTerminal,
        }
    }

    /// Fires every live job's cancel token (server shutdown).
    pub fn cancel_all(&mut self) {
        let live: Vec<JobId> = self
            .jobs
            .values()
            .filter(|j| !j.status.is_terminal())
            .map(|j| j.id)
            .collect();
        for id in live {
            self.cancel(id);
        }
    }

    /// The job record, if retained.
    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// How many jobs are admitted but not yet picked up.
    pub fn queue_depth(&self) -> usize {
        self.jobs
            .values()
            .filter(|j| j.status == JobStatus::Queued)
            .count()
    }

    /// Total retained jobs (bounded by [`JOBS_CAP`]).
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_experiments::spec::{ScenarioSpec, SpecKind};

    fn spec() -> ScenarioSpec {
        ScenarioSpec::preset(SpecKind::Single)
    }

    fn submit(q: &mut JobQueue) -> JobId {
        let s = spec();
        let key = s.canonical();
        match q.submit(s, key, None) {
            SubmitOutcome::Queued(id) => id,
            other => panic!("expected admission, got {other:?}"),
        }
    }

    #[test]
    fn lifecycle_queued_running_done() {
        let mut q = JobQueue::new(4, 2);
        let id = submit(&mut q);
        assert_eq!(q.job(id).unwrap().status, JobStatus::Queued);
        assert_eq!(q.queue_depth(), 1);
        let (taken, ..) = q.take_next().expect("one pending job");
        assert_eq!(taken, id);
        assert_eq!(q.job(id).unwrap().status, JobStatus::Running);
        assert_eq!(q.job(id).unwrap().attempts, 1);
        assert_eq!(q.queue_depth(), 0);
        q.complete(id, "r".into(), None);
        let job = q.job(id).unwrap();
        assert_eq!(job.status, JobStatus::Done);
        assert_eq!(job.result.as_deref(), Some("r"));
        assert_eq!(q.metrics.completed, 1);
    }

    #[test]
    fn full_queue_rejects_but_cache_hits_bypass_the_cap() {
        let mut q = JobQueue::new(2, 1);
        submit(&mut q);
        submit(&mut q);
        let s = spec();
        let key = s.canonical();
        assert_eq!(q.submit(s.clone(), key.clone(), None), SubmitOutcome::Full);
        assert_eq!(q.metrics.rejected, 1);
        // A cache hit consumes no queue slot, so it is admitted anyway.
        let entry = CacheEntry {
            result: "cached".into(),
            trace: None,
        };
        let SubmitOutcome::CacheHit(id) = q.submit(s, key, Some(entry)) else {
            panic!("cache hit admitted past a full queue");
        };
        let job = q.job(id).unwrap();
        assert_eq!(job.status, JobStatus::Done);
        assert!(job.cache_hit);
        assert_eq!(job.result.as_deref(), Some("cached"));
    }

    #[test]
    fn cancel_queued_is_immediate_and_skipped_by_take_next() {
        let mut q = JobQueue::new(4, 2);
        let a = submit(&mut q);
        let b = submit(&mut q);
        assert_eq!(q.cancel(a), CancelOutcome::Cancelled);
        assert_eq!(q.job(a).unwrap().status, JobStatus::Cancelled);
        let (taken, ..) = q.take_next().expect("b still runnable");
        assert_eq!(taken, b);
        assert_eq!(q.cancel(a), CancelOutcome::AlreadyTerminal);
        assert_eq!(q.cancel(999), CancelOutcome::Unknown);
    }

    #[test]
    fn cancel_running_fires_the_token_and_waits_for_the_worker() {
        let mut q = JobQueue::new(4, 2);
        let id = submit(&mut q);
        let (_, _, token, _) = q.take_next().unwrap();
        assert!(!token.is_cancelled());
        assert_eq!(q.cancel(id), CancelOutcome::Signalled);
        assert!(token.is_cancelled());
        // Still running until the worker observes the token...
        assert_eq!(q.job(id).unwrap().status, JobStatus::Running);
        q.mark_cancelled(id);
        assert_eq!(q.job(id).unwrap().status, JobStatus::Cancelled);
        assert_eq!(q.metrics.cancelled, 1);
    }

    #[test]
    fn panic_retries_until_attempts_exhaust() {
        let mut q = JobQueue::new(4, 2);
        let id = submit(&mut q);
        let _ = q.take_next().unwrap();
        assert!(q.retry_or_fail(id, "boom".into()));
        assert_eq!(q.job(id).unwrap().status, JobStatus::Queued);
        assert_eq!(q.metrics.retries, 1);
        let (again, ..) = q.take_next().unwrap();
        assert_eq!(again, id);
        assert_eq!(q.job(id).unwrap().attempts, 2);
        assert!(!q.retry_or_fail(id, "boom".into()));
        let job = q.job(id).unwrap();
        assert_eq!(job.status, JobStatus::Failed);
        assert!(job.error.as_deref().unwrap().contains("boom"));
        assert_eq!(q.metrics.failed, 1);
    }

    #[test]
    fn terminal_jobs_evict_once_the_table_cap_is_hit() {
        let mut q = JobQueue::new(JOBS_CAP + 10, 1);
        let first = submit(&mut q);
        let _ = q.take_next().unwrap();
        q.complete(first, "r".into(), None);
        for _ in 0..JOBS_CAP {
            submit(&mut q);
        }
        assert!(q.len() <= JOBS_CAP);
        // The completed first job was the eviction victim; live jobs stay.
        assert!(q.job(first).is_none());
        assert_eq!(q.queue_depth(), JOBS_CAP);
    }
}
