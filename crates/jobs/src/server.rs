//! The job server: fixed worker pool, shared state, panic containment.
//!
//! Workers execute specs **in-process** through
//! [`run_scenario_with_trace`] — no
//! subprocess per job — under `catch_unwind`, so a panicking scenario
//! costs one retry (then a terminal `failed`), never a wedged pool. All
//! coordination is one `Mutex<State>` + `Condvar`: workers sleep on the
//! condvar when the queue is empty, submitters wake exactly one, and no
//! lock is held while a scenario runs (the hot path touches the mutex
//! only to pop and to report back).

use crate::cache::{CacheEntry, ResultCache};
use crate::http::route;
use crate::queue::{CancelOutcome, JobId, JobQueue, JobStatus, SubmitOutcome};
use manet_experiments::harness::CancelToken;
use manet_experiments::spec::{result_json, run_scenario_with_trace, RunError, ScenarioSpec};
use manet_telemetry::{escape_label_value, write_histogram, Histogram, HttpListener};
use manet_util::json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pool and capacity knobs for a [`JobServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobServerConfig {
    /// Worker threads executing scenarios.
    pub workers: usize,
    /// Pending-queue admission cap (backpressure beyond it).
    pub queue_cap: usize,
    /// Result-cache entry cap.
    pub cache_cap: usize,
    /// Executions per job before a panic becomes terminal `failed`.
    pub max_attempts: u32,
}

impl Default for JobServerConfig {
    fn default() -> Self {
        JobServerConfig {
            workers: 2,
            queue_cap: 64,
            cache_cap: 256,
            max_attempts: 2,
        }
    }
}

/// What a runner hands back for a finished job.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// The result document (canonical JSON, the bytes that get cached).
    pub result: String,
    /// Captured JSONL trace, when the spec asked for one.
    pub trace: Option<String>,
}

/// The function a worker applies to a spec. Injectable so tests can
/// substitute panicking, blocking, or counting runners; production uses
/// [`default_runner`].
pub type JobRunner =
    Arc<dyn Fn(&ScenarioSpec, &CancelToken) -> Result<JobOutput, RunError> + Send + Sync>;

/// The production runner: [`run_scenario_with_trace`] into
/// [`result_json`] bytes, plus the in-memory JSONL trace of the spec's
/// base scenario when `spec.trace` asks for one (captured on the
/// measurement's own first run when the trace is that run).
pub fn default_runner() -> JobRunner {
    Arc::new(|spec, cancel| {
        let (output, trace) = run_scenario_with_trace(spec, Some(cancel))?;
        let result = result_json(spec, &output).to_string();
        Ok(JobOutput { result, trace })
    })
}

/// Mutex-protected server state: the job table and the result cache
/// move together so a submit can consult the cache and admit atomically.
pub(crate) struct State {
    pub(crate) queue: JobQueue,
    pub(crate) cache: ResultCache,
    /// Per-(kind, trace) timings of every execution reported back.
    times: BTreeMap<(&'static str, bool), JobTimes>,
}

/// How long the executions of one (kind, trace) class of jobs waited in
/// the queue and ran, for the `/metrics` histograms.
#[derive(Debug, Clone, Copy, Default)]
struct JobTimes {
    wait: Histogram,
    run: Histogram,
}

/// Everything workers and the HTTP layer share.
pub(crate) struct Shared {
    state: Mutex<State>,
    work: Condvar,
    stop: AtomicBool,
    active: AtomicUsize,
    workers: usize,
    runner: JobRunner,
}

/// A point-in-time copy of one job's externally visible fields.
pub(crate) struct JobView {
    pub(crate) id: JobId,
    pub(crate) status: JobStatus,
    pub(crate) attempts: u32,
    pub(crate) cache_hit: bool,
    pub(crate) error: Option<String>,
    pub(crate) result: Option<Arc<str>>,
    pub(crate) trace: Option<Arc<str>>,
}

impl JobView {
    /// The `GET /jobs/:id` status document.
    pub(crate) fn status_json(&self) -> String {
        let mut pairs: Vec<(String, Value)> = vec![
            ("id".into(), self.id.into()),
            ("status".into(), self.status.name().into()),
            ("attempts".into(), u64::from(self.attempts).into()),
            (
                "cache".into(),
                if self.cache_hit { "hit" } else { "miss" }.into(),
            ),
        ];
        if let Some(error) = &self.error {
            pairs.push(("error".into(), error.as_str().into()));
        }
        Value::Obj(pairs).to_string()
    }
}

impl Shared {
    fn new(config: JobServerConfig, runner: JobRunner) -> Shared {
        Shared {
            state: Mutex::new(State {
                queue: JobQueue::new(config.queue_cap, config.max_attempts),
                cache: ResultCache::new(config.cache_cap),
                times: BTreeMap::new(),
            }),
            work: Condvar::new(),
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            workers: config.workers.max(1),
            runner,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Atomic cache-lookup + admission; wakes one worker on admission.
    pub(crate) fn submit(&self, spec: ScenarioSpec) -> SubmitOutcome {
        let canonical = spec.canonical();
        let mut state = self.lock();
        let cached = state.cache.lookup(&canonical);
        let outcome = state.queue.submit(spec, canonical, cached);
        drop(state);
        if matches!(outcome, SubmitOutcome::Queued(_)) {
            self.work.notify_one();
        }
        outcome
    }

    /// Parses, validates, and submits a JSON spec body.
    pub(crate) fn submit_json(&self, body: &str) -> Result<SubmitOutcome, String> {
        Ok(self.submit(ScenarioSpec::from_json(body)?))
    }

    pub(crate) fn view(&self, id: JobId) -> Option<JobView> {
        let state = self.lock();
        state.queue.job(id).map(|job| JobView {
            id: job.id,
            status: job.status,
            attempts: job.attempts,
            cache_hit: job.cache_hit,
            error: job.error.clone(),
            result: job.result.clone(),
            trace: job.trace.clone(),
        })
    }

    pub(crate) fn cancel(&self, id: JobId) -> CancelOutcome {
        self.lock().queue.cancel(id)
    }

    /// The `/metrics` exposition: `manet_jobs_*` gauges, counters, and
    /// the run-time and queue-wait histograms per (kind, trace).
    pub(crate) fn metrics_text(&self) -> String {
        let state = self.lock();
        let metrics = state.queue.metrics;
        let times = state.times.clone();
        let gauges: [(&str, &str, u64); 5] = [
            (
                "manet_jobs_queue_depth",
                "Jobs admitted and waiting for a worker.",
                state.queue.queue_depth() as u64,
            ),
            (
                "manet_jobs_active",
                "Jobs currently executing.",
                self.active.load(Ordering::Relaxed) as u64,
            ),
            (
                "manet_jobs_workers",
                "Worker threads in the pool.",
                self.workers as u64,
            ),
            (
                "manet_jobs_jobs",
                "Job records currently retained.",
                state.queue.len() as u64,
            ),
            (
                "manet_jobs_cache_entries",
                "Result-cache entries currently retained.",
                state.cache.len() as u64,
            ),
        ];
        let counters: [(&str, &str, u64); 8] = [
            (
                "manet_jobs_submitted_total",
                "Jobs admitted, including cache hits.",
                metrics.submitted,
            ),
            (
                "manet_jobs_rejected_total",
                "Submissions bounced off the full queue.",
                metrics.rejected,
            ),
            (
                "manet_jobs_completed_total",
                "Jobs completed by running a scenario.",
                metrics.completed,
            ),
            (
                "manet_jobs_failed_total",
                "Jobs that failed terminally.",
                metrics.failed,
            ),
            (
                "manet_jobs_cancelled_total",
                "Jobs cancelled before completing.",
                metrics.cancelled,
            ),
            (
                "manet_jobs_retries_total",
                "Panic retries (re-enqueues).",
                metrics.retries,
            ),
            (
                "manet_jobs_cache_hits_total",
                "Submissions served from the result cache.",
                state.cache.hits(),
            ),
            (
                "manet_jobs_cache_misses_total",
                "Submissions that had to run.",
                state.cache.misses(),
            ),
        ];
        drop(state);
        let mut out = String::new();
        for (name, help, value) in gauges {
            family(&mut out, name, "gauge", help, value);
        }
        for (name, help, value) in counters {
            family(&mut out, name, "counter", help, value);
        }
        histogram_family(
            &mut out,
            "manet_jobs_run_seconds",
            "Seconds a worker ran a job, by kind and trace.",
            &times,
            |t| &t.run,
        );
        histogram_family(
            &mut out,
            "manet_jobs_queue_wait_seconds",
            "Seconds a job waited from submit (or panic retry) until a worker took it.",
            &times,
            |t| &t.wait,
        );
        out
    }

    /// The `/health` plain-text snapshot.
    pub(crate) fn health_text(&self) -> String {
        let state = self.lock();
        format!(
            "status ok\nworkers {}\nqueue_depth {}\nactive {}\njobs {}\ncache_entries {}\n",
            self.workers,
            state.queue.queue_depth(),
            self.active.load(Ordering::Relaxed),
            state.queue.len(),
            state.cache.len(),
        )
    }
}

fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// One histogram family with a series per (kind, trace) class run so far.
fn histogram_family(
    out: &mut String,
    name: &str,
    help: &str,
    times: &BTreeMap<(&'static str, bool), JobTimes>,
    hist: impl Fn(&JobTimes) -> &Histogram,
) {
    header(out, name, "histogram", help);
    for ((kind, trace), t) in times {
        let labels = format!("kind=\"{}\",trace=\"{trace}\"", escape_label_value(kind));
        write_histogram(out, name, &labels, hist(t));
    }
}

fn family(out: &mut String, name: &str, kind: &str, help: &str, value: u64) {
    header(out, name, kind, help);
    let _ = writeln!(out, "{name} {value}");
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let (id, spec, cancel, waited) = {
            let mut state = shared.lock();
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(next) = state.queue.take_next() {
                    break next;
                }
                state = shared.work.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        };
        shared.active.fetch_add(1, Ordering::SeqCst);
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| (shared.runner)(&spec, &cancel)));
        let ran = started.elapsed();
        shared.active.fetch_sub(1, Ordering::SeqCst);
        let mut state = shared.lock();
        let times = state
            .times
            .entry((spec.kind.name(), spec.trace))
            .or_default();
        times.wait.record(waited.as_secs_f64());
        times.run.record(ran.as_secs_f64());
        match outcome {
            Ok(Ok(output)) => {
                let result: Arc<str> = output.result.into();
                let trace: Option<Arc<str>> = output.trace.map(Into::into);
                if let Some(job) = state.queue.job(id) {
                    let key = job.canonical.clone();
                    state.cache.insert(
                        key,
                        CacheEntry {
                            result: result.clone(),
                            trace: trace.clone(),
                        },
                    );
                }
                state.queue.complete(id, result, trace);
            }
            Ok(Err(RunError::Cancelled)) => state.queue.mark_cancelled(id),
            Ok(Err(err @ RunError::Invalid(_))) => state.queue.fail(id, err.to_string()),
            Err(panic) => {
                if state.queue.retry_or_fail(id, panic_message(panic.as_ref())) {
                    drop(state);
                    shared.work.notify_one();
                }
            }
        }
    }
}

/// The scenario server: worker pool + shared state + optional HTTP
/// frontend. Dropping it shuts everything down (cancelling live jobs).
pub struct JobServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    http: Option<HttpListener>,
}

impl JobServer {
    /// A pool with an injectable runner (tests) and no HTTP frontend.
    pub fn with_runner(config: JobServerConfig, runner: JobRunner) -> JobServer {
        let shared = Arc::new(Shared::new(config, runner));
        let workers = (0..shared.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("manet-jobs-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        JobServer {
            shared,
            workers,
            http: None,
        }
    }

    /// A pool running real scenarios, no HTTP frontend.
    pub fn new(config: JobServerConfig) -> JobServer {
        JobServer::with_runner(config, default_runner())
    }

    /// Binds the HTTP frontend on `addr` (port 0 = ephemeral) over a
    /// real-scenario pool.
    ///
    /// # Errors
    ///
    /// Returns the bind error when `addr` is unavailable.
    pub fn serve(addr: &str, config: JobServerConfig) -> io::Result<JobServer> {
        JobServer::serve_with_runner(addr, config, default_runner())
    }

    /// [`JobServer::serve`] with an injectable runner — integration
    /// tests drive the full HTTP surface against controlled runners.
    ///
    /// # Errors
    ///
    /// Returns the bind error when `addr` is unavailable.
    pub fn serve_with_runner(
        addr: &str,
        config: JobServerConfig,
        runner: JobRunner,
    ) -> io::Result<JobServer> {
        let mut server = JobServer::with_runner(config, runner);
        let shared = Arc::clone(&server.shared);
        server.http = Some(HttpListener::serve(addr, move |request| {
            route(&shared, request)
        })?);
        Ok(server)
    }

    /// The HTTP frontend's bound address, when one is serving.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.http.as_ref().map(HttpListener::local_addr)
    }

    /// Submits a parsed spec.
    pub fn submit(&self, spec: ScenarioSpec) -> SubmitOutcome {
        self.shared.submit(spec)
    }

    /// Parses, validates, and submits a JSON spec body.
    ///
    /// # Errors
    ///
    /// Returns the parse/validation error text (what `POST /jobs`
    /// answers as a 400).
    pub fn submit_json(&self, body: &str) -> Result<SubmitOutcome, String> {
        self.shared.submit_json(body)
    }

    /// The job's current status.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.shared.view(id).map(|v| v.status)
    }

    /// The job's result document, once `done`.
    pub fn result(&self, id: JobId) -> Option<Arc<str>> {
        self.shared.view(id).and_then(|v| v.result)
    }

    /// The job's captured trace, once `done` (specs with `trace: true`).
    pub fn trace(&self, id: JobId) -> Option<Arc<str>> {
        self.shared.view(id).and_then(|v| v.trace)
    }

    /// Requests cancellation of `id`.
    pub fn cancel(&self, id: JobId) -> CancelOutcome {
        self.shared.cancel(id)
    }

    /// Blocks until `id` reaches a terminal status or `max` elapses.
    pub fn wait_terminal(&self, id: JobId, max: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + max;
        loop {
            let status = self.status(id)?;
            if status.is_terminal() {
                return Some(status);
            }
            if Instant::now() >= deadline {
                return Some(status);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Whether the HTTP frontend received `GET /quit`.
    pub fn quit_requested(&self) -> bool {
        self.http.as_ref().is_some_and(HttpListener::quit_requested)
    }

    /// Blocks until `GET /quit` arrives (true) or `max` elapses; returns
    /// false at once when no HTTP frontend is serving.
    pub fn wait_for_quit(&self, max: Duration) -> bool {
        self.http
            .as_ref()
            .is_some_and(|http| http.wait_for_quit(max))
    }

    /// Stops the pool: fires every live job's cancel token, wakes and
    /// joins the workers, and shuts the HTTP frontend down.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.lock().queue.cancel_all();
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(mut http) = self.http.take() {
            http.shutdown();
        }
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_experiments::spec::{ScenarioSpec, SpecKind};

    fn counting_runner(runs: Arc<AtomicUsize>) -> JobRunner {
        Arc::new(move |spec, _| {
            runs.fetch_add(1, Ordering::SeqCst);
            Ok(JobOutput {
                result: format!("ran:{}", spec.canonical()),
                trace: None,
            })
        })
    }

    fn submit_ok(server: &JobServer, spec: &ScenarioSpec) -> (JobId, bool) {
        match server.submit(spec.clone()) {
            SubmitOutcome::Queued(id) => (id, false),
            SubmitOutcome::CacheHit(id) => (id, true),
            SubmitOutcome::Full => panic!("queue unexpectedly full"),
        }
    }

    #[test]
    fn resubmission_is_a_cache_hit_with_identical_bytes_and_no_rerun() {
        let runs = Arc::new(AtomicUsize::new(0));
        let server = JobServer::with_runner(
            JobServerConfig::default(),
            counting_runner(Arc::clone(&runs)),
        );
        let spec = ScenarioSpec::preset(SpecKind::Single);
        let (first, hit) = submit_ok(&server, &spec);
        assert!(!hit);
        assert_eq!(
            server.wait_terminal(first, Duration::from_secs(5)),
            Some(JobStatus::Done)
        );
        let (second, hit) = submit_ok(&server, &spec);
        assert!(hit, "second submission of the same spec hits the cache");
        assert_eq!(server.status(second), Some(JobStatus::Done));
        assert_eq!(server.result(first), server.result(second));
        assert!(Arc::ptr_eq(
            &server.result(first).unwrap(),
            &server.result(second).unwrap()
        ));
        assert_eq!(runs.load(Ordering::SeqCst), 1, "the hit ran nothing");
        server.shutdown();
    }

    #[test]
    fn a_panicking_run_retries_once_then_succeeds() {
        let calls = Arc::new(AtomicUsize::new(0));
        let calls2 = Arc::clone(&calls);
        let runner: JobRunner = Arc::new(move |_, _| {
            if calls2.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient failure");
            }
            Ok(JobOutput {
                result: "recovered".into(),
                trace: None,
            })
        });
        let server = JobServer::with_runner(JobServerConfig::default(), runner);
        let (id, _) = submit_ok(&server, &ScenarioSpec::preset(SpecKind::Single));
        assert_eq!(
            server.wait_terminal(id, Duration::from_secs(5)),
            Some(JobStatus::Done)
        );
        assert_eq!(server.result(id).as_deref(), Some("recovered"));
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        server.shutdown();
    }

    #[test]
    fn a_persistently_panicking_run_fails_terminally() {
        let runner: JobRunner = Arc::new(|_, _| panic!("always broken"));
        let config = JobServerConfig {
            max_attempts: 3,
            ..JobServerConfig::default()
        };
        let server = JobServer::with_runner(config, runner);
        let (id, _) = submit_ok(&server, &ScenarioSpec::preset(SpecKind::Single));
        assert_eq!(
            server.wait_terminal(id, Duration::from_secs(5)),
            Some(JobStatus::Failed)
        );
        let view = server.shared.view(id).unwrap();
        assert_eq!(view.attempts, 3);
        assert!(view.error.unwrap().contains("always broken"));
        server.shutdown();
    }

    #[test]
    fn cancelling_a_running_job_unwedges_the_worker() {
        // One worker; the runner blocks until its token fires.
        let runner: JobRunner = Arc::new(|_, cancel| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !cancel.is_cancelled() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(RunError::Cancelled)
        });
        let config = JobServerConfig {
            workers: 1,
            ..JobServerConfig::default()
        };
        let server = JobServer::with_runner(config, runner);
        let (id, _) = submit_ok(&server, &ScenarioSpec::preset(SpecKind::Single));
        // Wait until it is actually running, then cancel.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.status(id) != Some(JobStatus::Running) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(server.cancel(id), CancelOutcome::Signalled);
        assert_eq!(
            server.wait_terminal(id, Duration::from_secs(5)),
            Some(JobStatus::Cancelled)
        );
        server.shutdown();
    }
}
