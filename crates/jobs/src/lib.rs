//! Simulation-as-a-service: the `manet-jobs` scenario server.
//!
//! The experiment fleet runs one scenario per process invocation; a
//! parameter study over it means shell loops re-paying process startup,
//! and repeated runs of the same spec re-pay the whole simulation. This
//! crate turns the harness into a long-lived service:
//!
//! * [`queue`] — the job table: a bounded FIFO of submitted
//!   [`ScenarioSpec`](manet_experiments::spec::ScenarioSpec)s with an
//!   explicit per-job state machine (`queued → running → done | failed |
//!   cancelled`), capped retry on worker panic, and cooperative
//!   cancellation through the harness
//!   [`CancelToken`](manet_experiments::harness::CancelToken).
//! * [`cache`] — the content-addressed result cache, keyed on
//!   [`ScenarioSpec::canonical`](manet_experiments::spec::ScenarioSpec::canonical):
//!   because a seeded run is bit-identical at any shard layout or worker
//!   count, the canonical (spec, seeds) string fully determines the
//!   result bytes, so a repeat submission is an O(1) hit returning the
//!   exact bytes of the first run.
//! * [`server`] — the fixed worker pool executing specs in-process
//!   through
//!   [`run_scenario_with_trace`](manet_experiments::spec::run_scenario_with_trace)
//!   (no subprocess per job; a traced `single` job simulates its seed
//!   once), with panics contained per-job, an injectable runner for
//!   tests, and per-kind run-time and queue-wait histograms on
//!   `/metrics`.
//! * `http` (private) — the jobs routes on the shared
//!   [`HttpListener`](manet_telemetry::HttpListener): `POST /jobs`,
//!   `GET /jobs/:id`, `GET /jobs/:id/result`, `GET /jobs/:id/trace`,
//!   `POST /jobs/:id/cancel`, `/metrics`, `/health` (the listener
//!   answers `/quit`). Scrapers and submitters never block the workers
//!   beyond one mutex-protected queue operation.
//!
//! `manet serve-jobs` is the CLI frontend; see DESIGN.md §18 for the
//! state machine and the cache-key argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod http;
pub mod queue;
pub mod server;

pub use cache::{CacheEntry, ResultCache};
pub use queue::{
    CancelOutcome, Job, JobId, JobQueue, JobStatus, QueueMetrics, SubmitOutcome, JOBS_CAP,
};
pub use server::{default_runner, JobOutput, JobRunner, JobServer, JobServerConfig};
