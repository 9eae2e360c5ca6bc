//! The jobs routes: what the service answers on the shared
//! [`HttpListener`](manet_telemetry::HttpListener), which owns the
//! socket, the request deadline, the `400` for unparseable requests and
//! `GET /quit`. Handlers never hold the state mutex across I/O — every
//! route copies what it needs out of the shared state and answers from
//! the copy, so a slow scraper or submitter cannot block the worker pool.

use crate::queue::{CancelOutcome, JobId, JobStatus, SubmitOutcome};
use crate::server::{JobView, Shared};
use manet_telemetry::{HttpRequest, HttpResponse as Response};
use manet_util::json::Value;

const JSON: &str = "application/json";
const JSONL: &str = "application/x-ndjson";
const TEXT: &str = "text/plain; charset=utf-8";
/// Prometheus text exposition format, mirroring the telemetry endpoint.
const PROM: &str = "text/plain; version=0.0.4; charset=utf-8";

fn error_json(message: &str) -> String {
    Value::Obj(vec![("error".into(), message.into())]).to_string()
}

/// Answers one request.
pub(crate) fn route(shared: &Shared, request: &HttpRequest) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/jobs") => submit(shared, &request.body),
        ("GET", "/metrics") => ("200 OK", PROM, shared.metrics_text()),
        ("GET", "/health") => ("200 OK", TEXT, shared.health_text()),
        (method, path) => match job_route(path) {
            Some((id, tail)) => job(shared, method, id, tail),
            None => ("404 Not Found", TEXT, "not found\n".to_string()),
        },
    }
}

fn submit(shared: &Shared, body: &str) -> Response {
    match shared.submit_json(body) {
        Err(why) => ("400 Bad Request", JSON, error_json(&why)),
        Ok(SubmitOutcome::Full) => (
            "503 Service Unavailable",
            JSON,
            error_json("queue full, retry later"),
        ),
        Ok(SubmitOutcome::Queued(id)) => ("202 Accepted", JSON, submit_json_body(id, "queued")),
        Ok(SubmitOutcome::CacheHit(id)) => ("200 OK", JSON, submit_json_body(id, "done")),
    }
}

fn submit_json_body(id: JobId, status: &str) -> String {
    Value::Obj(vec![
        ("id".into(), id.into()),
        ("status".into(), status.into()),
        (
            "cache".into(),
            if status == "done" { "hit" } else { "miss" }.into(),
        ),
    ])
    .to_string()
}

/// Splits `/jobs/<id>[/<tail>]` into the id and its (possibly empty)
/// trailing segment.
fn job_route(path: &str) -> Option<(JobId, &str)> {
    let rest = path.strip_prefix("/jobs/")?;
    let (id, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, tail),
        None => (rest, ""),
    };
    Some((id.parse().ok()?, tail))
}

fn job(shared: &Shared, method: &str, id: JobId, tail: &str) -> Response {
    if method == "POST" && tail == "cancel" {
        return cancel(shared, id);
    }
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            TEXT,
            "method not allowed\n".to_string(),
        );
    }
    let Some(view) = shared.view(id) else {
        return ("404 Not Found", JSON, error_json("no such job"));
    };
    match tail {
        "" => ("200 OK", JSON, view.status_json()),
        "result" => finished_body(&view, view.result.as_deref(), JSON, "no result retained"),
        "trace" => finished_body(
            &view,
            view.trace.as_deref(),
            JSONL,
            "no trace captured; submit with \"trace\": true",
        ),
        _ => ("404 Not Found", TEXT, "not found\n".to_string()),
    }
}

/// The `/result` and `/trace` state ladder: 202 while in flight, the
/// payload bytes once done, and a terminal error code otherwise.
fn finished_body(
    view: &JobView,
    payload: Option<&str>,
    content_type: &'static str,
    missing: &str,
) -> Response {
    match view.status {
        JobStatus::Queued | JobStatus::Running => ("202 Accepted", JSON, view.status_json()),
        JobStatus::Cancelled => ("410 Gone", JSON, error_json("job cancelled")),
        JobStatus::Failed => (
            "500 Internal Server Error",
            JSON,
            error_json(view.error.as_deref().unwrap_or("job failed")),
        ),
        JobStatus::Done => match payload {
            Some(body) => ("200 OK", content_type, body.to_string()),
            None => ("404 Not Found", JSON, error_json(missing)),
        },
    }
}

fn cancel(shared: &Shared, id: JobId) -> Response {
    let verdict = match shared.cancel(id) {
        CancelOutcome::Unknown => return ("404 Not Found", JSON, error_json("no such job")),
        CancelOutcome::Cancelled => "cancelled",
        CancelOutcome::Signalled => "signalled",
        CancelOutcome::AlreadyTerminal => "already_terminal",
    };
    (
        "200 OK",
        JSON,
        Value::Obj(vec![
            ("id".into(), id.into()),
            ("cancel".into(), verdict.into()),
        ])
        .to_string(),
    )
}
