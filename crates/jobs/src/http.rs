//! The `std`-only HTTP frontend, in the telemetry `MetricsServer` mold:
//! one `TcpListener` accept thread, one request per connection,
//! `Connection: close`, and shutdown by stop-flag + self-connect wake +
//! join. Handlers never hold the state mutex across I/O — every route
//! copies what it needs out of the shared state and answers from the
//! copy, so a slow scraper or submitter cannot block the worker pool.

use crate::queue::{CancelOutcome, JobId, JobStatus, SubmitOutcome};
use crate::server::{JobView, Shared};
use manet_telemetry::{read_request_within, write_response, HttpRequest};
use manet_util::json::Value;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const JSON: &str = "application/json";
const JSONL: &str = "application/x-ndjson";
const TEXT: &str = "text/plain; charset=utf-8";
/// Prometheus text exposition format, mirroring the telemetry endpoint.
const PROM: &str = "text/plain; version=0.0.4; charset=utf-8";

pub(crate) struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl HttpServer {
    pub(crate) fn serve(addr: &str, shared: Arc<Shared>) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("manet-jobs-http".to_string())
            .spawn(move || accept_loop(&listener, &shared, &accept_stop))?;
        Ok(HttpServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub(crate) fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared, stop: &AtomicBool) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Per-connection failures (timeouts, disconnects, bad bytes)
        // only cost that connection.
        let _ = handle_connection(stream, shared);
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) -> io::Result<()> {
    let timeout = Duration::from_secs(5);
    stream.set_write_timeout(Some(timeout))?;
    let request = match read_request_within(&stream, timeout) {
        Ok(request) => request,
        Err(_) => {
            return write_response(
                &mut stream,
                "400 Bad Request",
                JSON,
                &error_json("malformed HTTP request"),
            );
        }
    };
    let (status, content_type, body) = route(shared, &request);
    write_response(&mut stream, status, content_type, &body)
}

fn error_json(message: &str) -> String {
    Value::Obj(vec![("error".into(), message.into())]).to_string()
}

type Response = (&'static str, &'static str, String);

fn route(shared: &Shared, request: &HttpRequest) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/jobs") => submit(shared, &request.body),
        ("GET", "/metrics") => ("200 OK", PROM, shared.metrics_text()),
        ("GET", "/health") => ("200 OK", TEXT, shared.health_text()),
        ("GET", "/quit") => {
            shared.request_quit();
            ("200 OK", TEXT, "shutting down\n".to_string())
        }
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

#[cfg(test)]
mod tests {
    use crate::{JobOutput, JobRunner, JobServer, JobServerConfig};
    use manet_telemetry::serve::MAX_REQUEST_HEAD;
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// The server's 5 s request deadline plus 1 s of slack: how long a
    /// client here waits for an answer before calling it missing.
    const PATIENCE: Duration = Duration::from_secs(6);

    /// The response's status line, or "" when none arrived in time.
    fn status_line(mut stream: &TcpStream) -> String {
        stream.set_read_timeout(Some(PATIENCE)).unwrap();
        let mut response = Vec::new();
        // A timeout keeps whatever arrived before it.
        let _ = stream.read_to_end(&mut response);
        let response = String::from_utf8_lossy(&response);
        response.lines().next().unwrap_or_default().to_string()
    }

    /// Sends `bytes` on a fresh connection and returns the status line.
    fn exchange(addr: SocketAddr, bytes: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(bytes).expect("send");
        status_line(&stream)
    }

    /// Malformed and oversized requests answer 400 at once. An idle
    /// client is answered 400 at the deadline, and a client trickling
    /// one byte every 200 ms (well inside any per-read timeout) is cut
    /// off at it, so with both still connected a well-formed request
    /// completes within the deadline plus 1 s.
    #[test]
    fn bad_idle_and_trickling_clients_cannot_block_the_listener() {
        let runner: JobRunner = Arc::new(|_, _| {
            Ok(JobOutput {
                result: String::new(),
                trace: None,
            })
        });
        let server =
            JobServer::serve_with_runner("127.0.0.1:0", JobServerConfig::default(), runner)
                .expect("bind");
        let addr = server.local_addr().expect("serving");

        let malformed = exchange(addr, b"NONSENSE\r\n");
        assert!(
            malformed.starts_with("HTTP/1.1 400"),
            "malformed: {malformed:?}"
        );
        // A newline-free head exactly at the cap: every byte is read
        // before the 400, so the close is clean.
        let oversized = exchange(addr, &[b'a'; MAX_REQUEST_HEAD]);
        assert!(
            oversized.starts_with("HTTP/1.1 400"),
            "oversized: {oversized:?}"
        );

        let idle = TcpStream::connect(addr).expect("connect");
        let answer = status_line(&idle);
        assert!(answer.starts_with("HTTP/1.1 400"), "idle: {answer:?}");

        // Connected before the well-formed client, so the listener takes
        // it first. The trickle stops on a write error or after ~10 s.
        let mut trickle = TcpStream::connect(addr).expect("connect");
        let trickler = std::thread::spawn(move || {
            let head = b"GET /health HTTP/1.1\r\nX-Pad: ".iter().chain(&[b'a'; 21]);
            for byte in head {
                if trickle.write_all(&[*byte]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(200));
            }
        });

        let sent = Instant::now();
        let health = exchange(addr, b"GET /health HTTP/1.1\r\n\r\n");
        let waited = sent.elapsed();
        assert!(
            health.starts_with("HTTP/1.1 200"),
            "well-formed request got {health:?} after {waited:?}"
        );
        assert!(waited <= PATIENCE, "well-formed request took {waited:?}");

        drop(idle);
        trickler.join().expect("trickler thread");
        server.shutdown();
    }
}
