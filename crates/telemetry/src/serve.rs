//! The live exporter and the one HTTP listener every plane endpoint
//! serves through.
//!
//! [`HttpListener`] is a zero-dependency HTTP server over
//! `std::net::TcpListener`: one accept thread answering one request per
//! connection (`Connection: close`) with `HTTP/1.1` status lines and an
//! explicit `Content-Length`. Each request is read under one deadline,
//! [`REQUEST_DEADLINE`], so a client that trickles bytes holds the
//! one-connection-at-a-time listener no longer than that; a request that
//! is malformed, oversized or not complete by then is answered `400`.
//! The listener answers `GET /quit` itself (the hosting process waits on
//! it to end a hold) and hands every other request to the route function
//! its frontend gave it. Shutdown (or drop) sets a stop flag, wakes the
//! accept loop with a loopback connection and joins the thread.
//!
//! The live metrics endpoint ([`serve_metrics`]) is the snapshot routes
//! on that listener. The simulation hot path stays untouched: the tick
//! loop renders a [`TelemetrySnapshot`] once per tumbling window (not per
//! tick) and hands it to a [`Publisher`], which swaps an
//! `Arc<TelemetrySnapshot>` behind a mutex — the serving thread clones
//! the `Arc` out under the lock and formats responses from the immutable
//! snapshot, so a slow scraper can never stall the simulation and the
//! lock is held only for pointer swaps. With no server running nothing
//! is published and the run is bit-identical to an unserved one.
//!
//! Endpoints:
//!
//! * `GET /metrics` — the latest Prometheus text-exposition snapshot
//!   (the same format `--metrics-out` writes at end of run).
//! * `GET /health` — plain-text `key value` lines: current tick, sim
//!   time, tick rate, seconds since the last published window, and the
//!   audit-violation count.
//! * `GET /flight` — the flight recorder's current ring as JSONL (empty
//!   body when no flight recorder is armed).
//! * `GET /quit` — asks the hosting process to stop serving (used by
//!   `scripts/verify.sh` to end the post-run hold deterministically).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on an accepted request body (a scenario spec is well under
/// a kilobyte; anything larger is a misdirected upload, not a spec).
pub const MAX_REQUEST_BODY: usize = 1 << 20;

/// Upper bound on an accepted request head: the request line plus every
/// header line, terminators included. Real clients send a few hundred
/// bytes; the cap stops a newline-free line or a header flood from
/// growing a buffer without bound.
pub const MAX_REQUEST_HEAD: usize = 16 << 10;

/// One parsed HTTP request: the request line plus the body, when a
/// `Content-Length` header announced one.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// Request path, as sent (no query-string splitting — none of the
    /// served endpoints take parameters).
    pub path: String,
    /// Request body (empty unless `Content-Length` was present).
    pub body: String,
}

/// How long the listener waits for one whole request (head and body),
/// and for the write of its response.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// What a route answers: status phrase (`"200 OK"`, `"404 Not Found"`,
/// …), content type, and body.
pub type HttpResponse = (&'static str, &'static str, String);

/// A socket reader whose reads all end by one deadline: before each read
/// the socket's read timeout is set to the time left, so however a client
/// spaces its bytes it cannot hold the connection past the deadline.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request deadline passed",
            ));
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

/// Reads one HTTP request — request line, headers, and a
/// `Content-Length`-delimited body — from a buffered stream.
///
/// # Errors
///
/// Returns `InvalidData` on a malformed request line, a request head
/// longer than [`MAX_REQUEST_HEAD`], an unparseable or oversized
/// `Content-Length`, or a non-UTF-8 body, and propagates the reader's
/// errors (`TimedOut` past a [`DeadlineReader`]'s deadline) as-is.
fn read_request<R: BufRead>(reader: &mut R) -> io::Result<HttpRequest> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut head_left = MAX_REQUEST_HEAD as u64;
    let mut request_line = String::new();
    read_head_line(reader, &mut head_left, &mut request_line)?;
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(bad("malformed request line"));
    };
    let (method, path) = (method.to_string(), path.to_string());
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        read_head_line(reader, &mut head_left, &mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("unparseable Content-Length"))?;
                if content_length > MAX_REQUEST_BODY {
                    return Err(bad("request body too large"));
                }
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad("request body is not UTF-8"))?;
    Ok(HttpRequest { method, path, body })
}

/// Reads one request-head line into `line`, charging its bytes to
/// `head_left`. A line the remaining budget cuts short is `InvalidData`,
/// and so is end of stream before the line: a head must end with its
/// blank line.
fn read_head_line<R: BufRead>(
    reader: &mut R,
    head_left: &mut u64,
    line: &mut String,
) -> io::Result<()> {
    let budget = *head_left;
    let n = reader.by_ref().take(budget).read_line(line)? as u64;
    *head_left -= n;
    let bad = |msg: &str| Err(io::Error::new(io::ErrorKind::InvalidData, msg.to_string()));
    if n == 0 {
        return bad("request head cut short");
    }
    if n == budget && !line.ends_with('\n') {
        return bad("request head too large");
    }
    Ok(())
}

/// The content type of the listener's own answers and of the snapshot
/// routes.
const TEXT: &str = "text/plain; version=0.0.4; charset=utf-8";

/// The listener's flags, shared with its accept thread.
#[derive(Debug, Default)]
struct Flags {
    /// Set by shutdown to end the accept loop.
    stop: AtomicBool,
    /// Set by `GET /quit`; the hosting process polls it to end a hold.
    quit: AtomicBool,
}

/// The one HTTP listener: a background thread that reads each request
/// under [`REQUEST_DEADLINE`], answers `GET /quit` and unparseable
/// requests itself, and hands every other request to its route function.
/// Dropping the listener (or calling [`HttpListener::shutdown`]) stops the
/// thread and closes the socket; the join is bounded because shutdown
/// wakes the accept loop with a loopback connection.
#[derive(Debug)]
pub struct HttpListener {
    addr: SocketAddr,
    flags: Arc<Flags>,
    handle: Option<JoinHandle<()>>,
}

impl HttpListener {
    /// Binds `addr` (e.g. `127.0.0.1:9184`; port 0 picks an ephemeral
    /// port — read the result from [`HttpListener::local_addr`]) and
    /// starts the accept thread, which answers with `routes`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (address in use, permission, parse) and a
    /// failed thread spawn.
    pub fn serve<A, F>(addr: A, routes: F) -> io::Result<HttpListener>
    where
        A: ToSocketAddrs,
        F: Fn(&HttpRequest) -> HttpResponse + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let flags = Arc::new(Flags::default());
        let thread_flags = Arc::clone(&flags);
        let handle = std::thread::Builder::new()
            .name("manet-http".into())
            .spawn(move || accept_loop(&listener, &thread_flags, &routes))?;
        Ok(HttpListener {
            addr,
            flags,
            handle: Some(handle),
        })
    }

    /// The actually bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a client requested `GET /quit`.
    pub fn quit_requested(&self) -> bool {
        self.flags.quit.load(Ordering::SeqCst)
    }

    /// Blocks up to `max`, returning early (true) when `GET /quit`
    /// arrives — the hold `--serve-hold` and `serve-jobs --hold` use.
    pub fn wait_for_quit(&self, max: Duration) -> bool {
        let deadline = Instant::now() + max;
        while !self.quit_requested() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(25));
        }
        self.quit_requested()
    }

    /// Stops the accept thread and joins it. Idempotent; also runs on
    /// drop.
    pub fn shutdown(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.flags.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway loopback connection.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for HttpListener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    flags: &Flags,
    routes: &dyn Fn(&HttpRequest) -> HttpResponse,
) {
    for stream in listener.incoming() {
        if flags.stop.load(Ordering::SeqCst) {
            return; // the shutdown wake-up connection
        }
        // Per-connection failures (timeouts, disconnects, bad bytes) only
        // cost that connection.
        if let Ok(stream) = stream {
            let _ = answer(stream, flags, routes);
        }
    }
}

/// Reads one request under [`REQUEST_DEADLINE`] and writes one
/// `HTTP/1.1` response ([`render`]) in one write; a malformed, oversized
/// or timed-out request is answered `400`. Errors are returned only to
/// be discarded — a broken client must never affect the host.
fn answer(
    mut stream: TcpStream,
    flags: &Flags,
    routes: &dyn Fn(&HttpRequest) -> HttpResponse,
) -> io::Result<()> {
    stream.set_write_timeout(Some(REQUEST_DEADLINE))?;
    let request = read_request(&mut BufReader::new(DeadlineReader {
        stream: &stream,
        deadline: Instant::now() + REQUEST_DEADLINE,
    }));
    let (status, content_type, body) = match request {
        Err(_) => (
            "400 Bad Request",
            TEXT,
            "malformed HTTP request\n".to_string(),
        ),
        Ok(request) if (request.method.as_str(), request.path.as_str()) == ("GET", "/quit") => {
            flags.quit.store(true, Ordering::SeqCst);
            ("200 OK", TEXT, "quitting\n".to_string())
        }
        Ok(request) => routes(&request),
    };
    stream.write_all(render(status, content_type, &body).as_bytes())
}

/// One whole `HTTP/1.1` response: status line, `Content-Type`, an
/// explicit `Content-Length`, `Connection: close`, then the body.
fn render(status: &str, content_type: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// One published view of a running simulation, rendered by the tick loop
/// once per tumbling window and served immutably until the next publish.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Prometheus text exposition (see `prometheus_text`).
    pub metrics: String,
    /// Ticks completed so far.
    pub tick: u64,
    /// Simulation time at publish, seconds.
    pub sim_time: f64,
    /// Wall-clock tick throughput since the run started, ticks/second.
    pub ticks_per_sec: f64,
    /// Audit violations recorded so far (0 when auditing is off).
    pub audit_violations: u64,
    /// Flight-recorder ring as JSONL (empty when no recorder is armed).
    pub flight: String,
}

/// The current snapshot plus the wall-clock instant it was published.
type SnapshotCell = Mutex<(Arc<TelemetrySnapshot>, Option<Instant>)>;

/// The run loop's handle for publishing snapshots; cheap to clone, safe
/// to call from any thread. Publishing is a pointer swap under a mutex —
/// O(1) in the snapshot size and independent of any connected scraper.
#[derive(Debug, Clone)]
pub struct Publisher {
    cell: Arc<SnapshotCell>,
}

impl Publisher {
    /// Swaps in a freshly rendered snapshot.
    pub fn publish(&self, snapshot: TelemetrySnapshot) {
        let mut cell = self.cell.lock().expect("snapshot lock");
        *cell = (Arc::new(snapshot), Some(Instant::now()));
    }
}

/// Binds the live metrics endpoint on `addr`: the snapshot routes
/// (`/metrics`, `/health`, `/flight`) on an [`HttpListener`], returned
/// with the [`Publisher`] that feeds them.
///
/// # Errors
///
/// As [`HttpListener::serve`].
pub fn serve_metrics<A: ToSocketAddrs>(addr: A) -> io::Result<(HttpListener, Publisher)> {
    let cell: Arc<SnapshotCell> = Arc::default();
    let publisher = Publisher {
        cell: Arc::clone(&cell),
    };
    let listener = HttpListener::serve(addr, move |request| snapshot_routes(&cell, request))?;
    Ok((listener, publisher))
}

/// Answers one request from the latest published snapshot.
fn snapshot_routes(cell: &SnapshotCell, request: &HttpRequest) -> HttpResponse {
    let (snapshot, published_at) = {
        let cell = cell.lock().expect("snapshot lock");
        (Arc::clone(&cell.0), cell.1)
    };
    let (status, body) = match request.path.as_str() {
        "/metrics" => ("200 OK", snapshot.metrics.clone()),
        "/health" => ("200 OK", health_body(&snapshot, published_at)),
        "/flight" => ("200 OK", snapshot.flight.clone()),
        _ => ("404 Not Found", "not found\n".to_string()),
    };
    (status, TEXT, body)
}

/// Renders the `/health` body: `key value` lines, one per fact.
fn health_body(snapshot: &TelemetrySnapshot, published_at: Option<Instant>) -> String {
    let age = published_at.map_or(-1.0, |t| t.elapsed().as_secs_f64());
    format!(
        "status {}\ntick {}\nsim_time {:.3}\nticks_per_sec {:.2}\nlast_tick_age_secs {:.3}\naudit_violations {}\n",
        if published_at.is_some() { "ok" } else { "starting" },
        snapshot.tick,
        snapshot.sim_time,
        snapshot.ticks_per_sec,
        age,
        snapshot.audit_violations,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    /// One GET against the server, returning (status line, body).
    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let status = response.lines().next().unwrap_or_default().to_string();
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn serves_published_snapshots_and_shuts_down_cleanly() {
        let (mut server, publisher) = serve_metrics("127.0.0.1:0").expect("bind ephemeral");
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0);

        // Before any publish: /health reports starting, /metrics empty.
        let (status, body) = get(addr, "/health");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("status starting"), "{body}");
        assert!(body.contains("last_tick_age_secs -1.000"), "{body}");

        publisher.publish(TelemetrySnapshot {
            metrics: "# TYPE manet_msgs_total counter\nmanet_msgs_total{class=\"HELLO\"} 42\n"
                .into(),
            tick: 480,
            sim_time: 120.0,
            ticks_per_sec: 96.5,
            audit_violations: 1,
            flight: "{\"type\":\"meta\",\"label\":\"x\"}\n".into(),
        });

        let (status, body) = get(addr, "/metrics");
        assert!(status.contains("200"));
        assert!(body.contains("manet_msgs_total{class=\"HELLO\"} 42"));

        let (_, body) = get(addr, "/health");
        assert!(body.contains("status ok"), "{body}");
        assert!(body.contains("tick 480"));
        assert!(body.contains("ticks_per_sec 96.50"));
        assert!(body.contains("audit_violations 1"));

        let (_, body) = get(addr, "/flight");
        assert!(body.contains("\"type\":\"meta\""));

        let (status, _) = get(addr, "/nope");
        assert!(status.contains("404"), "{status}");

        assert!(!server.quit_requested());
        let (status, body) = get(addr, "/quit");
        assert!(status.contains("200"));
        assert!(body.contains("quitting"));
        assert!(server.quit_requested());
        assert!(server.wait_for_quit(Duration::from_millis(10)));

        server.shutdown();
        server.shutdown(); // idempotent
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may briefly accept on a closing socket; a second
                // attempt after the listener is joined must fail.
                std::thread::sleep(Duration::from_millis(50));
                TcpStream::connect(addr).is_err()
            },
            "listener must be closed after shutdown"
        );
    }

    /// The satellite fix pinned: unknown paths answer with a full
    /// `HTTP/1.1 404` status line and `Connection: close`, so scrapers
    /// and load balancers see a well-formed refusal instead of an
    /// under-specified `HTTP/1.0` one.
    #[test]
    fn unknown_paths_get_a_proper_http11_404() {
        let (server, _) = serve_metrics("127.0.0.1:0").expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        write!(
            stream,
            "GET /definitely/not/here HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(
            response.starts_with("HTTP/1.1 404 Not Found\r\n"),
            "{response}"
        );
        assert!(response.contains("Connection: close\r\n"), "{response}");
        assert!(response.ends_with("not found\n"), "{response}");
    }

    #[test]
    fn read_request_parses_method_path_and_body() {
        let raw = "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: 11\r\n\r\nhello world";
        let req = read_request(&mut io::Cursor::new(raw)).expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, "hello world");

        let raw = "GET /health HTTP/1.1\r\n\r\n";
        let req = read_request(&mut io::Cursor::new(raw)).expect("parse");
        assert_eq!((req.method.as_str(), req.body.as_str()), ("GET", ""));
    }

    #[test]
    fn read_request_rejects_malformed_input() {
        // A request line with no newline, four head caps long.
        let endless_line = format!("GET /{}", "a".repeat(4 * MAX_REQUEST_HEAD));
        // A well-formed request line followed by a flood of padding headers.
        let header_flood = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "X-Pad: 0123456789abcdefghijklmnopqrstuv\r\n".repeat(2_000)
        );
        for raw in [
            "\r\n",                                                    // no request line
            "GET\r\n\r\n",                                             // no path
            "POST /jobs HTTP/1.1\r\nContent-Length: nope\r\n\r\n",     // bad length
            "POST /jobs HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n", // oversized
            "GET /quit HTTP/1.1\r\n",                                  // no blank line
            "POST /jobs HTTP/1.1\r\nContent-Length: 5\r\n",            // head cut short
            endless_line.as_str(),
            header_flood.as_str(),
        ] {
            let shown = &raw[..raw.len().min(40)];
            let mut cursor = io::Cursor::new(raw);
            let err = read_request(&mut cursor).expect_err(shown);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{shown:?}");
            assert!(
                cursor.position() <= MAX_REQUEST_HEAD as u64,
                "{shown:?}: read past the head cap"
            );
        }
        // A head of exactly the cap is still accepted.
        let pad = MAX_REQUEST_HEAD - "GET / HTTP/1.1\r\nX-Pad: \r\n\r\n".len();
        let at_cap = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "p".repeat(pad));
        assert_eq!(at_cap.len(), MAX_REQUEST_HEAD);
        assert_eq!(
            read_request(&mut io::Cursor::new(&at_cap)).unwrap().path,
            "/"
        );
        // A truncated body is a transport error, not InvalidData.
        let raw = "POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert!(read_request(&mut io::Cursor::new(raw)).is_err());
    }

    /// The bytes of a route's answer and of the listener's own `400`.
    #[test]
    fn answers_render_to_one_buffer() {
        assert_eq!(
            render("200 OK", "application/json", "{\"id\":1}"),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
             Content-Length: 8\r\nConnection: close\r\n\r\n{\"id\":1}"
        );
        assert_eq!(
            render("400 Bad Request", TEXT, "malformed HTTP request\n"),
            "HTTP/1.1 400 Bad Request\r\n\
             Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
             Content-Length: 23\r\nConnection: close\r\n\r\nmalformed HTTP request\n"
        );
    }

    #[test]
    fn publisher_swap_is_last_write_wins() {
        let (server, publisher) = serve_metrics("127.0.0.1:0").expect("bind");
        for tick in 1..=5u64 {
            publisher.publish(TelemetrySnapshot {
                tick,
                ..TelemetrySnapshot::default()
            });
        }
        let (_, body) = get(server.local_addr(), "/health");
        assert!(body.contains("tick 5"), "{body}");
    }
}
