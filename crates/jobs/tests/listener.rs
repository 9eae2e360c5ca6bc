//! The one HTTP listener under bad clients, through both frontends that
//! serve on it: the live metrics endpoint and the jobs service. This is
//! the lowest crate that can build both.

use manet_jobs::{JobOutput, JobRunner, JobServer, JobServerConfig};
use manet_telemetry::serve::MAX_REQUEST_HEAD;
use manet_telemetry::{serve_metrics, REQUEST_DEADLINE};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The listener's request deadline plus 1 s of slack: how long a client
/// here waits for an answer before calling it missing.
fn patience() -> Duration {
    REQUEST_DEADLINE + Duration::from_secs(1)
}

/// The response's status line, or "" when none arrived in time.
fn status_line(mut stream: &TcpStream) -> String {
    stream.set_read_timeout(Some(patience())).unwrap();
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

/// Malformed and oversized requests answer 400 at once. An idle client is
/// answered 400 at the deadline, and a client trickling one byte every
/// 200 ms (well inside any per-read timeout) is cut off at it, so with
/// both still connected a well-formed request completes within the
/// deadline plus 1 s.
fn bad_clients_cannot_block(addr: SocketAddr) {
    let malformed = exchange(addr, b"NONSENSE\r\n");
    assert!(
        malformed.starts_with("HTTP/1.1 400"),
        "malformed: {malformed:?}"
    );
    // A newline-free head exactly at the cap: every byte is read before
    // the 400, so the close is clean.
    let oversized = exchange(addr, &[b'a'; MAX_REQUEST_HEAD]);
    assert!(
        oversized.starts_with("HTTP/1.1 400"),
        "oversized: {oversized:?}"
    );

    let idle = TcpStream::connect(addr).expect("connect");
    let answer = status_line(&idle);
    assert!(answer.starts_with("HTTP/1.1 400"), "idle: {answer:?}");

    // Connected before the well-formed client, so the listener takes it
    // first. The trickle stops on a write error or after ~10 s.
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
    assert!(waited <= patience(), "well-formed request took {waited:?}");

    drop(idle);
    trickler.join().expect("trickler thread");
}

/// Both frontends, each on its own listener, checked side by side.
#[test]
fn bad_idle_and_trickling_clients_cannot_block_the_listener() {
    let (metrics, _publisher) = serve_metrics("127.0.0.1:0").expect("bind");
    let runner: JobRunner = Arc::new(|_, _| {
        Ok(JobOutput {
            result: String::new(),
            trace: None,
        })
    });
    let jobs = JobServer::serve_with_runner("127.0.0.1:0", JobServerConfig::default(), runner)
        .expect("bind");
    let addrs = [metrics.local_addr(), jobs.local_addr().expect("serving")];
    std::thread::scope(|scope| {
        for addr in addrs {
            scope.spawn(move || bad_clients_cannot_block(addr));
        }
    });
    jobs.shutdown();
}
