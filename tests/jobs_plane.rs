//! End-to-end test of the simulation-as-a-service jobs plane: specs
//! submitted over real TCP to a bound [`JobServer`], polled to
//! completion, cached, cancelled, and traced.
//!
//! This is the in-process twin of the `scripts/verify.sh` `serve-jobs`
//! smoke step (which exercises the same plane through the `manet
//! serve-jobs` binary). Two properties are pinned here that the shell
//! smoke cannot check byte-for-byte:
//!
//! 1. **Caching is sound**: resubmitting the same spec yields the same
//!    result bytes without re-running the scenario, and the bytes are
//!    invariant under worker count (DESIGN.md §18).
//! 2. **The service equals the bins**: the HTTP result body for a
//!    `fig1_vs_range`, `fig2_vs_velocity`, `fig3_vs_density` or
//!    `robustness` spec is byte-identical to calling [`run_scenario`] +
//!    [`result_json`] directly — the exact code path those bins run.

use manet_experiments::harness::CancelToken;
use manet_experiments::spec::{result_json, run_scenario, RunError, ScenarioSpec};
use manet_jobs::{JobOutput, JobRunner, JobServer, JobServerConfig};
use manet_util::json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One HTTP/1.1 request over a fresh connection (the server closes
/// every connection after one response, so this is the whole protocol).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to job server");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response.lines().next().unwrap_or_default().to_string();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    http(addr, "GET", path, "")
}

/// Extracts `"id"` from a submit/status response body.
fn id_of(body: &str) -> u64 {
    Value::parse(body)
        .expect("response is JSON")
        .get("id")
        .and_then(Value::as_u64)
        .expect("response carries an id")
}

/// Polls `GET /jobs/:id` until the status matches, returning the body.
fn poll_until(addr: SocketAddr, id: u64, want: &str, max: Duration) -> String {
    let deadline = Instant::now() + max;
    loop {
        let (status, body) = get(addr, &format!("/jobs/{id}"));
        assert!(status.contains("200"), "{status}: {body}");
        let parsed = Value::parse(&body).expect("status body is JSON");
        let state = parsed.get("status").and_then(Value::as_str).unwrap();
        if state == want {
            return body;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} stuck in {state}, wanted {want}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A spec small enough to finish in well under a second.
fn tiny_spec(kind: &str, extra: &str) -> String {
    format!(
        r#"{{"kind":"{kind}","nodes":60,"side":400.0,"radius":80.0,
            "warmup":5.0,"measure":15.0,"dt":0.5,"seeds":[7]{extra}}}"#
    )
}

#[test]
fn resubmitted_spec_hits_the_cache_with_byte_identical_result() {
    let server =
        JobServer::serve("127.0.0.1:0", JobServerConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr().expect("http frontend is up");
    let spec = tiny_spec("single", "");

    // First submission misses the cache and runs.
    let (status, body) = http(addr, "POST", "/jobs", &spec);
    assert!(status.contains("202"), "{status}: {body}");
    assert!(body.contains(r#""cache":"miss""#), "{body}");
    let first = id_of(&body);
    poll_until(addr, first, "done", Duration::from_secs(30));
    let (status, first_result) = get(addr, &format!("/jobs/{first}/result"));
    assert!(status.contains("200"), "{status}");

    // Second submission of the byte-different but canonically equal
    // spec (reordered keys, integer literals) is an immediate hit.
    let reordered = r#"{"seeds":[7],"dt":0.5,"measure":15,"warmup":5,
        "radius":80,"side":400,"nodes":60,"kind":"single"}"#;
    let (status, body) = http(addr, "POST", "/jobs", reordered);
    assert!(status.contains("200"), "{status}: {body}");
    assert!(body.contains(r#""cache":"hit""#), "{body}");
    let second = id_of(&body);
    assert_ne!(first, second, "a hit still gets its own job record");
    let (_, second_result) = get(addr, &format!("/jobs/{second}/result"));
    assert_eq!(
        first_result, second_result,
        "cache replays the exact result bytes"
    );

    // The hit is visible on /metrics.
    let (_, metrics) = get(addr, "/metrics");
    assert!(
        metrics.contains("manet_jobs_cache_hits_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("manet_jobs_completed_total 1"),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn service_result_is_worker_count_invariant_and_equals_the_bin_path() {
    // One tiny spec per kind that has a bin adapter (fig1/fig2/fig3 and
    // robustness), each shrunk to a two-point sweep.
    for spec_text in [
        tiny_spec("fig1_vs_range", r#","sweep":[0.1,0.2]"#),
        tiny_spec("fig2_vs_velocity", r#","sweep":[5,20]"#),
        tiny_spec("fig3_vs_density", r#","sweep":[40,80]"#),
        tiny_spec("robustness", r#","fault":{"loss":[0,0.1]}"#),
    ] {
        let spec = ScenarioSpec::from_json(&spec_text).expect("valid spec");

        // The bin code path: run_scenario + result_json, directly.
        let output = run_scenario(&spec, None).expect("direct run");
        let direct = result_json(&spec, &output).to_string();

        // The service code path, at two different worker counts.
        let mut bodies = Vec::new();
        for workers in [1, 4] {
            let config = JobServerConfig {
                workers,
                ..JobServerConfig::default()
            };
            let server = JobServer::serve("127.0.0.1:0", config).expect("bind ephemeral port");
            let addr = server.local_addr().unwrap();
            let (_, body) = http(addr, "POST", "/jobs", &spec_text);
            let id = id_of(&body);
            poll_until(addr, id, "done", Duration::from_secs(60));
            let (status, result) = get(addr, &format!("/jobs/{id}/result"));
            assert!(status.contains("200"), "{status}");
            bodies.push(result);
            server.shutdown();
        }
        let kind = spec.kind.name();
        assert_eq!(
            bodies[0], bodies[1],
            "{kind}: worker count cannot change results"
        );
        assert_eq!(
            bodies[0], direct,
            "{kind}: POST /jobs and the {kind} bin share one code path"
        );
    }
}

#[test]
fn cancellation_is_terminal_and_never_wedges_the_pool() {
    // One worker; the runner blocks on specs with the marker node count
    // (61) until their token fires, and completes everything else
    // instantly.
    let runner: JobRunner = Arc::new(|spec: &ScenarioSpec, cancel: &CancelToken| {
        if spec.nodes == 61 {
            let deadline = Instant::now() + Duration::from_secs(20);
            while !cancel.is_cancelled() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            return Err(RunError::Cancelled);
        }
        Ok(JobOutput {
            result: spec.canonical(),
            trace: None,
        })
    });
    let config = JobServerConfig {
        workers: 1,
        ..JobServerConfig::default()
    };
    let server =
        JobServer::serve_with_runner("127.0.0.1:0", config, runner).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();

    // Job A blocks the single worker; job B sits queued behind it.
    let spec = |nodes: u32| tiny_spec("single", &format!(r#","nodes":{nodes}"#));
    let (_, body) = http(addr, "POST", "/jobs", &spec(61));
    let running = id_of(&body);
    let (_, body) = http(addr, "POST", "/jobs", &spec(62));
    let queued = id_of(&body);
    poll_until(addr, running, "running", Duration::from_secs(10));

    // Cancelling the queued job is immediate and terminal.
    let (status, body) = http(addr, "POST", &format!("/jobs/{queued}/cancel"), "");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains(r#""cancel":"cancelled""#), "{body}");
    poll_until(addr, queued, "cancelled", Duration::from_secs(5));
    let (status, body) = get(addr, &format!("/jobs/{queued}/result"));
    assert!(status.contains("410"), "cancelled result is gone: {status}");
    assert!(body.contains("job cancelled"), "{body}");

    // Cancelling the running job signals its token; the worker confirms.
    let (_, body) = http(addr, "POST", &format!("/jobs/{running}/cancel"), "");
    assert!(body.contains(r#""cancel":"signalled""#), "{body}");
    poll_until(addr, running, "cancelled", Duration::from_secs(10));

    // The pool is not wedged: a fresh job completes.
    let (_, body) = http(addr, "POST", "/jobs", &spec(63));
    let after = id_of(&body);
    poll_until(addr, after, "done", Duration::from_secs(10));

    // Cancelling a terminal job is a no-op, not an error.
    let (_, body) = http(addr, "POST", &format!("/jobs/{after}/cancel"), "");
    assert!(body.contains(r#""cancel":"already_terminal""#), "{body}");

    // /quit flips the flag the CLI waits on; shutdown stays clean.
    let (status, _) = get(addr, "/quit");
    assert!(status.contains("200"), "{status}");
    assert!(server.quit_requested());
    server.shutdown();
}

#[test]
fn traced_jobs_serve_parseable_jsonl_and_unknown_routes_404() {
    let server =
        JobServer::serve("127.0.0.1:0", JobServerConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();

    // A spec with trace capture: /trace serves JSONL whose every line
    // parses with the in-house codec.
    let (_, body) = http(
        addr,
        "POST",
        "/jobs",
        &tiny_spec("single", r#","trace":true"#),
    );
    let id = id_of(&body);
    poll_until(addr, id, "done", Duration::from_secs(30));
    let (status, trace) = get(addr, &format!("/jobs/{id}/trace"));
    assert!(status.contains("200"), "{status}");
    assert!(!trace.is_empty());
    for line in trace.lines() {
        Value::parse(line).expect("trace lines are JSON");
    }

    // A spec without trace capture answers 404 with a hint.
    let (_, body) = http(addr, "POST", "/jobs", &tiny_spec("single", ""));
    let plain = id_of(&body);
    poll_until(addr, plain, "done", Duration::from_secs(30));
    let (status, body) = get(addr, &format!("/jobs/{plain}/trace"));
    assert!(status.contains("404"), "{status}");
    assert!(body.contains("trace"), "{body}");

    // Unknown routes, ids, and bodies are clean errors, not hangs.
    let (status, _) = get(addr, "/nope");
    assert!(status.contains("404"), "{status}");
    let (status, _) = get(addr, "/jobs/999999");
    assert!(status.contains("404"), "{status}");
    let (status, body) = http(addr, "POST", "/jobs", "{not json");
    assert!(status.contains("400"), "{status}");
    assert!(body.contains("error"), "{body}");
    let (status, _) = http(addr, "DELETE", &format!("/jobs/{id}"), "");
    assert!(status.contains("405"), "{status}");
    server.shutdown();
}
