//! End-to-end test of the live observability plane: a traced run
//! publishing window snapshots to a bound [`serve_metrics`] endpoint,
//! scraped over real TCP while (and after) it runs.
//!
//! This is the in-process twin of the `scripts/verify.sh` smoke step
//! (which exercises the same plane through the `--serve-metrics` CLI
//! flag on a real binary). It runs as its own test process, so
//! installing the process-wide live publisher here cannot leak into the
//! experiment crate's unit tests.

use manet_experiments::harness::{Protocol, Scenario};
use manet_experiments::trace::{install_live_publisher, trace_run, TelemetryConfig};
use manet_telemetry::serve_metrics;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics server");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response.lines().next().unwrap_or_default().to_string();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Asserts `text` is well-formed Prometheus exposition: every sample
/// line parses as `name[{labels}] value` and the named metric was
/// declared by a `# HELP`/`# TYPE` pair earlier in the text. A sample of
/// a `histogram` family is named after the family plus `_bucket`, `_sum`
/// or `_count`, as the exposition format prescribes.
fn assert_well_formed_metrics(text: &str) {
    let mut typed: Vec<(String, String)> = Vec::new(); // (family, type)
    let mut samples = 0usize;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (family, kind) = rest.split_once(' ').expect("TYPE family kind");
            typed.push((family.to_string(), kind.to_string()));
        } else if !line.starts_with('#') {
            let (series, value) = line.rsplit_once(' ').expect("sample shape");
            assert!(value.parse::<f64>().is_ok(), "unparseable value: {line}");
            let name = series.split('{').next().unwrap();
            let declared = |(family, kind): &(String, String)| {
                name == family
                    || kind == "histogram"
                        && name
                            .strip_prefix(family.as_str())
                            .is_some_and(|suffix| ["_bucket", "_sum", "_count"].contains(&suffix))
            };
            assert!(
                typed.iter().any(declared),
                "sample {name} lacks a preceding TYPE header"
            );
            samples += 1;
        }
    }
    assert!(
        samples > 10,
        "snapshot should carry the full metric families"
    );
}

#[test]
fn traced_run_streams_snapshots_to_a_live_scraper() {
    let (mut server, publisher) = serve_metrics("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr();
    assert!(
        install_live_publisher(publisher),
        "first install in this process"
    );

    // Before any run: the endpoint is up but reports no progress yet.
    let (status, body) = get(addr, "/health");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("status starting"), "{body}");

    let scenario = Scenario {
        nodes: 80,
        side: 500.0,
        radius: 100.0,
        ..Scenario::default()
    };
    let protocol = Protocol {
        warmup: 10.0,
        measure: 50.0,
        seeds: vec![7],
        dt: 0.5,
    };
    let ticks = ((protocol.warmup + protocol.measure) / protocol.dt).round() as u64;

    // Scrape concurrently while the traced run publishes its windows.
    let scraper = std::thread::spawn(move || {
        let mut live_metrics = 0u32;
        for _ in 0..200 {
            let (status, health) = get(addr, "/health");
            assert!(status.contains("200"));
            if health.contains("status ok") {
                let (_, metrics) = get(addr, "/metrics");
                assert_well_formed_metrics(&metrics);
                live_metrics += 1;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        live_metrics
    });

    let config = TelemetryConfig::in_memory("obs_plane")
        .with_attribution()
        .with_flight(128);
    let run = trace_run(&scenario, &protocol, &config, None).expect("in-memory run");
    let live_metrics = scraper.join().expect("scraper thread");
    assert!(
        live_metrics > 0,
        "at least one well-formed /metrics scrape while snapshots were live"
    );

    // The final snapshot reports the finished run's progress...
    let (_, health) = get(addr, "/health");
    assert!(health.contains("status ok"), "{health}");
    assert!(health.contains(&format!("tick {ticks}")), "{health}");
    assert!(health.contains("sim_time 60.000"), "{health}");
    assert!(health.contains("audit_violations 0"), "{health}");

    // ...and /metrics agrees with the run's own recorder totals and
    // carries the per-stage span histograms every traced run records.
    let (_, metrics) = get(addr, "/metrics");
    assert_well_formed_metrics(&metrics);
    assert!(metrics.contains("# TYPE manet_stage_seconds histogram"));
    assert!(metrics.contains(&format!(
        "manet_stage_seconds_count{{phase=\"tick\",shard=\"all\"}} {ticks}"
    )));
    assert!(metrics.contains(&format!(
        "manet_trace_events_total {}",
        run.recorder.events_seen()
    )));

    // The flight ring is served as parseable, replayable JSONL.
    let (_, flight_body) = get(addr, "/flight");
    let dir = std::env::temp_dir().join("manet_obs_plane_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("flight.jsonl");
    std::fs::write(&path, &flight_body).unwrap();
    let trace = manet_telemetry::read_trace(&path).expect("flight body is a valid trace");
    assert_eq!(
        trace.meta.as_ref().map(|m| m.label.as_str()),
        Some("obs_plane#flight:live")
    );
    assert_eq!(trace.events.len(), 128, "ring capacity retained");
    let _ = std::fs::remove_dir_all(&dir);

    server.shutdown();
}
