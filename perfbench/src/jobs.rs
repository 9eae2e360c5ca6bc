//! The `jobs-mix` workload: the `manet-jobs` server on loopback with its
//! default config, driven over HTTP by closed-loop clients.
//!
//! Each client submits a job, polls `GET /jobs/:id` every [`POLL`] until it
//! is done (the API has no push), fetches `/result`, and only then sends
//! its next job. Half the jobs repeat a spec the same client completed
//! recently (cache hits); the rest are fresh-seed misses: 60% plain
//! `single` points, 20% `robustness` specs with one lossy row and crash
//! churn, 20% `single` with `"trace": true`, each N = 200 for 60 ticks.
//!
//! The traced run repeats the mix on a fresh server with the same seed,
//! recording submit, poll and fetch spans per job id, then calls the
//! library directly for every distinct miss spec: the service's bytes must
//! equal `result_json(run_scenario(spec))`.

use crate::report::Outcome;
use crate::stats;
use manet_experiments::spec::{result_json, run_scenario, ScenarioSpec};
use manet_experiments::trace::{trace_run_to_string, TelemetryConfig};
use manet_jobs::{JobServer, JobServerConfig};
use manet_util::json::Value;
use manet_util::Rng;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop client threads.
pub const CLIENTS: usize = 2;
/// Interval between status polls of an in-flight job.
pub const POLL: Duration = Duration::from_millis(5);
/// A job not done after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);
/// Hits repeat one of the client's last `RECENT` completed misses. Both
/// clients together insert far fewer than the cache cap (256) in that
/// window, so every repeat is still cached.
const RECENT: usize = 16;
/// Server starts timed for `setup_s`.
const SETUP_REPS: usize = 25;
/// Distinct miss specs per class re-run directly in an untraced run.
const DIRECT_SAMPLE: usize = 2;
/// `peak_rss_mib` is read once this many jobs have completed. The server
/// retains every finished job's result and trace, so a reading at the end
/// of the window would grow with throughput instead of showing the
/// footprint of a fixed amount of served work.
const RSS_AFTER_JOBS: usize = 200;

/// The miss specs: N = 200 at the paper's density, r = 150 m, v = 10 m/s.
const NODES: usize = 200;
const SIDE: f64 = 707.106_781_186_547_5;
const WARMUP: f64 = 5.0;
const MEASURE: f64 = 10.0;
const DT: f64 = 0.25;
const LOSS: f64 = 0.1;
const CRASH_RATE: f64 = 0.002;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Class {
    Hit,
    Plain,
    Robust,
    Trace,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Plain => "single",
            Class::Robust => "robustness",
            Class::Trace => "single+trace",
        }
    }

    /// Protocol-stack ticks the service simulates for a miss of this class
    /// (a trace job re-runs the scenario to capture it).
    fn ticks(self) -> u64 {
        let per_run = ((WARMUP / DT).round() + (MEASURE / DT).round()) as u64;
        match self {
            Class::Hit => 0,
            Class::Plain | Class::Robust => per_run,
            Class::Trace => 2 * per_run,
        }
    }
}

fn spec_text(class: Class, seed: u64) -> String {
    let base = format!(
        "\"nodes\": {NODES}, \"side\": {SIDE}, \"radius\": 150, \"speed\": 10, \"epoch\": 20, \
         \"warmup\": {WARMUP}, \"measure\": {MEASURE}, \"dt\": {DT}, \"seeds\": [{seed}]"
    );
    match class {
        Class::Plain => format!("{{\"kind\": \"single\", {base}}}"),
        Class::Trace => format!("{{\"kind\": \"single\", {base}, \"trace\": true}}"),
        Class::Robust => format!(
            "{{\"kind\": \"robustness\", {base}, \"fault\": {{\"loss\": [{LOSS}], \
             \"crash_rate\": {CRASH_RATE}, \"burst\": false}}}}"
        ),
        Class::Hit => unreachable!("hits repeat an earlier spec"),
    }
}

/// One client's seeded job generator. Classes are drawn in shuffled
/// blocks of [`BLOCK`], so every block holds the exact shares (5 hits,
/// 3 single, 1 robustness, 1 traced single) and a run's mix, and with it
/// the memory retained by trace jobs, does not drift with the seed.
struct Mix {
    rng: Rng,
    block: Vec<Class>,
    /// The client's most recent completed misses (spec texts).
    recent: VecDeque<String>,
}

const BLOCK: [Class; 10] = [
    Class::Hit,
    Class::Hit,
    Class::Hit,
    Class::Hit,
    Class::Hit,
    Class::Plain,
    Class::Plain,
    Class::Plain,
    Class::Robust,
    Class::Trace,
];

impl Mix {
    fn new(seed: u64, client: usize) -> Mix {
        let mut root = Rng::seed_from_u64(seed);
        Mix {
            rng: root.fork(client as u64 + 1),
            block: Vec::new(),
            recent: VecDeque::new(),
        }
    }

    /// The next job: its class and spec text (`Hit` repeats a recent miss).
    fn next(&mut self) -> (Class, String) {
        if self.block.is_empty() {
            self.block = BLOCK.to_vec();
            self.rng.shuffle(&mut self.block);
        }
        // Nothing to repeat yet: run a miss of the block first.
        let k = if self.recent.is_empty() {
            self.block
                .iter()
                .position(|&c| c != Class::Hit)
                .expect("every block holds misses")
        } else {
            self.block.len() - 1
        };
        let class = self.block.swap_remove(k);
        if class == Class::Hit {
            let k = self.rng.usize_below(self.recent.len());
            return (class, self.recent[k].clone());
        }
        // Seeds stay below 2^48 so the JSON number round-trips exactly.
        (class, spec_text(class, self.rng.u64() >> 16))
    }

    fn completed(&mut self, class: Class, text: &str) {
        if class != Class::Hit {
            self.recent.push_back(text.to_string());
            if self.recent.len() > RECENT {
                self.recent.pop_front();
            }
        }
    }
}

/// One HTTP exchange on a fresh connection: status code and body.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(JOB_TIMEOUT))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response");
    let code = text
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(bad)?;
    let (_, body) = text.split_once("\r\n\r\n").ok_or_else(bad)?;
    Ok((code, body.to_string()))
}

/// A span a client recorded: `job` is the server's job id.
#[derive(Debug, Clone, Copy)]
struct Span {
    job: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// One finished job as its client saw it.
#[derive(Debug)]
struct JobRecord {
    class: Class,
    text: String,
    latency_ms: f64,
    submit_ms: f64,
    poll_ms: Vec<f64>,
    fetch_ms: f64,
    /// Result bytes (misses only; hits are checked in place).
    bytes: Option<String>,
    /// Why the job failed its check, if it did.
    error: Option<String>,
}

/// Runs one job start to finish. `reference` maps the client's completed
/// specs to their first result bytes; `plant` corrupts the reference a
/// hit is checked against.
fn run_job(
    addr: SocketAddr,
    class: Class,
    text: String,
    reference: &mut HashMap<String, String>,
    plant: &mut bool,
    spans: Option<(&mut Vec<Span>, Instant)>,
) -> JobRecord {
    let mut rec = JobRecord {
        class,
        text,
        latency_ms: 0.0,
        submit_ms: 0.0,
        poll_ms: Vec::new(),
        fetch_ms: 0.0,
        bytes: None,
        error: None,
    };
    let mut local = Vec::new();
    let t0 = Instant::now();
    let outcome = (|| -> Result<String, String> {
        let s0 = Instant::now();
        let (code, body) =
            request(addr, "POST", "/jobs", &rec.text).map_err(|e| format!("submit: {e}"))?;
        rec.submit_ms = stats::ms(s0.elapsed());
        local.push(("submit", s0, Instant::now()));
        let doc = Value::parse(&body).map_err(|e| format!("submit body: {e}"))?;
        let id = doc.get("id").and_then(Value::as_u64);
        let hit = match code {
            200 => true,
            202 => false,
            other => return Err(format!("submit answered {other}: {body}")),
        };
        let id = id.ok_or("submit body has no id")?;
        if hit != (class == Class::Hit) {
            return Err(format!(
                "expected a cache {}, got the other",
                if class == Class::Hit { "hit" } else { "miss" }
            ));
        }
        if !hit {
            loop {
                if t0.elapsed() > JOB_TIMEOUT {
                    return Err("timed out".to_string());
                }
                std::thread::sleep(POLL);
                let p0 = Instant::now();
                let (code, body) = request(addr, "GET", &format!("/jobs/{id}"), "")
                    .map_err(|e| format!("poll: {e}"))?;
                rec.poll_ms.push(stats::ms(p0.elapsed()));
                local.push(("poll", p0, Instant::now()));
                if code != 200 {
                    return Err(format!("poll answered {code}"));
                }
                let doc = Value::parse(&body).map_err(|e| format!("poll body: {e}"))?;
                match doc.get("status").and_then(Value::as_str) {
                    Some("done") => break,
                    Some("queued" | "running") => {}
                    other => return Err(format!("job ended {other:?}")),
                }
            }
        }
        let f0 = Instant::now();
        let (code, bytes) = request(addr, "GET", &format!("/jobs/{id}/result"), "")
            .map_err(|e| format!("fetch: {e}"))?;
        rec.fetch_ms = stats::ms(f0.elapsed());
        local.push(("fetch", f0, Instant::now()));
        if code != 200 {
            return Err(format!("result answered {code}"));
        }
        if let Some(spans) = spans {
            let (store, origin) = spans;
            for (name, a, b) in local.drain(..) {
                store.push(Span {
                    job: id,
                    name,
                    start_ns: a.duration_since(origin).as_nanos() as u64,
                    end_ns: b.duration_since(origin).as_nanos() as u64,
                });
            }
        }
        Ok(bytes)
    })();
    rec.latency_ms = stats::ms(t0.elapsed());
    match outcome {
        Err(why) => rec.error = Some(why),
        Ok(bytes) if class == Class::Hit => match reference.get(&rec.text) {
            None => rec.error = Some("hit on a spec this client never completed".to_string()),
            Some(expected) => {
                let corrupted;
                let expected = if std::mem::take(plant) {
                    corrupted = format!("{expected} ");
                    &corrupted
                } else {
                    expected
                };
                if *expected != bytes {
                    rec.error = Some("hit bytes differ from the first miss's bytes".to_string());
                }
            }
        },
        Ok(bytes) => {
            reference.insert(rec.text.clone(), bytes.clone());
            rec.bytes = Some(bytes);
        }
    }
    rec
}

/// One pass of the mix against a fresh server.
struct Pass {
    jobs: Vec<JobRecord>,
    spans: Vec<Span>,
    window_s: f64,
    /// Time from server start until `GET /health` first answered, per start.
    setup_s: Vec<f64>,
    peak_rss_mib: f64,
    hit_ratio: f64,
}

/// Starts a server and waits for `/health`; returns it with the wait.
fn start_server() -> Result<(JobServer, SocketAddr, f64), String> {
    let t0 = Instant::now();
    let server = JobServer::serve("127.0.0.1:0", JobServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().ok_or("server has no address")?;
    loop {
        if let Ok((200, _)) = request(addr, "GET", "/health", "") {
            break;
        }
        if t0.elapsed() > Duration::from_secs(10) {
            return Err("server never answered /health".to_string());
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    Ok((server, addr, t0.elapsed().as_secs_f64()))
}

fn cache_hit_ratio(addr: SocketAddr) -> Result<f64, String> {
    let (_, text) = request(addr, "GET", "/metrics", "").map_err(|e| format!("metrics: {e}"))?;
    let counter = |name: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
            .unwrap_or(0.0)
    };
    let hits = counter("manet_jobs_cache_hits_total ");
    let misses = counter("manet_jobs_cache_misses_total ");
    Ok(if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    })
}

fn run_pass(
    seed: u64,
    seconds: f64,
    setup_reps: usize,
    traced: bool,
    plant: bool,
) -> Result<Pass, String> {
    let mut setup_s = Vec::with_capacity(setup_reps);
    let mut server = None;
    for _ in 0..setup_reps {
        if let Some((s, _)) = server.take() {
            JobServer::shutdown(s);
        }
        let (s, addr, wait) = start_server()?;
        setup_s.push(wait);
        server = Some((s, addr));
    }
    let (server, addr) = server.expect("setup_reps >= 1");
    let completed = AtomicUsize::new(0);
    let rss_bits = AtomicU64::new(0);
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<JobRecord>, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (completed, rss_bits) = (&completed, &rss_bits);
                scope.spawn(move || {
                    let mut mix = Mix::new(seed, client);
                    let mut reference = HashMap::new();
                    let mut plant = plant && client == 0;
                    let mut jobs = Vec::new();
                    let mut spans = Vec::new();
                    while Instant::now() < deadline {
                        let (class, text) = mix.next();
                        let rec = run_job(
                            addr,
                            class,
                            text,
                            &mut reference,
                            &mut plant,
                            traced.then_some((&mut spans, origin)),
                        );
                        if rec.error.is_none() {
                            mix.completed(class, &rec.text);
                        }
                        jobs.push(rec);
                        if completed.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER_JOBS {
                            rss_bits.store(stats::peak_rss_mib().to_bits(), Ordering::Relaxed);
                        }
                    }
                    (jobs, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window_s = origin.elapsed().as_secs_f64();
    // A window too short for RSS_AFTER_JOBS jobs reads at its end.
    let peak_rss_mib = match rss_bits.into_inner() {
        0 => stats::peak_rss_mib(),
        bits => f64::from_bits(bits),
    };
    let hit_ratio = cache_hit_ratio(addr)?;
    server.shutdown();
    let (mut jobs, mut spans) = (Vec::new(), Vec::new());
    for (j, s) in per_client {
        jobs.extend(j);
        spans.extend(s);
    }
    Ok(Pass {
        jobs,
        spans,
        window_s,
        setup_s,
        peak_rss_mib,
        hit_ratio,
    })
}

fn latencies(pass: &Pass, pick: impl Fn(Class) -> bool) -> Vec<f64> {
    pass.jobs
        .iter()
        .filter(|j| j.error.is_none() && pick(j.class))
        .map(|j| j.latency_ms)
        .collect()
}

/// Direct library timings of one distinct miss spec.
struct Direct {
    class: Class,
    parse_us: f64,
    run_ms: f64,
    render_us: f64,
    capture_ms: Option<f64>,
    service_ms: f64,
}

/// Re-runs `text` through the library and checks the service's bytes.
fn direct(
    class: Class,
    text: &str,
    service: &str,
    service_ms: f64,
    plant: bool,
) -> Result<(Direct, bool), String> {
    let t0 = Instant::now();
    let spec = ScenarioSpec::from_json(text)?;
    let _key = std::hint::black_box(spec.canonical());
    let parse_us = t0.elapsed().as_secs_f64() * 1e6;
    let t1 = Instant::now();
    let output = run_scenario(&spec, None).map_err(|e| e.to_string())?;
    let run_ms = stats::ms(t1.elapsed());
    let t2 = Instant::now();
    let mut bytes = result_json(&spec, &output).to_string();
    let render_us = t2.elapsed().as_secs_f64() * 1e6;
    let capture_ms = if spec.trace {
        let t3 = Instant::now();
        let config = TelemetryConfig::in_memory(spec.kind.name());
        let (_, jsonl) = trace_run_to_string(
            &spec.scenario(),
            &spec.protocol(),
            &config,
            spec.shard_run().as_ref(),
        )
        .map_err(|e| format!("trace capture: {e}"))?;
        std::hint::black_box(jsonl);
        Some(stats::ms(t3.elapsed()))
    } else {
        None
    };
    if plant {
        bytes.push(' ');
    }
    let same = bytes == service;
    Ok((
        Direct {
            class,
            parse_us,
            run_ms,
            render_us,
            capture_ms,
            service_ms,
        },
        same,
    ))
}

/// Runs `jobs-mix` for `seconds`. With `traced`, a second pass records
/// spans and every distinct miss spec is re-run directly. With `plant`,
/// one hit's reference bytes and one direct result are corrupted.
pub fn run(seed: u64, seconds: f64, traced: bool, plant: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.fact("layout", "mono");
    out.fact("workers", JobServerConfig::default().workers);
    out.fact("cache_cap", JobServerConfig::default().cache_cap);
    out.fact("loop", "closed");
    out.fact("clients", CLIENTS);
    out.fact("poll_ms", POLL.as_millis());

    let plain = run_pass(seed, seconds, SETUP_REPS, false, plant)?;
    out.put(
        "setup_s",
        stats::median(&plain.setup_s),
        plain.setup_s.len() as u64,
    );
    out.put("peak_rss_mib", plain.peak_rss_mib, 1);
    let done = plain.jobs.iter().filter(|j| j.error.is_none()).count();
    let ticks: u64 = plain
        .jobs
        .iter()
        .filter(|j| j.error.is_none())
        .map(|j| j.class.ticks())
        .sum();
    out.put("ticks_per_s", ticks as f64 / plain.window_s, ticks);
    out.put("jobs_per_s", done as f64 / plain.window_s, done as u64);
    let misses = latencies(&plain, |c| c != Class::Hit);
    let hits = latencies(&plain, |c| c == Class::Hit);
    out.put(
        "miss_p50_ms",
        stats::quantile(&misses, 0.5),
        misses.len() as u64,
    );
    out.put(
        "miss_p90_ms",
        stats::quantile(&misses, 0.9),
        misses.len() as u64,
    );
    out.put("hit_p50_ms", stats::quantile(&hits, 0.5), hits.len() as u64);
    out.put("cache.hit_ratio", plain.hit_ratio, plain.jobs.len() as u64);
    for class in [Class::Hit, Class::Plain, Class::Robust, Class::Trace] {
        let n = plain.jobs.iter().filter(|j| j.class == class).count();
        out.fact(
            match class {
                Class::Hit => "jobs_hit",
                Class::Plain => "jobs_single",
                Class::Robust => "jobs_robustness",
                Class::Trace => "jobs_single_trace",
            },
            n,
        );
    }
    tally(&plain, "untraced", &mut out);

    // Direct re-runs: a sample of each class untraced, every distinct miss
    // spec of the traced pass when tracing.
    let checked = if traced {
        let pass = run_pass(seed, seconds, 1, true, false)?;
        tally(&pass, "traced", &mut out);
        let traced_misses = latencies(&pass, |c| c != Class::Hit);
        out.put(
            "tracing.overhead_pct",
            (stats::median(&traced_misses) / stats::median(&misses) - 1.0) * 100.0,
            traced_misses.len() as u64,
        );
        put_http(&pass, &mut out);
        out.spans_file = Some(write_spans(seed, &pass.spans));
        pass
    } else {
        plain
    };
    let per_class = if traced { usize::MAX } else { DIRECT_SAMPLE };
    let mut taken: HashMap<Class, usize> = HashMap::new();
    let mut directs = Vec::new();
    let mut planted = plant;
    let mut differing = Vec::new();
    for j in checked.jobs.iter().filter(|j| j.error.is_none()) {
        let Some(bytes) = &j.bytes else { continue };
        let n = taken.entry(j.class).or_default();
        if *n >= per_class {
            continue;
        }
        *n += 1;
        let (d, same) = direct(
            j.class,
            &j.text,
            bytes,
            j.latency_ms,
            std::mem::take(&mut planted),
        )?;
        if !same {
            differing.push(j.class.name());
        }
        directs.push(d);
    }
    out.check(directs.len() as u64, differing.len() as u64, || {
        format!(
            "service bytes differ from direct result_json(run_scenario) bytes for {differing:?}"
        )
    });
    put_direct(&directs, &mut out);
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.put("failed_frac", failed_frac, out.attempted);
    Ok(out)
}

/// Counts each job of `pass` as one checked operation.
fn tally(pass: &Pass, label: &str, out: &mut Outcome) {
    let failed: Vec<&JobRecord> = pass.jobs.iter().filter(|j| j.error.is_some()).collect();
    let first = failed.first().map(|j| {
        format!(
            "{} job: {}",
            j.class.name(),
            j.error.as_deref().unwrap_or("")
        )
    });
    out.check(pass.jobs.len() as u64, failed.len() as u64, || {
        format!(
            "{} of {} {label} jobs failed; first: {}",
            failed.len(),
            pass.jobs.len(),
            first.unwrap_or_default()
        )
    });
}

fn put_http(pass: &Pass, out: &mut Outcome) {
    let ok: Vec<&JobRecord> = pass.jobs.iter().filter(|j| j.error.is_none()).collect();
    let submit: Vec<f64> = ok.iter().map(|j| j.submit_ms).collect();
    let fetch: Vec<f64> = ok.iter().map(|j| j.fetch_ms).collect();
    let polls: Vec<f64> = ok.iter().flat_map(|j| j.poll_ms.iter().copied()).collect();
    let missed: Vec<&&JobRecord> = ok.iter().filter(|j| j.class != Class::Hit).collect();
    out.put(
        "http.submit_ms",
        stats::median(&submit),
        submit.len() as u64,
    );
    out.put("http.fetch_ms", stats::median(&fetch), fetch.len() as u64);
    out.put("http.poll_ms", stats::median(&polls), polls.len() as u64);
    out.put(
        "http.polls_per_miss",
        stats::mean(
            &missed
                .iter()
                .map(|j| j.poll_ms.len() as f64)
                .collect::<Vec<_>>(),
        ),
        missed.len() as u64,
    );
}

fn put_direct(directs: &[Direct], out: &mut Outcome) {
    let of = |pick: &dyn Fn(&Direct) -> Option<f64>| -> Vec<f64> {
        directs.iter().filter_map(pick).collect()
    };
    let parse = of(&|d| Some(d.parse_us));
    let render = of(&|d| Some(d.render_us));
    let single = of(&|d| (d.class != Class::Robust).then_some(d.run_ms));
    let robust = of(&|d| (d.class == Class::Robust).then_some(d.run_ms));
    let capture = of(&|d| d.capture_ms);
    // Service latency minus the library time the same spec costs directly.
    let overhead =
        of(&|d| Some(d.service_ms - d.run_ms - d.render_us / 1e3 - d.capture_ms.unwrap_or(0.0)));
    out.put("spec.parse_us", stats::median(&parse), parse.len() as u64);
    out.put(
        "result.render_us",
        stats::median(&render),
        render.len() as u64,
    );
    out.put(
        "runner.single_ms",
        stats::median(&single),
        single.len() as u64,
    );
    out.put(
        "runner.robustness_ms",
        stats::median(&robust),
        robust.len() as u64,
    );
    out.put(
        "trace.capture_ms",
        stats::median(&capture),
        capture.len() as u64,
    );
    out.put(
        "jobs.overhead_ms",
        stats::median(&overhead),
        overhead.len() as u64,
    );
}

fn write_spans(seed: u64, spans: &[Span]) -> String {
    let path = crate::spans_path("jobs-mix", seed);
    let written = (|| -> io::Result<()> {
        if let Some(dir) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(&path)?);
        for s in spans {
            writeln!(
                w,
                "{{\"job\": {}, \"span\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.job, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    })();
    match written {
        Ok(()) => path,
        Err(e) => format!("(not written: {e})"),
    }
}
