//! Metric names, units and the result line.
//!
//! Every workload reports every metric below: with `--trace 0` the
//! end-to-end set, with `--trace 1` the per-layer set. A per-layer metric
//! of a layer the workload does not drive reads 0 with 0 samples.

use std::fmt::Write as _;

/// End-to-end metrics (tracing off), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ticks_per_s", "ticks/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("miss_p50_ms", "ms"),
    ("miss_p90_ms", "ms"),
];

/// Per-layer metrics (the traced run), with units.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("failed_frac", "fraction"),
    ("hit_p50_ms", "ms"),
    ("jobs_per_s", "jobs/s"),
    ("tick.ms_per_tick", "ms"),
    ("mobility.ms_per_tick", "ms"),
    ("mobility.allocs_per_tick", "count"),
    ("topology.ms_per_tick", "ms"),
    ("topology.allocs_per_tick", "count"),
    ("topology.link_events_per_tick", "count"),
    ("cluster.ms_per_tick", "ms"),
    ("cluster.allocs_per_tick", "count"),
    ("cluster.msgs_per_tick", "count"),
    ("route.ms_per_tick", "ms"),
    ("route.allocs_per_tick", "count"),
    ("route.msgs_per_tick", "count"),
    ("route.entries_per_tick", "count"),
    ("world.self_ms_per_tick", "ms"),
    ("stack.allocs_per_tick", "count"),
    ("shard.ghosts_per_tick", "count"),
    ("shard.migrations_per_tick", "count"),
    ("shard.owned_imbalance", "ratio"),
    ("mobility.speedup_2w", "ratio"),
    ("topology.speedup_2w", "ratio"),
    ("cluster.speedup_2w", "ratio"),
    ("route.speedup_2w", "ratio"),
    ("setup.world_s", "s"),
    ("setup.form_s", "s"),
    ("setup.plane_s", "s"),
    ("setup.prime_s", "s"),
    ("runner.single_ms", "ms"),
    ("runner.robustness_ms", "ms"),
    ("trace.capture_ms", "ms"),
    ("http.submit_ms", "ms"),
    ("http.poll_ms", "ms"),
    ("http.fetch_ms", "ms"),
    ("http.polls_per_miss", "count"),
    ("spec.parse_us", "us"),
    ("result.render_us", "us"),
    ("jobs.overhead_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("tracing.overhead_pct", "%"),
];

/// One measured value and how many samples it summarizes.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: u64,
}

/// What a workload run produced: metrics (both sets; the caller prints
/// the one `--trace` selects), the checked-operation tally, and the run
/// facts.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub facts: Vec<(&'static str, String)>,
    /// One line per failed check, printed before the result line.
    pub failures: Vec<String>,
    /// Where the traced run's spans were written.
    pub spans_file: Option<String>,
}

impl Outcome {
    /// Records `value` summarizing `samples` samples under `name`.
    pub fn put(&mut self, name: &'static str, value: f64, samples: u64) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// Records a run fact (printed with the result).
    pub fn fact(&mut self, key: &'static str, value: impl ToString) {
        self.facts.push((key, value.to_string()));
    }

    /// Tallies `attempted` checked operations of which `failed` failed,
    /// noting `why` when any did.
    pub fn check(&mut self, attempted: u64, failed: u64, why: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures.push(why());
        }
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<Metric> {
        self.metrics.iter().copied().find(|m| m.name == name)
    }
}

/// The metric set `--trace` selects, in declaration order; a metric the
/// workload did not record reads 0 with 0 samples.
pub fn selected(outcome: &Outcome, traced: bool) -> Vec<(Metric, &'static str)> {
    let names: &[(&'static str, &'static str)] = if traced { &PER_LAYER } else { &END_TO_END };
    names
        .iter()
        .map(|&(name, unit)| {
            let m = outcome.get(name).unwrap_or(Metric {
                name,
                value: 0.0,
                samples: 0,
            });
            (m, unit)
        })
        .collect()
}

/// Prints the human-readable report and, as the last line, the JSON
/// result object.
pub fn print(workload: &str, outcome: &Outcome, traced: bool) {
    println!("# perfbench {workload} (trace {})", u8::from(traced));
    let mut facts = String::from("{");
    for (i, (k, v)) in outcome.facts.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(facts, "{sep}\"{k}\": \"{}\"", escape(v));
    }
    facts.push('}');
    println!("# facts {facts}");
    if let Some(path) = &outcome.spans_file {
        println!("# spans {path}");
    }
    for why in &outcome.failures {
        println!("# FAILED {why}");
    }
    let rows = selected(outcome, traced);
    for (m, unit) in &rows {
        println!(
            "{:<30} {:>16.6} {:<9} n={}",
            m.name, m.value, unit, m.samples
        );
    }
    println!("{}", result_line(outcome, &rows));
}

/// The result object: `correct`, `attempted`, `failed` and the metrics.
pub fn result_line(outcome: &Outcome, rows: &[(Metric, &'static str)]) -> String {
    let mut metrics = String::new();
    for (i, (m, unit)) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            m.name
        );
    }
    // A run that checked nothing has failed: it cannot show correct output.
    let (attempted, failed) = match outcome.attempted {
        0 => (1, 1),
        n => (n, outcome.failed),
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0
    )
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
