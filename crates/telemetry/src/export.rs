//! Prometheus text-exposition snapshot exporter.
//!
//! [`prometheus_text`] renders a [`WindowedRecorder`] (and optionally an
//! [`AttributionLedger`], a [`ShardSnapshot`] and a [`SpanRecorder`]) as
//! Prometheus text exposition format 0.0.4 —
//! `# HELP` / `# TYPE` comment pairs followed by `name{labels} value`
//! samples. Experiments write the snapshot at end of run via
//! `--metrics-out <path>`, so any scrape-file collector (e.g. the node
//! exporter's textfile module) can ingest a simulation's totals without
//! parsing the JSONL trace.

use crate::attribution::AttributionLedger;
use crate::cause::RootCause;
use crate::event::MsgClass;
use crate::hist::Histogram;
use crate::span::{SpanLabel, SpanRecorder};
use crate::window::WindowedRecorder;
use std::fmt::Write;

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Writes one series of a histogram family: cumulative `{name}_bucket`
/// lines at the histogram's non-empty log2 edges, the `le="+Inf"` bucket,
/// then `{name}_sum` and `{name}_count`. `labels` is the series' label
/// list without braces, its values already escaped.
pub fn write_histogram(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    let mut cum = 0u64;
    for (edge, count) in h.buckets() {
        cum += count;
        let _ = writeln!(out, "{name}_bucket{{{labels},le=\"{edge}\"}} {cum}");
    }
    let _ = writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {}", h.count());
    let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum());
    let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count());
}

/// Escapes a label value per the text-exposition grammar: backslash,
/// double quote, and newline must be backslash-escaped inside the quoted
/// value. Today's label values are all static identifiers, but every
/// interpolation site routes through here so a future free-form label
/// (run labels, file paths) cannot corrupt the format — pinned by the
/// conformance test.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Per-shard totals for the exporter. The telemetry crate sits below
/// `manet-shard` in the dependency graph, so the shard plane fills this
/// neutral mirror of its `ShardStats` rather than handing us the struct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardGaugeRow {
    /// Row-major shard index.
    pub shard: u16,
    /// Nodes owned at snapshot time.
    pub owned: u64,
    /// Ghost rows held at snapshot time.
    pub ghosts: u64,
    /// Nodes that migrated in on the last tick.
    pub migrations_in: u64,
    /// Nodes that migrated out on the last tick.
    pub migrations_out: u64,
    /// Cross-shard links observed on the last tick.
    pub boundary_links: u64,
}

/// A point-in-time view of the shard plane and its interconnect, rendered
/// by [`prometheus_text`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// One row per shard, in row-major order.
    pub shards: Vec<ShardGaugeRow>,
    /// Directed shard links currently healthy.
    pub links_up: u64,
    /// Directed shard links with recent failures (below the down threshold).
    pub links_degraded: u64,
    /// Directed shard links past the consecutive-failure threshold.
    pub links_down: u64,
    /// Worst ghost-view age across all directed links, in ticks.
    pub max_ghost_staleness: u64,
}

/// Renders a snapshot of `recorder` in Prometheus text exposition format:
/// counters and gauges from the recorder, the per-root-cause families
/// when a `ledger` is supplied (attribution ran), per-shard and
/// interconnect-health gauges when a `shard` snapshot is supplied, and —
/// when a non-empty [`SpanRecorder`] is supplied — the
/// `manet_stage_seconds{phase=,shard=}` histogram family built from the
/// span plane's per-(stage, shard) log2 histograms. The `shard` label is
/// `"all"` for main-thread spans and the shard index for worker-side
/// spans; buckets are cumulative `le` edges per the exposition format.
pub fn prometheus_text(
    recorder: &WindowedRecorder,
    ledger: Option<&AttributionLedger>,
    shard: Option<&ShardSnapshot>,
    spans: Option<&SpanRecorder>,
) -> String {
    let mut out = String::new();

    header(
        &mut out,
        "manet_msgs_total",
        "Control messages sent, by class.",
        "counter",
    );
    for class in MsgClass::ALL {
        let _ = writeln!(
            out,
            "manet_msgs_total{{class=\"{}\"}} {}",
            escape_label_value(class.name()),
            recorder.total_msgs(class)
        );
    }

    header(
        &mut out,
        "manet_msgs_lost_total",
        "Deliveries dropped by the fault plane, by class.",
        "counter",
    );
    for class in MsgClass::ALL {
        let _ = writeln!(
            out,
            "manet_msgs_lost_total{{class=\"{}\"}} {}",
            escape_label_value(class.name()),
            recorder.total_lost(class)
        );
    }

    let mut links_up = 0u64;
    let mut links_down = 0u64;
    let mut crashes = 0u64;
    let mut recoveries = 0u64;
    let mut elections = 0u64;
    let mut resignations = 0u64;
    let mut reaffiliations = 0u64;
    let mut head_losses = 0u64;
    let mut route_rounds = 0u64;
    let mut retx = 0u64;
    let mut ic_lost = 0u64;
    let mut stalls = 0u64;
    let mut stale_drops = 0u64;
    let mut ic_recoveries = 0u64;
    for w in recorder.windows() {
        links_up += w.links_up;
        links_down += w.links_down;
        crashes += w.crashes;
        recoveries += w.recoveries;
        elections += w.head_elections;
        resignations += w.head_resignations;
        reaffiliations += w.reaffiliations;
        head_losses += w.head_losses;
        route_rounds += w.route_rounds;
        retx += w.retx_scheduled;
        ic_lost += w.interconnect_lost;
        stalls += w.shard_stalls;
        stale_drops += w.ghost_stale_drops;
        ic_recoveries += w.interconnect_recoveries;
    }
    for (name, help, value) in [
        ("manet_links_up_total", "Links formed.", links_up),
        ("manet_links_down_total", "Links broken.", links_down),
        ("manet_node_crashes_total", "Node crashes.", crashes),
        (
            "manet_node_recoveries_total",
            "Node recoveries.",
            recoveries,
        ),
        (
            "manet_head_elections_total",
            "Head self-promotions.",
            elections,
        ),
        (
            "manet_head_resignations_total",
            "Head resignations after head-head contact.",
            resignations,
        ),
        (
            "manet_reaffiliations_total",
            "Member cluster switches.",
            reaffiliations,
        ),
        (
            "manet_head_losses_total",
            "Members orphaned by a lost head.",
            head_losses,
        ),
        (
            "manet_route_rounds_total",
            "ROUTE broadcast rounds started.",
            route_rounds,
        ),
        (
            "manet_retx_scheduled_total",
            "Retransmissions scheduled into backoff.",
            retx,
        ),
        (
            "manet_interconnect_lost_total",
            "Shard-interconnect batch entries lost.",
            ic_lost,
        ),
        (
            "manet_shard_stalls_total",
            "Shard interconnect-stall onsets.",
            stalls,
        ),
        (
            "manet_ghost_stale_drops_total",
            "Ghost entries dropped past the staleness bound.",
            stale_drops,
        ),
        (
            "manet_interconnect_recoveries_total",
            "Shard-link resyncs after missed syncs.",
            ic_recoveries,
        ),
    ] {
        header(&mut out, name, help, "counter");
        let _ = writeln!(out, "{name} {value}");
    }

    header(
        &mut out,
        "manet_cluster_heads",
        "Mean cluster-head count over the last gauged window.",
        "gauge",
    );
    let heads = recorder
        .windows()
        .iter()
        .rev()
        .find_map(|w| w.mean_heads())
        .unwrap_or(0.0);
    let _ = writeln!(out, "manet_cluster_heads {heads}");

    header(
        &mut out,
        "manet_trace_events_total",
        "Telemetry events recorded.",
        "counter",
    );
    let _ = writeln!(out, "manet_trace_events_total {}", recorder.events_seen());

    if let Some(snap) = shard {
        for (name, help, field) in [
            (
                "manet_shard_owned",
                "Nodes owned per shard.",
                (|r: &ShardGaugeRow| r.owned) as fn(&ShardGaugeRow) -> u64,
            ),
            (
                "manet_shard_ghosts",
                "Ghost rows held per shard.",
                |r: &ShardGaugeRow| r.ghosts,
            ),
            (
                "manet_shard_migrations_in",
                "Nodes migrated in per shard on the last tick.",
                |r: &ShardGaugeRow| r.migrations_in,
            ),
            (
                "manet_shard_migrations_out",
                "Nodes migrated out per shard on the last tick.",
                |r: &ShardGaugeRow| r.migrations_out,
            ),
            (
                "manet_shard_boundary_links",
                "Cross-shard links per shard on the last tick.",
                |r: &ShardGaugeRow| r.boundary_links,
            ),
        ] {
            header(&mut out, name, help, "gauge");
            for row in &snap.shards {
                let _ = writeln!(out, "{name}{{shard=\"{}\"}} {}", row.shard, field(row));
            }
        }

        header(
            &mut out,
            "manet_shard_links",
            "Directed shard links, by interconnect health.",
            "gauge",
        );
        for (health, value) in [
            ("up", snap.links_up),
            ("degraded", snap.links_degraded),
            ("down", snap.links_down),
        ] {
            let _ = writeln!(out, "manet_shard_links{{health=\"{health}\"}} {value}");
        }

        header(
            &mut out,
            "manet_ghost_staleness_max",
            "Worst ghost-view age across directed shard links, in ticks.",
            "gauge",
        );
        let _ = writeln!(
            out,
            "manet_ghost_staleness_max {}",
            snap.max_ghost_staleness
        );
    }

    if let Some(spans) = spans.filter(|s| !s.is_empty()) {
        header(
            &mut out,
            "manet_stage_seconds",
            "Span wall-clock seconds per pipeline stage and shard.",
            "histogram",
        );
        for slot in 0..spans.shard_slots() {
            let shard_label = if slot == 0 {
                "all".to_string()
            } else {
                (slot - 1).to_string()
            };
            for label in SpanLabel::ALL {
                let sh = (slot > 0).then(|| (slot - 1) as u16);
                let Some(h) = spans.hist(label, sh) else {
                    continue;
                };
                let base = format!(
                    "phase=\"{}\",shard=\"{}\"",
                    escape_label_value(label.name()),
                    shard_label
                );
                write_histogram(&mut out, "manet_stage_seconds", &base, h);
            }
        }
    }

    if let Some(ledger) = ledger {
        header(
            &mut out,
            "manet_cause_events_total",
            "Root events recorded, by root cause (weighted anchors).",
            "counter",
        );
        for root in RootCause::ALL {
            let _ = writeln!(
                out,
                "manet_cause_events_total{{root=\"{}\"}} {}",
                escape_label_value(root.name()),
                ledger.root_weight_total(root)
            );
        }

        header(
            &mut out,
            "manet_cause_msgs_total",
            "Attributed control messages, by root cause and class.",
            "counter",
        );
        for root in RootCause::ALL {
            for class in MsgClass::ALL {
                let msgs = ledger.msgs(root, class);
                if msgs > 0 {
                    let _ = writeln!(
                        out,
                        "manet_cause_msgs_total{{root=\"{}\",class=\"{}\"}} {msgs}",
                        escape_label_value(root.name()),
                        escape_label_value(class.name())
                    );
                }
            }
        }

        header(
            &mut out,
            "manet_cause_unit_cost",
            "Measured messages per root event, by root cause and class.",
            "gauge",
        );
        for root in RootCause::ALL {
            for class in MsgClass::ALL {
                if let Some(cost) = ledger.unit_cost(root, class) {
                    if cost > 0.0 {
                        let _ = writeln!(
                            out,
                            "manet_cause_unit_cost{{root=\"{}\",class=\"{}\"}} {cost}",
                            escape_label_value(root.name()),
                            escape_label_value(class.name())
                        );
                    }
                }
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cause::{Cause, CauseId};
    use crate::event::{Event, EventKind, Layer};

    #[test]
    fn snapshot_contains_well_formed_samples() {
        let mut rec = WindowedRecorder::new(5.0);
        let mut ledger = AttributionLedger::new();
        let gen = Cause {
            id: CauseId(0),
            root: RootCause::LinkGen,
        };
        for e in [
            Event {
                time: 1.0,
                layer: Layer::Sim,
                kind: EventKind::LinkUp { a: 0, b: 1 },
                cause: Some(gen),
            },
            Event {
                time: 1.0,
                layer: Layer::Sim,
                kind: EventKind::MsgSent {
                    class: MsgClass::Hello,
                    count: 2,
                },
                cause: Some(gen),
            },
            Event {
                time: 2.0,
                layer: Layer::Sim,
                kind: EventKind::ClusterGauge { heads: 7 },
                cause: None,
            },
        ] {
            rec.absorb(&e);
            ledger.absorb(&e);
        }

        let text = prometheus_text(&rec, Some(&ledger), None, None);
        assert!(text.contains("# TYPE manet_msgs_total counter"));
        assert!(text.contains("manet_msgs_total{class=\"HELLO\"} 2"));
        assert!(text.contains("manet_links_up_total 1"));
        assert!(text.contains("manet_cluster_heads 7"));
        assert!(text.contains("manet_trace_events_total 3"));
        assert!(text.contains("manet_cause_events_total{root=\"link_gen\"} 1"));
        assert!(text.contains("manet_cause_msgs_total{root=\"link_gen\",class=\"HELLO\"} 2"));
        assert!(text.contains("manet_cause_unit_cost{root=\"link_gen\",class=\"HELLO\"} 2"));
        // Every non-comment line is "name{labels} value" or "name value".
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("sample shape");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn exporter_without_ledger_omits_cause_families() {
        let rec = WindowedRecorder::new(5.0);
        let text = prometheus_text(&rec, None, None, None);
        assert!(text.contains("manet_msgs_total{class=\"CLUSTER\"} 0"));
        assert!(!text.contains("manet_cause_"));
        assert!(!text.contains("manet_shard_owned"));
        assert!(!text.contains("manet_shard_links"));
        assert!(text.contains("manet_interconnect_lost_total 0"));
        assert!(text.contains("manet_shard_stalls_total 0"));
    }

    #[test]
    fn shard_snapshot_renders_per_shard_and_link_health_gauges() {
        let mut rec = WindowedRecorder::new(5.0);
        rec.absorb(&Event {
            time: 1.0,
            layer: Layer::Sim,
            kind: EventKind::InterconnectLost {
                src: 0,
                dst: 1,
                count: 3,
            },
            cause: None,
        });
        rec.absorb(&Event {
            time: 2.0,
            layer: Layer::Sim,
            kind: EventKind::GhostStale {
                src: 0,
                dst: 1,
                staleness: 5,
                dropped: 2,
            },
            cause: None,
        });
        let snap = ShardSnapshot {
            shards: vec![
                ShardGaugeRow {
                    shard: 0,
                    owned: 40,
                    ghosts: 6,
                    migrations_in: 1,
                    migrations_out: 2,
                    boundary_links: 9,
                },
                ShardGaugeRow {
                    shard: 1,
                    owned: 38,
                    ghosts: 5,
                    migrations_in: 2,
                    migrations_out: 1,
                    boundary_links: 9,
                },
            ],
            links_up: 2,
            links_degraded: 1,
            links_down: 1,
            max_ghost_staleness: 3,
        };
        let text = prometheus_text(&rec, None, Some(&snap), None);
        assert!(text.contains("manet_shard_owned{shard=\"0\"} 40"));
        assert!(text.contains("manet_shard_owned{shard=\"1\"} 38"));
        assert!(text.contains("manet_shard_ghosts{shard=\"1\"} 5"));
        assert!(text.contains("manet_shard_migrations_out{shard=\"0\"} 2"));
        assert!(text.contains("manet_shard_boundary_links{shard=\"0\"} 9"));
        assert!(text.contains("manet_shard_links{health=\"up\"} 2"));
        assert!(text.contains("manet_shard_links{health=\"down\"} 1"));
        assert!(text.contains("manet_ghost_staleness_max 3"));
        assert!(text.contains("manet_interconnect_lost_total 3"));
        assert!(text.contains("manet_ghost_stale_drops_total 2"));
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("sample shape");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "{line}");
        }
    }

    /// Whether `name` matches the metric-name grammar
    /// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
    fn valid_metric_name(name: &str) -> bool {
        let mut chars = name.chars();
        let Some(first) = chars.next() else {
            return false;
        };
        (first.is_ascii_alphabetic() || first == '_' || first == ':')
            && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    /// Full text-format conformance pass over a maximal snapshot (with
    /// ledger and shards): every sample's metric name must have been declared by
    /// an immediately preceding `# HELP`/`# TYPE` pair, names must match
    /// the grammar, and label values must parse as escaped quoted
    /// strings. Pins the format before an external scraper depends on
    /// the live `/metrics` endpoint.
    #[test]
    fn exposition_format_conformance() {
        let mut rec = WindowedRecorder::new(5.0);
        let mut ledger = AttributionLedger::new();
        let gen = Cause {
            id: CauseId(0),
            root: RootCause::LinkGen,
        };
        for e in [
            Event {
                time: 1.0,
                layer: Layer::Sim,
                kind: EventKind::MsgSent {
                    class: MsgClass::Hello,
                    count: 3,
                },
                cause: Some(gen),
            },
            Event {
                time: 2.0,
                layer: Layer::Sim,
                kind: EventKind::ClusterGauge { heads: 4 },
                cause: None,
            },
        ] {
            rec.absorb(&e);
            ledger.absorb(&e);
        }
        let snap = ShardSnapshot {
            shards: vec![ShardGaugeRow {
                shard: 0,
                owned: 10,
                ghosts: 2,
                migrations_in: 0,
                migrations_out: 0,
                boundary_links: 3,
            }],
            links_up: 4,
            links_degraded: 0,
            links_down: 0,
            max_ghost_staleness: 1,
        };
        let mut spans = SpanRecorder::new();
        spans.start_tick();
        let t = spans.open();
        let s = spans.open();
        spans.close(s, SpanLabel::ShardCompute, Some(1), None);
        spans.close(t, SpanLabel::Tick, None, None);
        let text = prometheus_text(&rec, Some(&ledger), Some(&snap), Some(&spans));
        assert!(text.contains("# TYPE manet_stage_seconds histogram"));

        let mut declared: Vec<(String, Option<String>)> = Vec::new(); // (name, type kind)
        for line in text.lines() {
            assert!(!line.trim().is_empty(), "no blank lines in exposition");
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap().to_string();
                assert!(valid_metric_name(&name), "{name}");
                declared.push((name, None));
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let name = parts.next().unwrap();
                let kind = parts.next().unwrap();
                let last = declared.last_mut().expect("TYPE after HELP");
                assert_eq!(last.0, name, "TYPE names the metric its HELP declared");
                assert!(["counter", "gauge", "histogram"].contains(&kind), "{kind}");
                last.1 = Some(kind.to_string());
            } else {
                // A sample: name[{labels}] value
                let (series, value) = line.rsplit_once(' ').expect("sample shape: {line}");
                assert!(value.parse::<f64>().is_ok(), "{line}");
                let name = series.split('{').next().unwrap();
                assert!(valid_metric_name(name), "{name}");
                let (declared_name, kind) = declared.last().expect("samples follow a header pair");
                let kind = kind.as_deref().unwrap_or_else(|| {
                    panic!("HELP without TYPE before {line}");
                });
                if kind == "histogram" {
                    // Histogram samples use the declared family name with a
                    // _bucket/_sum/_count suffix.
                    let suffix = name
                        .strip_prefix(declared_name.as_str())
                        .unwrap_or_else(|| panic!("sample outside its family: {line}"));
                    assert!(
                        ["_bucket", "_sum", "_count"].contains(&suffix),
                        "bad histogram suffix in {line}"
                    );
                } else {
                    assert_eq!(declared_name, name, "sample under its own header block");
                }
                if let Some(labels) = series
                    .strip_prefix(name)
                    .and_then(|l| l.strip_prefix('{'))
                    .and_then(|l| l.strip_suffix('}'))
                {
                    for pair in labels.split(',') {
                        let (key, quoted) = pair.split_once('=').expect("label pair: {pair}");
                        assert!(valid_metric_name(key), "{key}");
                        let inner = quoted
                            .strip_prefix('"')
                            .and_then(|q| q.strip_suffix('"'))
                            .expect("quoted label value");
                        // Raw quotes/backslashes/newlines must be escaped.
                        let mut chars = inner.chars();
                        while let Some(c) = chars.next() {
                            assert!(c != '"' && c != '\n', "unescaped {c:?} in {line}");
                            if c == '\\' {
                                let next = chars.next().expect("dangling escape");
                                assert!(
                                    ['\\', '"', 'n'].contains(&next),
                                    "bad escape \\{next} in {line}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The span family renders one cumulative-bucket series per
    /// (stage, shard) cell that actually received spans, with `shard="all"`
    /// for main-thread work, monotone `_bucket` counts ending at `+Inf`,
    /// and `_count` equal to the cell's span count.
    #[test]
    fn span_recorder_renders_stage_seconds_histograms() {
        let rec = WindowedRecorder::new(5.0);
        let mut spans = SpanRecorder::new();
        spans.start_tick();
        for shard in [None, Some(0u16), Some(1)] {
            for _ in 0..3 {
                let s = spans.open();
                spans.close(s, SpanLabel::ShardCompute, shard, None);
            }
        }
        let t = spans.open();
        spans.close(t, SpanLabel::Tick, None, None);

        let text = prometheus_text(&rec, None, None, Some(&spans));
        assert!(text.contains("# TYPE manet_stage_seconds histogram"));
        assert!(text.contains("manet_stage_seconds_count{phase=\"tick\",shard=\"all\"} 1"));
        assert!(text.contains("manet_stage_seconds_count{phase=\"shard_compute\",shard=\"all\"} 3"));
        assert!(text.contains("manet_stage_seconds_count{phase=\"shard_compute\",shard=\"0\"} 3"));
        assert!(text.contains("manet_stage_seconds_count{phase=\"shard_compute\",shard=\"1\"} 3"));
        assert!(text.contains("phase=\"shard_compute\",shard=\"1\",le=\"+Inf\"} 3"));
        // No series for cells that never saw a span.
        assert!(!text.contains("phase=\"ic_send\""));

        // Cumulative buckets are monotone non-decreasing within a series
        // and the +Inf bucket matches the count.
        let series = "phase=\"shard_compute\",shard=\"0\"";
        let mut last = 0u64;
        let mut inf = None;
        for line in text
            .lines()
            .filter(|l| l.starts_with("manet_stage_seconds_bucket") && l.contains(series))
        {
            let v: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
            assert!(v >= last, "non-monotone bucket in {line}");
            last = v;
            if line.contains("le=\"+Inf\"") {
                inf = Some(v);
            }
        }
        assert_eq!(inf, Some(3));

        // Without spans (or with an empty recorder) the family is absent.
        let empty = SpanRecorder::new();
        let text = prometheus_text(&rec, None, None, Some(&empty));
        assert!(!text.contains("manet_stage_seconds"));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        assert_eq!(escape_label_value("run\\ \"7\"\n"), "run\\\\ \\\"7\\\"\\n");
    }
}
