#!/usr/bin/env bash
# Tier-1 verification: formatting, lints, rustdoc, release build, every crate's tests.
# Hermetic and offline — the workspace resolves with zero external crates.
#
# Usage: scripts/verify.sh   (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> no-twins guard (single entry point per layer, DESIGN.md §12)"
# The StepCtx refactor collapsed every parameter-twin entry point
# (step_traced, maintain_faulty, update_lossy, ...). Fail the build if
# one ever reappears in source.
if grep -rn "_traced\|maintain_faulty\|update_lossy" crates src --include='*.rs'; then
    echo "verify: FAIL — twin entry points found (use StepCtx instead)" >&2
    exit 1
fi

echo "==> one-kernel guard (one unit-disk kernel, DESIGN.md §13)"
# Every topology builder turns positions into neighbor rows through
# manet-geom's FrameGrid sweep. Fail the build if a per-node neighbor
# query or a second pair scan reappears in library code.
if grep -rn "fn neighbors_within\|fn for_each_pair" crates/*/src --include='*.rs'; then
    echo "verify: FAIL — a second neighbor kernel found (use manet_geom::FrameGrid)" >&2
    exit 1
fi

echo "==> one-diff guard (one row diff, DESIGN.md §12)"
# A tick's link events are the kernel schedule's flips, which the builder
# records on its topology (Topology::compute_into), those flips masked by
# the tick's crashes and recoveries (Topology::mask_flips), or else the row
# diff of Topology::diff_from. Fail the build if library code calls the row
# diff anywhere else.
if grep -rn "diff_into(" crates/*/src src --include='*.rs' \
    | grep -v "^crates/sim/src/topology\.rs:"; then
    echo "verify: FAIL — a row diff outside crates/sim/src/topology.rs (take the topology's events)" >&2
    exit 1
fi

echo "==> one-loop guard (one measured-run loop, DESIGN.md §12)"
# Every experiment, traced run and `manet simulate` ticks its stack
# through harness::run_measured (warmup, measurement window, capture).
# Fail the build if experiment or CLI code ticks a stack anywhere else;
# the examples keep their own loops.
if grep -rn '\.tick(&mut' crates/experiments/src src --include='*.rs' \
    | grep -v "^crates/experiments/src/harness\.rs:"; then
    echo "verify: FAIL — a stack tick outside crates/experiments/src/harness.rs (measure through harness::run_measured)" >&2
    exit 1
fi

echo "==> one-listener guard (one HTTP listener, DESIGN.md §15)"
# Every HTTP frontend (the live metrics endpoint, the jobs service) hands
# its routes to manet-telemetry's HttpListener, which owns the accept
# loop, the request deadline and /quit. Fail the build if library code
# binds a socket anywhere else.
if grep -rn "TcpListener::bind" crates/*/src src --include='*.rs' \
    | grep -v "^crates/telemetry/src/serve\.rs:"; then
    echo "verify: FAIL — a TcpListener::bind outside crates/telemetry/src/serve.rs (serve through HttpListener)" >&2
    exit 1
fi

echo "==> one-encoder guard (one event-line encoder, DESIGN.md §10)"
# Every trace event line (the JSONL sinks, flight dumps and the live
# /flight snapshot) is written straight into its output by
# manet-telemetry's sink::write_event, with no Value tree per line. Fail
# the build if the tree-building event encoder reappears.
if grep -rn "event_to_value" crates src --include='*.rs'; then
    echo "verify: FAIL — event_to_value found (encode event lines with sink::write_event)" >&2
    exit 1
fi

echo "==> hermetic guard (property tests are seeded cases, no proptest)"
# Every property test draws seeded manet_util::Rng cases and runs in
# tier 1; the proptest crate needs the network. Fail the build if the
# slow-proptests feature, a gate on it or a proptest dependency reappears.
if grep -rnE 'slow-proptests|^[[:space:]]*proptest[[:space:]]*[=.]|use proptest' \
    crates tests --include='*.rs' --include='Cargo.toml'; then
    echo "verify: FAIL — proptest or slow-proptests found (write seeded Rng cases instead)" >&2
    exit 1
fi

echo "==> argv guard (only cli.rs and bin mains read the process arguments)"
# Experiment binaries parse their flags once, in BinArgs (cli.rs); the
# library takes what it needs from the caller. Fail the build if
# library code starts reading argv again.
if grep -rn "std::env::args" crates/*/src src --include='*.rs' \
    | grep -v "^crates/experiments/src/cli\.rs:" | grep -v "src/bin/"; then
    echo "verify: FAIL — library code reads argv (take the flags from BinArgs)" >&2
    exit 1
fi

echo "==> stage-trait guard (pipeline layers go through stage traits, DESIGN.md §17)"
# The canonical tick drives HELLO/cluster/route through the stage traits
# (StackStages); stack/experiments code must not call the layers' own
# maintain/update/step entry points directly. Intentional exceptions
# (monolithic defaults, manual parity twins, single-layer studies) carry
# a `// stage-exempt: <reason>` on the same or the preceding line.
if find crates/stack/src crates/experiments/src src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { skip = 0 }
    /stage-exempt/ { skip = 2 }
    /\.maintain\(|\.update\(|\.step\(world\.topology\(\)/ {
        if (skip == 0) print FILENAME ":" FNR ": " $0
    }
    { if (skip > 0) skip-- }' | grep .; then
    echo "verify: FAIL — direct layer entry-point calls outside the stage traits (add // stage-exempt: <reason> if intentional)" >&2
    exit 1
fi

echo "==> bash -n scripts/bench_ab.sh"
bash -n scripts/bench_ab.sh

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
# Catches intra-doc links left dangling when an item is renamed or
# deleted, and public docs that link private items.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo doc --workspace --no-deps --document-private-items"
# The run above does not resolve the links in private items' docs; this
# one does, so a dangling link there fails too.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --document-private-items

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace -q"
# --workspace: the root manifest is also a package, so a plain
# `cargo test` would skip every crate's own unit and integration tests
# (the stage-parity gate, the maintenance oracle, ...).
cargo test --workspace -q

echo "==> examples' stdout (tests/golden/examples)"
# Every example is seeded, so its stdout is pinned byte for byte.
# quickstart, protocol_comparison and data_delivery prime the stack and
# then warm only the world, so their first tick runs the route layer's
# full pass end to end (its topology does not chain from the primed one).
for fixture in tests/golden/examples/*.txt; do
    name=$(basename "$fixture" .txt)
    if ! cargo run -q --release --example "$name" | cmp - "$fixture"; then
        echo "verify: FAIL — example $name's stdout differs from $fixture" >&2
        exit 1
    fi
done

echo "==> bins' stdout (tests/golden/bins)"
# Every bin below is seeded, so its stdout is pinned byte for byte, as
# the examples' is: the soft-timer HELLO (EXT4), the self-healing stack
# under loss and churn (ROB1), the flat baseline (EXT2), the ROUTE
# dispersion closure (ABL4), d-hop maintenance (EXT3), cluster stability
# (EXT6) and `manet simulate` under both policies. Each line names the
# fixture, the package, the bin and its arguments. Only the default 1x1
# layout is pinned: a multi-shard header prints the host's worker count.
simulate="simulate --nodes 60 --side 400 --radius 80 --speed 10 --measure 20 --warmup 5 --policy"
while read -r fixture package bin args; do
    # shellcheck disable=SC2086 # $args is a word list by design
    if ! cargo run -q --release -p "$package" --bin "$bin" -- $args </dev/null \
        | cmp - "tests/golden/bins/$fixture.txt"; then
        echo "verify: FAIL — $bin $args stdout differs from tests/golden/bins/$fixture.txt" >&2
        exit 1
    fi
done <<BINS
hello_accuracy manet-experiments hello_accuracy
robustness_quick manet-experiments robustness --quick
flat_vs_clustered manet-experiments flat_vs_clustered
route_dispersion manet-experiments route_dispersion
dhop_extension manet-experiments dhop_extension
cluster_stability manet-experiments cluster_stability
simulate_lid clustered-manet manet $simulate lid
simulate_hcc clustered-manet manet $simulate hcc
BINS

echo "==> benchmark build + self-test (perfbench --self-test)"
# perfbench/ is a workspace of its own over crates/* (see BENCHMARK.json);
# building and self-testing it here catches an API change that would
# break the benchmark. Its target dir sits under target/, so nothing is
# written inside perfbench/.
CARGO_TARGET_DIR=target/perfbench cargo run -q --release --offline \
    --manifest-path perfbench/Cargo.toml -- --self-test

echo "==> telemetry smoke (trace_report --smoke)"
cargo run -q --release -p manet-experiments --bin trace_report -- --smoke

echo "==> attribution audit smoke (attribution_report --quick)"
# Short seeded sim with attribution on: zero invariant violations, every
# causal chain anchored, and exact Counters <-> ledger reconciliation.
cargo run -q --release -p manet-experiments --bin attribution_report -- --quick

echo "==> interconnect chaos smoke (robustness2 --quick)"
# Fallible shard interconnect (DESIGN.md §14): the ideal config on a
# 2x2 plane is byte-parity pass-through vs the 1x1 plane, chaos is
# deterministic and worker-count invariant, the audit stays clean, and
# every InterconnectFault causal chain anchors in the ledger.
cargo run -q --release -p manet-experiments --bin robustness2 -- --quick

echo "==> span plane smoke (span_report --quick + Chrome trace check)"
# Span tracing plane (DESIGN.md §16): the sharded chaos scenario with the
# raw-span ring armed. The bin's own gates pin byte-identical canonical
# dumps across same-seed runs and a parseable Chrome trace; the --check
# pass re-validates the emitted trace-event JSON through the in-house
# JSON reader.
span_trace=$(mktemp -t spans_XXXXXX.json)
cargo run -q --release -p manet-experiments --bin span_report -- \
    --quick --spans-out "$span_trace" --spans-canonical
cargo run -q --release -p manet-experiments --bin span_report -- --check "$span_trace"
rm -f "$span_trace"

echo "==> live observability smoke (/metrics + /health over a real scrape)"
# Live exporter (DESIGN.md §15): a short traced run serving on an
# ephemeral port; curl /metrics and /health mid-hold, assert well-formed
# output, then /quit for a clean shutdown (exit 0 = no leaked listener
# thread panicked).
serve_log=$(mktemp)
cargo run -q --release -p manet-experiments --bin tick_convergence -- \
    --serve-metrics 127.0.0.1:0 --serve-hold 60 >"$serve_log" 2>&1 &
serve_pid=$!
serve_addr=""
for _ in $(seq 1 120); do
    serve_addr=$(sed -n 's|.*listening on http://\([0-9.:]*\).*|\1|p' "$serve_log" | head -n1)
    [ -n "$serve_addr" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then break; fi
    sleep 0.5
done
if [ -z "$serve_addr" ]; then
    echo "verify: FAIL — serve endpoint never came up" >&2
    cat "$serve_log" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
# Wait for the run to publish at least one snapshot, then scrape.
health=""
for _ in $(seq 1 120); do
    health=$(curl -fsS --max-time 5 "http://$serve_addr/health" || true)
    case "$health" in *"status ok"*) break ;; esac
    sleep 0.5
done
case "$health" in
    *"status ok"*) : ;;
    *)
        echo "verify: FAIL — /health never reported a published snapshot: $health" >&2
        kill "$serve_pid" 2>/dev/null || true
        exit 1
        ;;
esac
echo "$health" | grep -q "^tick [1-9]" || { echo "verify: FAIL — /health lacks tick progress" >&2; exit 1; }
metrics=$(curl -fsS --max-time 5 "http://$serve_addr/metrics")
echo "$metrics" | grep -q "^# TYPE manet_msgs_total counter" || { echo "verify: FAIL — /metrics lacks TYPE headers" >&2; exit 1; }
echo "$metrics" | grep -q '^manet_msgs_total{class="HELLO"} [0-9]' || { echo "verify: FAIL — /metrics lacks samples" >&2; exit 1; }
curl -fsS --max-time 5 "http://$serve_addr/quit" >/dev/null
if ! wait "$serve_pid"; then
    echo "verify: FAIL — served run exited non-zero" >&2
    cat "$serve_log" >&2
    exit 1
fi
rm -f "$serve_log"
echo "    served $(echo "$metrics" | grep -c '') metric lines at $serve_addr; clean shutdown"

echo "==> serve-jobs smoke (submit, poll, result, cache hit over real HTTP)"
# Jobs plane (DESIGN.md §18): the scenario server on an ephemeral port.
# Submit a tiny single-point spec, poll it to done, fetch the result,
# resubmit the same spec and require a cache hit (visible both in the
# submit response and the manet_jobs_cache_hits_total counter), then
# /quit for a clean shutdown.
jobs_log=$(mktemp)
cargo run -q --release --bin manet -- serve-jobs \
    --addr 127.0.0.1:0 --workers 2 --hold 120 >"$jobs_log" 2>&1 &
jobs_pid=$!
jobs_addr=""
for _ in $(seq 1 120); do
    jobs_addr=$(sed -n 's|.*listening on http://\([0-9.:]*\).*|\1|p' "$jobs_log" | head -n1)
    [ -n "$jobs_addr" ] && break
    if ! kill -0 "$jobs_pid" 2>/dev/null; then break; fi
    sleep 0.5
done
if [ -z "$jobs_addr" ]; then
    echo "verify: FAIL — job server never came up" >&2
    cat "$jobs_log" >&2
    kill "$jobs_pid" 2>/dev/null || true
    exit 1
fi
jobs_spec='{"kind":"single","nodes":60,"side":400,"radius":80,"warmup":5,"measure":15,"dt":0.5,"seeds":[7]}'
submit=$(curl -fsS --max-time 5 -X POST --data "$jobs_spec" "http://$jobs_addr/jobs")
echo "$submit" | grep -q '"cache":"miss"' || { echo "verify: FAIL — first submit was not a miss: $submit" >&2; exit 1; }
job_id=$(echo "$submit" | sed -n 's|.*"id":\([0-9]*\).*|\1|p')
job_done=""
for _ in $(seq 1 120); do
    job_done=$(curl -fsS --max-time 5 "http://$jobs_addr/jobs/$job_id" || true)
    case "$job_done" in *'"status":"done"'*) break ;; esac
    sleep 0.25
done
case "$job_done" in
    *'"status":"done"'*) : ;;
    *)
        echo "verify: FAIL — job never reached done: $job_done" >&2
        kill "$jobs_pid" 2>/dev/null || true
        exit 1
        ;;
esac
curl -fsS --max-time 5 "http://$jobs_addr/jobs/$job_id/result" \
    | grep -q '"type":"result"' || { echo "verify: FAIL — result body malformed" >&2; exit 1; }
resubmit=$(curl -fsS --max-time 5 -X POST --data "$jobs_spec" "http://$jobs_addr/jobs")
echo "$resubmit" | grep -q '"cache":"hit"' || { echo "verify: FAIL — resubmit was not a cache hit: $resubmit" >&2; exit 1; }
curl -fsS --max-time 5 "http://$jobs_addr/metrics" \
    | grep -q '^manet_jobs_cache_hits_total 1' || { echo "verify: FAIL — cache hit not counted on /metrics" >&2; exit 1; }
curl -fsS --max-time 5 "http://$jobs_addr/quit" >/dev/null
if ! wait "$jobs_pid"; then
    echo "verify: FAIL — job server exited non-zero" >&2
    cat "$jobs_log" >&2
    exit 1
fi
rm -f "$jobs_log"
echo "    job $job_id done + cache hit at $jobs_addr; clean shutdown"

echo "verify: all checks passed"
