#!/usr/bin/env bash
# Alternating A/B runs of the benchmark: a base revision against the
# working tree, on one workload.
#
# Usage: scripts/bench_ab.sh BASE_REV WORKLOAD PAIRS [SECONDS] [SEED]
#
#   BASE_REV  any git revision (e.g. HEAD~1, a commit hash)
#   WORKLOAD  a perfbench workload (paper-400, scale-100k, jobs-mix)
#   PAIRS     how many base/change pairs to run
#   SECONDS   run length of each perfbench run (default 15)
#   SEED      workload seed (default 1)
#
# The base revision is exported with `git archive` into
# target/ab/base/src (re-exported only when the revision changes), and
# each side builds perfbench offline into its own target directory,
# target/ab/base and target/ab/change; nothing is written inside
# perfbench/. The pairs alternate their order (base first, then change
# first, ...), so a drift of the host's speed falls on both sides. Each
# pair prints both sides' end-to-end metrics (BENCHMARK.json's
# `end_to_end` list) and `failed`. The summary prints, per metric, each
# side's quartiles (q1, median, q3, by linear interpolation), the
# change/base ratio of the medians, on how many of the pairs the change
# was better (by the metric's own `better`), and a no-regression verdict
# against the metric's `bound`:
#
#   worse       the change's median is worse than the base's by more
#               than the bound (relative to the base's median);
#   unresolved  not worse, but the base's own spread (interquartile range
#               over median) is wider than the bound, and not every change
#               run beats every base run;
#   ok          otherwise.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
    sed -n '5,11p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
base_rev=$1
workload=$2
pairs=$3
seconds=${4:-15}
seed=${5:-1}
case "$pairs" in '' | *[!0-9]* | 0)
    echo "bench_ab: PAIRS must be a positive integer, got '$pairs'" >&2
    exit 2
    ;;
esac

commit=$(git rev-parse --verify "$base_rev^{commit}")
root=target/ab
mkdir -p "$root"
if [ "$(cat "$root/base.rev" 2>/dev/null || true)" != "$commit" ]; then
    rm -rf "$root/base/src"
    mkdir -p "$root/base/src"
    git archive "$commit" | tar -x -C "$root/base/src"
    echo "$commit" >"$root/base.rev"
fi

build() { # <manifest dir> <target dir>
    CARGO_TARGET_DIR="$2" cargo build -q --release --offline \
        --manifest-path "$1/perfbench/Cargo.toml"
}
echo "==> building perfbench at $commit and at the working tree" >&2
build "$root/base/src" "$PWD/$root/base"
build "$PWD" "$PWD/$root/change"
bin_base="$root/base/release/perfbench"
bin_change="$root/change/release/perfbench"

# The end-to-end metrics as "name better bound", from BENCHMARK.json.
mapfile -t metrics < <(sed -n '/"end_to_end"/,/\]/s/.*"name": "\([a-z0-9_]*\)".*"better": "\([a-z]*\)", "bound": \([0-9.]*\).*/\1 \2 \3/p' BENCHMARK.json)

# One run; prints "failed m1 m2 ..." in the order of `metrics`.
run() { # <binary>
    local line
    line=$("$1" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
    local out
    out=$(echo "$line" | sed -n 's/.*"failed": \([0-9]*\).*/\1/p')
    for m in "${metrics[@]}"; do
        local v
        v=$(echo "$line" | sed -n "s/.*\"${m%% *}\": {\"value\": \([^,}]*\).*/\1/p")
        out="$out ${v:-nan}"
    done
    echo "$out"
}

results=$(mktemp)
trap 'rm -f "$results"' EXIT
printf '%-5s %-7s %7s' pair side failed
for m in "${metrics[@]}"; do printf ' %14s' "${m%% *}"; done
echo
for p in $(seq 1 "$pairs"); do
    if [ $((p % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
    for side in $order; do
        bin=$bin_base
        [ "$side" = change ] && bin=$bin_change
        row=$(run "$bin")
        echo "$p $side $row" >>"$results"
        printf '%-5s %-7s %7s' "$p" "$side" "${row%% *}"
        for v in ${row#* }; do printf ' %14.6g' "$v"; done
        echo
    done
done

echo
echo "quartiles over $pairs pairs ($workload, seed $seed, ${seconds}s runs; wins = pairs where the change is better)"
printf '%-14s %11s %11s %11s %11s %11s %11s %7s %6s %6s %s\n' metric \
    base_q1 base_med base_q3 change_q1 change_med change_q3 ratio wins bound verdict
col=3
for m in "${metrics[@]}"; do
    col=$((col + 1))
    read -r name better bound <<<"$m"
    awk -v col="$col" -v name="$name" -v better="$better" -v bound="$bound" '
        { v[$2, $1] = $col; if ($2 == "base") n++; if ($col == "nan") missing = 1 }
        # Sorts the runs of one side into a[1..n] (insertion sort).
        function sorted(side, a,   i, j, t) {
            for (i = 1; i <= n; i++) a[i] = v[side, i] + 0
            for (i = 2; i <= n; i++) { t = a[i]; j = i - 1; while (j > 0 && a[j] > t) { a[j + 1] = a[j]; j-- } a[j + 1] = t }
        }
        # The q-quantile of a[1..n], interpolated linearly between ranks.
        function quantile(a, q,   h, lo) {
            h = 1 + (n - 1) * q; lo = int(h)
            return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
        }
        END {
            if (missing || n == 0) { printf "%-14s (not reported)\n", name; exit }
            wins = 0
            for (i = 1; i <= n; i++) {
                b = v["base", i] + 0; c = v["change", i] + 0
                if ((better == "higher" && c > b) || (better == "lower" && c < b)) wins++
            }
            sorted("base", sb); sorted("change", sc)
            b1 = quantile(sb, 0.25); mb = quantile(sb, 0.5); b3 = quantile(sb, 0.75)
            c1 = quantile(sc, 0.25); mc = quantile(sc, 0.5); c3 = quantile(sc, 0.75)
            # Worse by more than the bound, relative to the base median.
            worse = better == "higher" ? mc < mb * (1 - bound) : mc > mb * (1 + bound)
            # Every change run beats every base run.
            apart = better == "higher" ? sc[1] > sb[n] : sc[n] < sb[1]
            if (worse) verdict = "worse"
            else if (mb != 0 && (b3 - b1) / mb > bound && !apart) verdict = "unresolved"
            else verdict = "ok"
            printf "%-14s %11.5g %11.5g %11.5g %11.5g %11.5g %11.5g %7s %3d/%-2d %6s %s\n", name,
                b1, mb, b3, c1, mc, c3, (mb != 0 ? sprintf("%.3f", mc / mb) : "-"), wins, n, bound, verdict
        }' "$results"
done
awk '{ if ($3 != 0) bad++ } END { printf "failed runs: %d\n", bad + 0 }' "$results"
