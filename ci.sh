#!/bin/sh
# ci.sh — the checks a change must pass before merging.
# Usage: ./ci.sh
set -eu

cd "$(dirname "$0")"

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# Report only: the size of the non-test program, measured the same way in
# every change so code-size targets can be tracked.
echo "== non-test Go lines (outside perfbench/)"
find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' | xargs cat | wc -l

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

# The concurrent packages again at one and at four Ps: a single-core CI
# host then still schedules shards, workers and broadcasters in parallel.
echo "== go test -race -cpu 1,4 (concurrent packages)"
go test -race -cpu 1,4 ./internal/checkpoint ./internal/sweep ./internal/jobs \
    ./internal/autotune ./internal/system ./internal/telemetry

echo "== benchmark smoke (one iteration each)"
go test -run '^$' -bench . -benchtime 1x ./...

echo "== fuzz smoke (10s per target)"
go test -run '^$' -fuzz '^FuzzBinaryRoundTrip$' -fuzztime 10s ./internal/trace
go test -run '^$' -fuzz '^FuzzTextParse$' -fuzztime 10s ./internal/trace
go test -run '^$' -fuzz '^FuzzCheckpointRoundTrip$' -fuzztime 10s ./internal/checkpoint
go test -run '^$' -fuzz '^FuzzJobConfigDecode$' -fuzztime 10s ./internal/jobs

echo "== coverage floors (internal/checkpoint, internal/stats, internal/jobs, internal/tsdb, internal/victim, internal/rlt)"
for pkg in internal/checkpoint internal/stats internal/jobs internal/tsdb internal/victim internal/rlt; do
    pct=$(go test -cover "./$pkg" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    if [ -z "$pct" ]; then
        echo "coverage: no figure reported for $pkg" >&2
        exit 1
    fi
    if [ "$(printf '%.0f' "$pct")" -lt 70 ]; then
        echo "coverage: $pkg at $pct%, floor is 70%" >&2
        exit 1
    fi
    echo "$pkg: $pct%"
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Experiment output must not change by a byte: regenerate every experiment
# at scale 0.05 and compare with the committed golden file. The build stamp
# (line 1) and the per-experiment timing lines are the only host-dependent
# lines, so they are dropped first.
echo "== golden experiment output (scale 0.05)"
go run ./cmd/experiments -run all -scale 0.05 > "$tmp/experiments.out"
sed -e 1d -e '/^--- .* done in /d' "$tmp/experiments.out" > "$tmp/experiments.golden"
cmp testdata/experiments_scale0.05.golden "$tmp/experiments.golden"

# Sharded execution must agree with the sequential run: exact mode is
# byte-identical (every boundary checkpoint-verified inside vrsim), and a
# save/restore split run must reproduce the uninterrupted report exactly.
echo "== checkpoint/shard vs sequential smoke"
go run ./cmd/vrsim -preset pops -scale 0.01 -json > "$tmp/seq.json"
go run ./cmd/vrsim -preset pops -scale 0.01 -checkpoint "$tmp/ck.bin" -checkpoint-at 2000 > /dev/null
go run ./cmd/vrsim -preset pops -scale 0.01 -restore "$tmp/ck.bin" -json > "$tmp/restored.json"
cmp "$tmp/seq.json" "$tmp/restored.json"
go run ./cmd/vrsim -preset pops -scale 0.01 -shards 4 -shard-mode exact > /dev/null
# Approximate mode (skip, warm up, measure each window) must run end to end.
go run ./cmd/vrsim -preset pops -scale 0.01 -shards 4 -warmup 20000 > /dev/null

# The cross-organization differential harness under the race detector, run
# twice: every synonym strategy (v-pointer, reverse-lookup table, victim
# cache, write-through) must observe identical data behaviour on identical
# reference streams, and the geometry fuzzer must hold the same story across
# random legal shapes.
echo "== cross-organization differential suite under race"
go test -race -count 2 -run 'TestDifferential' ./internal/system
go test -race -count 2 -run 'TestGeometryFuzz|TestVREqualsRR|TestProtocolsEquivalent|TestPIDTagsEquivalent' ./internal/core

# Audit under the race detector: run the full invariant auditor against every
# organization on a real workload and fail on any violation (vrsim exits
# non-zero when the auditor finds one). No -cpus override: the preset trace
# carries its own CPU count.
echo "== invariant audit under race across organizations"
for org in vr rr rrnoincl rlt; do
    go run -race ./cmd/vrsim -preset pops -scale 0.02 -audit -audit-every 1000 -org "$org" > /dev/null
done
# Synonym machinery under audit: a victim cache (exclusivity + containment
# invariants) and a deliberately small reverse-lookup table (reciprocity
# invariant, forced evictions on nearly every fill).
go run -race ./cmd/vrsim -preset pops -scale 0.02 -audit -audit-every 1000 -org vr -victim 4 > /dev/null
go run -race ./cmd/vrsim -preset pops -scale 0.02 -audit -audit-every 1000 -org rlt -rlt-entries 16 -victim 4 > /dev/null

# Telemetry: the tracing/attribution layer under the race detector (its
# on-demand dump path crosses goroutines), then an end-to-end flight-recorder
# smoke — a run with an injected audit violation must exit non-zero and leave
# a parseable post-mortem bundle behind.
echo "== telemetry tests under race + flight recorder smoke"
go test -race ./internal/telemetry
if go run ./cmd/vrsim -preset pops -scale 0.02 -timed -tlb-penalty 8 \
    -audit-every 1000 -inject-violation -flightrec "$tmp/fr" -attr > "$tmp/fr.out" 2>&1; then
    echo "flightrec smoke: injected violation did not fail the run" >&2
    exit 1
fi
bundle=$(ls "$tmp"/fr/flightrec-*-audit-violation.json)
go run ./cmd/vrsim -verify-bundle "$bundle"

# Autotuner soundness under the race detector: a ~60-config search with
# pruning enabled must return exactly the frontier the exhaustive search
# finds (-check-exhaustive re-runs without pruning and compares).
echo "== autotune pruning soundness under race"
# 60 configs: three plain orgs sweep the victim axis, and the rlt
# organization additionally sweeps its table size (non-rlt orgs drop the
# rltEntries != 0 points during expansion).
cat > "$tmp/grammar.json" <<'GRAMMAR'
{
  "organizations": ["vr", "rr", "vr-wt", "rlt"],
  "l1Sizes": [1024, 4096, 8192],
  "l1Assocs": [1],
  "l2Sizes": [65536, 131072],
  "blockRatios": [2],
  "victimEntries": [0, 4],
  "rltEntries": [0, 16]
}
GRAMMAR
go run -race ./cmd/autotune -grammar "$tmp/grammar.json" -preset pops \
    -scale 0.01 -probe-refs 8000 -shards 2 -warmup 1000 -chunk 4 \
    -margin 0.15 -check-exhaustive > "$tmp/autotune.out"
grep -q "margin sound: true" "$tmp/autotune.out"
grep -q "pruning sound" "$tmp/autotune.out"
grep -Eq "pruned [1-9]" "$tmp/autotune.out"

# Job-server smoke: a real daemon on a real socket. Submit a table6-style
# sweep (VR vs RR at the paper's main sizes), verify the report names every
# machine, then walk the observatory surfaces — persisted time-series over
# HTTP (deterministic across reads), the CSV dump, one `top` frame, the
# job-correlated structured JSON log and the OTLP trace file — before
# SIGTERMing the daemon and requiring a clean shutdown (vrsimd checks for
# leaked worker goroutines itself before printing the marker).
echo "== vrsimd job-server smoke"
go build -o "$tmp/vrsimd" ./cmd/vrsimd
"$tmp/vrsimd" serve -http 127.0.0.1:0 -state "$tmp/vrsimd-state" \
    -log-format json -progress-every 5000 \
    -addr-file "$tmp/vrsimd.addr" > "$tmp/vrsimd.log" 2>&1 &
vrsimd_pid=$!
for _ in $(seq 50); do
    [ -s "$tmp/vrsimd.addr" ] && break
    sleep 0.1
done
[ -s "$tmp/vrsimd.addr" ] || { cat "$tmp/vrsimd.log" >&2; exit 1; }
cat > "$tmp/job.json" <<'JOB'
{
  "kind": "sweep", "preset": "pops", "scale": 0.02,
  "machines": [
    {"label": "vr-16K/256K", "org": "vr", "l1Size": 16384, "l2Size": 262144},
    {"label": "rr-16K/256K", "org": "rr", "l1Size": 16384, "l2Size": 262144},
    {"label": "vr-64K/1M",   "org": "vr", "l1Size": 65536, "l2Size": 1048576}
  ]
}
JOB
vrsimd_url="http://$(cat "$tmp/vrsimd.addr")"
"$tmp/vrsimd" submit -addr "$vrsimd_url" \
    -config "$tmp/job.json" -wait -report > "$tmp/job-report.json" 2> "$tmp/submit.err"
cat "$tmp/submit.err" >&2
for label in "vr-16K/256K" "rr-16K/256K" "vr-64K/1M"; do
    grep -q "\"$label\"" "$tmp/job-report.json"
done
grep -q '"references"' "$tmp/job-report.json"

job_id=$(sed -n 's/^submitted \(j[0-9]*\).*/\1/p' "$tmp/submit.err")
[ -n "$job_id" ] || { echo "ci: no job id in submit output" >&2; exit 1; }
# Persisted time-series: samples present, two reads byte-identical, and the
# CSV dump carries the header plus at least one row.
curl -sf "$vrsimd_url/jobs/$job_id/timeseries?metric=busocc" > "$tmp/ts1.json"
curl -sf "$vrsimd_url/jobs/$job_id/timeseries?metric=busocc" > "$tmp/ts2.json"
cmp "$tmp/ts1.json" "$tmp/ts2.json"
grep -q '"startRef"' "$tmp/ts1.json"
curl -sf "$vrsimd_url/jobs/$job_id/timeseries?metric=l1ratio&points=8&format=csv" > "$tmp/ts.csv"
head -1 "$tmp/ts.csv" | grep -q '^seq,'
[ "$(wc -l < "$tmp/ts.csv")" -ge 2 ]
# One dashboard frame over the same endpoints.
"$tmp/vrsimd" top -addr "$vrsimd_url" -metric l1ratio -once > "$tmp/top.out"
grep -q "workers" "$tmp/top.out"
grep -q "$job_id" "$tmp/top.out"
# Structured JSON log correlated by job id, and the job's OTLP trace file.
grep -q "\"job\":\"$job_id\"" "$tmp/vrsimd.log"
[ -s "$tmp/vrsimd-state/$job_id.trace.json" ]
grep -q '"resourceSpans"' "$tmp/vrsimd-state/$job_id.trace.json"
# Queue/run latency histograms registered on the Prometheus surface.
curl -sf "$vrsimd_url/metrics" | grep -q '^vrsimd_job_run_seconds_count'
kill -TERM "$vrsimd_pid"
wait "$vrsimd_pid" || { cat "$tmp/vrsimd.log" >&2; exit 1; }
grep -q "clean shutdown" "$tmp/vrsimd.log"

# Best of 5 runs against the recorded baseline; the loose threshold absorbs
# the noise of a shared single-core container (a real regression is far
# larger than the jitter this floor tolerates).
echo "== bench guard (sweep throughput vs BENCH_sweep.json baseline)"
go run ./cmd/benchguard -count 5 -threshold 0.8

echo "ci: all checks passed"
