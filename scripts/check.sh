#!/bin/sh
# check.sh — the tier-1 gate. Everything a change must pass before merge:
# vet, build, the full test suite under the race detector, the CLI,
# scheduler, experiment and simulator suites at three GOMAXPROCS widths, a
# one-iteration benchmark smoke (the simulator benchmarks print events/op and
# allocs/event), a bench-artifact round trip (emit BENCH_smoke.json with
# etsn-bench, fail if it does not validate), an attribution round trip
# (etsn-sim -attrib -trace piped through etsn-trace must reproduce the
# committed golden report), the end-to-end daemon gate (etsn-cncd under
# overload and a SIGKILL mid-solve must recover from its journal), the
# dashboard gate (etsn-sim -dash must serve schema-valid /api/metrics and
# /api/trend documents and drain cleanly on SIGTERM), an arm64 assembly
# check that internal/stats compiles without fused multiply-adds, and a
# short fuzz smoke over the corpus seeds of every fuzz target. Each bench
# refresh appends its headline wall time to bench/history.jsonl so
# regressions are visible across runs. The last step prints the two size
# figures ROADMAP.md tracks: the non-test Go line count and the number of
# core.Options fields.
#
# Usage: ./scripts/check.sh            (from the repository root)
#        FUZZTIME=10s ./scripts/check.sh
set -eu

cd "$(dirname "$0")/.."
FUZZTIME="${FUZZTIME:-5s}"
# The CDCL-vs-reference differential fuzz gets a longer default: it is the
# primary guard against search-core unsoundness.
DIFF_FUZZTIME="${DIFF_FUZZTIME:-10s}"

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> no fused multiply-add in internal/stats (GOARCH=arm64 assembly)"
# On arm64 the compiler may fuse x*y+z into one FMADD/FMSUB, which rounds
# once where amd64 rounds twice, so summaries and quantiles would depend on
# the host. internal/stats forces each product's rounding with an explicit
# float64(...) conversion; this step fails if a fused instruction comes
# back. internal/sim is left out for now: the credit-based shaper's float
# credit still fuses until it moves to integer credit (ROADMAP item 4).
STATS_ASM="$(GOARCH=arm64 go build -gcflags=-S ./internal/stats 2>&1)"
if printf '%s\n' "$STATS_ASM" | grep -E 'FMADD|FMSUB|FNMADD|FNMSUB'; then
    echo "internal/stats compiles to fused multiply-add on arm64" >&2
    exit 1
fi

echo "==> go test -race ./..."
go test -race ./...

echo "==> go test under GOMAXPROCS=1,2,8 (CLI, scheduler, experiments, simulators, daemon, recovery)"
# The experiment-cell worker pool and the tracer lanes size themselves from
# GOMAXPROCS; a test that only holds at the width of the machine it was
# written on has to fail here, not on the next host. The daemon's worker
# pool shares per-tenant state (the parsed effective config, the deployed
# gate programs) that the recovery controller builds on.
for procs in 1 2 8; do
    GOMAXPROCS="$procs" go test -count=1 ./cmd/... ./internal/core/... ./internal/experiments/... \
        ./internal/sim/... ./internal/service/... ./internal/faults/...
done

echo "==> go test -race ./internal/smt/... (solver core, explicit)"
go test -race -count=1 ./internal/smt/...

echo "==> go test -race ./internal/dash/... (dashboard, explicit)"
# The dashboard suite includes goroutine-leak and SSE-drain checks that
# must hold under the race detector.
go test -race -count=1 ./internal/dash/...

echo "==> go test -race route cache (explicit)"
# Experiment cells running in parallel share one network and fill its
# mutex-guarded route memo from cold concurrently; that must hold under the
# race detector every run.
go test -race -count=1 -run 'TestRouteCacheConcurrentReaders' ./internal/model/

echo "==> benchmark smoke (-benchtime=1x)"
go test -run='^$' -bench=. -benchtime=1x ./...

echo "==> bench artifact smoke (BENCH_smoke.json)"
BENCHDIR="$(mktemp -d)"
trap 'rm -rf "$BENCHDIR"' EXIT
go build -o "$BENCHDIR/etsn-bench" ./cmd/etsn-bench
"$BENCHDIR/etsn-bench" -experiment headline -duration 300ms \
    -bench-dir "$BENCHDIR" -bench-name smoke >/dev/null
"$BENCHDIR/etsn-bench" -check-bench "$BENCHDIR/BENCH_smoke.json"

echo "==> trace round trip (etsn-sim -attrib | etsn-trace vs golden)"
go build -o "$BENCHDIR/etsn-sim" ./cmd/etsn-sim
go build -o "$BENCHDIR/etsn-trace" ./cmd/etsn-trace
"$BENCHDIR/etsn-sim" -config scripts/testdata/trace-config.json \
    -duration 200ms -seed 7 -attrib -trace "$BENCHDIR/trace.jsonl" >/dev/null
"$BENCHDIR/etsn-trace" "$BENCHDIR/trace.jsonl" >"$BENCHDIR/trace-report.txt"
diff -u scripts/testdata/trace-report.golden "$BENCHDIR/trace-report.txt"

echo "==> bench artifacts (bench/BENCH_headline.json, bench/BENCH_fig11.json, bench/BENCH_attrib.json)"
# Refresh the committed artifacts: the parallel wall time plus a sequential
# rerun, so each records the fan-out speedup on this machine. Every
# experiment appends its wall time to bench/history.jsonl.
mkdir -p bench
"$BENCHDIR/etsn-bench" -experiment headline -duration 1s \
    -compare-sequential -bench-dir bench -history bench/history.jsonl >/dev/null
"$BENCHDIR/etsn-bench" -experiment fig11 -duration 1s \
    -compare-sequential -bench-dir bench -history bench/history.jsonl >/dev/null
"$BENCHDIR/etsn-bench" -experiment attrib -duration 1s \
    -bench-dir bench -history bench/history.jsonl >/dev/null
# The solver micro-benchmark: CDCL must beat the reference oracle on every
# committed instance class, and its wall times accumulate in the history.
"$BENCHDIR/etsn-bench" -experiment smt \
    -bench-dir bench -history bench/history.jsonl >/dev/null
# The scale run simulates the tree scenario and then solves the cellular
# corpus over the tree/mesh cell grid (the scale section of
# BENCH_scale.json, gated on every plan verifying and on the solve wall at
# the largest >=2k-stream point staying within 2.6x the wall at half that
# size).
"$BENCHDIR/etsn-bench" -experiment scale -duration 1s \
    -bench-dir bench -history bench/history.jsonl >/dev/null
# The backends run solves every backend of the default cascade standalone
# over the fig11 load grid, then the cascade itself, and emits
# BENCH_backends.json, gated on verifier-clean plans and on each cascade's
# wall staying within 2x its winner's standalone wall plus 5 ms.
"$BENCHDIR/etsn-bench" -experiment backends \
    -bench-dir bench -history bench/history.jsonl >/dev/null
"$BENCHDIR/etsn-bench" -check-bench bench/BENCH_headline.json
"$BENCHDIR/etsn-bench" -check-bench bench/BENCH_fig11.json
"$BENCHDIR/etsn-bench" -check-bench bench/BENCH_attrib.json
"$BENCHDIR/etsn-bench" -check-bench bench/BENCH_smt.json
"$BENCHDIR/etsn-bench" -check-bench bench/BENCH_backends.json
"$BENCHDIR/etsn-bench" -check-bench bench/BENCH_scale.json

echo "==> wall-time trend (bench/history.jsonl)"
# Informational: flags >10% regressions against each experiment's rolling
# median but does not fail the gate (machine load varies across runs).
"$BENCHDIR/etsn-bench" -trend bench/history.jsonl

echo "==> dashboard gate (etsn-sim -dash: API schema, SIGTERM drain)"
# dashgate starts etsn-sim with a live dashboard on an ephemeral port,
# validates /api/metrics and /api/trend against their JSON schemas, checks
# the embedded page, then SIGTERMs and requires a clean exit.
go build -o "$BENCHDIR/dashgate" ./scripts/dashgate
"$BENCHDIR/dashgate" -bin "$BENCHDIR/etsn-sim" \
    -config scripts/testdata/trace-config.json -history bench/history.jsonl

echo "==> daemon gate (etsn-cncd: admission, overload, crash recovery)"
go build -o "$BENCHDIR/etsn-cncd" ./cmd/etsn-cncd
go build -o "$BENCHDIR/daemongate" ./scripts/daemongate
"$BENCHDIR/daemongate" -bin "$BENCHDIR/etsn-cncd" \
    -config scripts/testdata/trace-config.json -data "$BENCHDIR/cncd-data"

echo "==> fuzz smoke (${FUZZTIME} per target)"
go test ./internal/qcc/ -run=^$ -fuzz=FuzzParse$ -fuzztime="$FUZZTIME"
go test ./internal/qcc/ -run=^$ -fuzz=FuzzParseDeployment -fuzztime="$FUZZTIME"
go test ./internal/qcc/ -run=^$ -fuzz=FuzzExportStreamIDs -fuzztime="$FUZZTIME"
go test ./internal/smt/ -run=^$ -fuzz=FuzzSolve -fuzztime="$FUZZTIME"
go test ./internal/sim/ -run=^$ -fuzz=FuzzFrameLifecycle -fuzztime="$FUZZTIME"
go test ./internal/core/ -run=^$ -fuzz=FuzzClearOffsets -fuzztime="$FUZZTIME"
go test ./internal/gcl/ -run=^$ -fuzz=FuzzResynthesize -fuzztime="$FUZZTIME"

echo "==> differential fuzz smoke (CDCL vs reference, ${DIFF_FUZZTIME})"
go test ./internal/smt/ -run=^$ -fuzz=FuzzDifferential -fuzztime="$DIFF_FUZZTIME"

echo "==> daemon decoder fuzz smoke (${DIFF_FUZZTIME})"
go test ./internal/service/ -run=^$ -fuzz=FuzzDecodeSubmit -fuzztime="$DIFF_FUZZTIME"
go test ./internal/service/ -run=^$ -fuzz=FuzzDecodeAdmit -fuzztime="$FUZZTIME"

echo "==> non-test Go lines and core.Options fields (the figures ROADMAP.md tracks)"
find . -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
go test -count=1 -v -run '^TestOptionsFieldBudget$' ./internal/core/ | grep -o 'core.Options fields: [0-9]*'

echo "==> OK"
