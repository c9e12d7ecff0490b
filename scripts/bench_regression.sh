#!/usr/bin/env bash
# Benchmark-regression gate for the resolve store.
#
# 1. Runs the resolve, dispatcher and blocking hot-path benches once
#    (-benchtime=1x) as a smoke check — they fail loudly if the hot
#    path breaks under bench load.
# 2. Replays the cascade reference workload (120 WDC seed records x
#    120 queries) and compares the LLM-call count against the baseline
#    recorded in BENCH_resolve.json. More LLM calls than the baseline
#    is a cost regression and fails the build; when a change moves the
#    number intentionally, regenerate BENCH_resolve.json in the same
#    PR (the file documents how).
# 3. Replays the dispatcher reference workload (64 concurrent
#    resolvers, one uncertain pair each) and fails if the
#    micro-batching dispatcher achieves fewer round-trip savings than
#    the min_improvement_x recorded in BENCH_dispatch.json.
# 4. Measures resolve throughput and fails if it regresses more than
#    HOTPATH_SLACK (default 25%) against the ns/op recorded in
#    BENCH_hotpath.json. Hardware differences between the baseline
#    machine and the runner eat into the margin; raise HOTPATH_SLACK
#    (e.g. HOTPATH_SLACK=2.0) on much slower hosts, and regenerate
#    BENCH_hotpath.json in the same PR when a change moves the number
#    intentionally.
# 5. Measures resolve throughput with the telemetry subsystem enabled
#    (BenchmarkStoreResolveTelemetry) and compares it against the bare
#    number just measured on the SAME host: the instrumentation cost
#    of stage timers, counters and histograms must stay under
#    TELEMETRY_OVERHEAD (default 1.5 = +50%). Relative to a same-run
#    measurement, the gate is immune to hardware differences that the
#    absolute baseline gate needs HOTPATH_SLACK for.
# 6. Checks the blocking postings and the scorer cutover: the
#    deterministic synthetic 100k index must cost at most half of raw
#    int32 positions (4 B a posting, by arithmetic:
#    TestPostingsBytesCompression), and on benchmark-shaped queries
#    over a 4k-record index — a shard of the bench/ store — the path
#    the size rule picks must not be slower than the cursor path forced
#    onto the same index (BenchmarkIndexQueryWDC, both on the SAME
#    host, same run).
# 7. Measures the mmap restart path (BenchmarkOpenMapped, 100k-record
#    snapshot) against the absolute open_mapped_100k_ns baseline in
#    BENCH_index10m.json x restart_slack (INDEX_RESTART_SLACK
#    overrides; like HOTPATH_SLACK, raise it on much slower hosts).
# 8. Measures a checkpoint of the same 10k-record store carrying the
#    same delta with 10k and with 100k decisions already journaled
#    (BenchmarkStoreCheckpoint, both on the SAME host, same run) and
#    fails if the second costs more than 1.5 times the first:
#    checkpoints are O(delta), not O(journal).
# 9. Measures resolve.Open of a checkpointed store holding 10k and
#    100k records, empty journal, no resolves (BenchmarkStoreOpen
#    records=, both on the SAME host, same run) and fails if the second
#    costs more than 8 times the first. Measured 2.8-6.1x, median 5
#    (0.3-0.6 ms -> 1.6-2.0 ms over six runs: the small side is noise-
#    sized, and what still grows is blocking.OpenMapped's sweep of a
#    vocabulary this synthetic corpus grows in step with its records)
#    against 10.6-12.0x (4.4-7.0 ms -> 52-74 ms) when open walked
#    every record into the entity graph.
#
# With ARTIFACT_DIR set, the full output is teed into
# $ARTIFACT_DIR/bench_output.txt and the dispatcher gate writes its
# measured-vs-baseline comparison to
# $ARTIFACT_DIR/dispatch_comparison.json — CI uploads the directory
# as a workflow artifact.
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

main() {
    echo "== hot-path bench smoke (-benchtime=1x) =="
    go test -run '^$' -bench 'BenchmarkStore' -benchtime=1x ./internal/resolve/
    go test -run '^$' -bench 'BenchmarkIndexQuery|BenchmarkIndexAdd' -benchtime=1x ./internal/blocking/

    echo ""
    echo "== LLM-call regression gate vs BENCH_resolve.json =="
    BENCH_REGRESSION=1 go test -count=1 -run 'TestLLMCallRegression' -v ./internal/resolve/

    echo ""
    echo "== dispatcher round-trip gate vs BENCH_dispatch.json =="
    BENCH_REGRESSION=1 go test -count=1 -run 'TestDispatchRoundTrips' -v ./internal/resolve/

    echo ""
    echo "== resolve throughput gate vs BENCH_hotpath.json =="
    BASE_NS="$(python3 -c "import json; print(json.load(open('BENCH_hotpath.json'))['resolve_10k']['after']['ns_op'])")"
    SLACK="${HOTPATH_SLACK:-1.25}"
    GOT_NS="$(go test -run '^$' -bench 'BenchmarkStoreResolve$' -benchtime=0.5s ./internal/resolve/ \
        | awk '/^BenchmarkStoreResolve/ {print $3; exit}')"
    if [ -z "$GOT_NS" ]; then
        echo "FAIL: could not measure BenchmarkStoreResolve" >&2
        exit 1
    fi
    awk -v got="$GOT_NS" -v base="$BASE_NS" -v slack="$SLACK" 'BEGIN {
        limit = base * slack
        printf "resolve: %.0f ns/op (baseline %.0f, limit %.0f = baseline x %.2f)\n", got, base, limit, slack
        if (got + 0 > limit) {
            printf "FAIL: resolve throughput regressed beyond the %.0f%% margin\n", (slack - 1) * 100
            exit 1
        }
        print "OK: resolve throughput gate passed"
    }'

    echo ""
    echo "== telemetry instrumentation-cost gate (relative to bare resolve) =="
    OVERHEAD="${TELEMETRY_OVERHEAD:-1.5}"
    TEL_NS="$(go test -run '^$' -bench 'BenchmarkStoreResolveTelemetry$' -benchtime=0.5s ./internal/resolve/ \
        | awk '/^BenchmarkStoreResolveTelemetry/ {print $3; exit}')"
    if [ -z "$TEL_NS" ]; then
        echo "FAIL: could not measure BenchmarkStoreResolveTelemetry" >&2
        exit 1
    fi
    awk -v got="$TEL_NS" -v bare="$GOT_NS" -v overhead="$OVERHEAD" 'BEGIN {
        limit = bare * overhead
        printf "resolve+telemetry: %.0f ns/op (bare %.0f, limit %.0f = bare x %.2f)\n", got, bare, limit, overhead
        if (got + 0 > limit) {
            printf "FAIL: telemetry instrumentation costs more than %.0f%% on the hot path\n", (overhead - 1) * 100
            exit 1
        }
        print "OK: telemetry instrumentation-cost gate passed"
    }'

    echo ""
    echo "== postings compression + scorer cutover gate =="
    go test -count=1 -run 'TestPostingsBytesCompression$' -v ./internal/blocking/
    WDC_OUT="$(go test -run '^$' -bench 'BenchmarkIndexQueryWDC/records=4k' -benchtime=0.5s ./internal/blocking/)"
    DEFAULT_NS="$(printf '%s\n' "$WDC_OUT" | awk '/^BenchmarkIndexQueryWDC\/records=4k\/default/ {print $3; exit}')"
    CURSOR_NS="$(printf '%s\n' "$WDC_OUT" | awk '/^BenchmarkIndexQueryWDC\/records=4k\/cursor/ {print $3; exit}')"
    if [ -z "$DEFAULT_NS" ] || [ -z "$CURSOR_NS" ]; then
        echo "FAIL: could not measure the BenchmarkIndexQueryWDC/records=4k pair" >&2
        exit 1
    fi
    awk -v def="$DEFAULT_NS" -v cur="$CURSOR_NS" 'BEGIN {
        printf "4k-record WDC query: default path %.0f ns/op vs forced cursor path %.0f\n", def, cur
        if (def + 0 > cur + 0) {
            print "FAIL: the scorer the size rule picks is slower than the one it rejects"
            exit 1
        }
        print "OK: postings compression + scorer cutover gate passed"
    }'

    echo ""
    echo "== mmap restart gate vs BENCH_index10m.json =="
    OPEN_BASE="$(python3 -c "import json; print(json.load(open('BENCH_index10m.json'))['gates']['open_mapped_100k_ns'])")"
    RESTART_SLACK="${INDEX_RESTART_SLACK:-$(python3 -c "import json; print(json.load(open('BENCH_index10m.json'))['gates']['restart_slack'])")}"
    OPEN_NS="$(go test -run '^$' -bench 'BenchmarkOpenMapped$' -benchtime=0.5s ./internal/blocking/ \
        | awk '/^BenchmarkOpenMapped/ {print $3; exit}')"
    if [ -z "$OPEN_NS" ]; then
        echo "FAIL: could not measure BenchmarkOpenMapped" >&2
        exit 1
    fi
    awk -v got="$OPEN_NS" -v base="$OPEN_BASE" -v slack="$RESTART_SLACK" 'BEGIN {
        limit = base * slack
        printf "OpenMapped (100k snapshot): %.0f ns/op (baseline %.0f, limit %.0f = baseline x %.2f)\n", got, base, limit, slack
        if (got + 0 > limit) {
            print "FAIL: mmap restart regressed beyond the slack margin"
            exit 1
        }
        print "OK: mmap restart gate passed"
    }'

    echo ""
    echo "== O(delta) checkpoint gate (100k-decision journal relative to 10k) =="
    SCALING=1.5
    CKPT_OUT="$(go test -run '^$' -bench 'BenchmarkStoreCheckpoint$' -benchtime=20x ./internal/resolve/)"
    SMALL_NS="$(printf '%s\n' "$CKPT_OUT" | awk '/^BenchmarkStoreCheckpoint\/journal=10k/ {print $3; exit}')"
    LARGE_NS="$(printf '%s\n' "$CKPT_OUT" | awk '/^BenchmarkStoreCheckpoint\/journal=100k/ {print $3; exit}')"
    if [ -z "$SMALL_NS" ] || [ -z "$LARGE_NS" ]; then
        echo "FAIL: could not measure the BenchmarkStoreCheckpoint pair" >&2
        exit 1
    fi
    awk -v small="$SMALL_NS" -v large="$LARGE_NS" -v scaling="$SCALING" 'BEGIN {
        limit = small * scaling
        printf "checkpoint: %.0f ns/op at 100k journaled decisions vs %.0f at 10k (limit %.0f = 10k x %.2f)\n", large, small, limit, scaling
        if (large + 0 > limit) {
            print "FAIL: checkpoint cost grows with the journal, not with the delta"
            exit 1
        }
        print "OK: O(delta) checkpoint gate passed"
    }'

    echo ""
    echo "== store open gate (100k records relative to 10k) =="
    OPEN_OUT="$(go test -run '^$' -bench 'BenchmarkStoreOpen/records=' -benchtime=20x ./internal/resolve/)"
    OPEN_SMALL_NS="$(printf '%s\n' "$OPEN_OUT" | awk '/^BenchmarkStoreOpen\/records=10k/ {print $3; exit}')"
    OPEN_LARGE_NS="$(printf '%s\n' "$OPEN_OUT" | awk '/^BenchmarkStoreOpen\/records=100k/ {print $3; exit}')"
    if [ -z "$OPEN_SMALL_NS" ] || [ -z "$OPEN_LARGE_NS" ]; then
        echo "FAIL: could not measure the BenchmarkStoreOpen/records= pair" >&2
        exit 1
    fi
    awk -v small="$OPEN_SMALL_NS" -v large="$OPEN_LARGE_NS" 'BEGIN {
        limit = small * 8
        printf "open: %.0f ns/op at 100k records vs %.0f at 10k (limit %.0f = 10k x 8)\n", large, small, limit
        if (large + 0 > limit) {
            print "FAIL: resolve.Open walks the records again"
            exit 1
        }
        print "OK: store open gate passed"
    }'
}

if [ -n "${ARTIFACT_DIR:-}" ]; then
    mkdir -p "$ARTIFACT_DIR"
    # Absolute: the gate test writes the comparison from inside its
    # package directory.
    ARTIFACT_DIR="$(cd "$ARTIFACT_DIR" && pwd)"
    export DISPATCH_COMPARISON_OUT="$ARTIFACT_DIR/dispatch_comparison.json"
    main 2>&1 | tee "$ARTIFACT_DIR/bench_output.txt"
else
    main
fi
