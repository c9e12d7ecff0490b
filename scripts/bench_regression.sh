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
# 4. Times resolve throughput (BenchmarkStoreResolve, 0.5 s a run) of
#    the base revision BASE_REF (default HEAD~1; built in a temporary
#    git worktree, as scripts/bench_compare.sh does) against the
#    working tree, alternating the two test binaries five times, and
#    fails if the change's median exceeds the base's median x
#    HOTPATH_SLACK (default 1.25). Both sides run on the same host in
#    the same minutes, so host speed cancels out of the ratio; the
#    figures in BENCH_hotpath.json are records, not a baseline.
# 5. Times resolve throughput with the telemetry subsystem enabled
#    (BenchmarkStoreResolveTelemetry) in the same five rounds, each
#    right after the working tree's bare BenchmarkStoreResolve run, and
#    fails if its median exceeds the bare median x TELEMETRY_OVERHEAD
#    (default 1.5 = +50%): the instrumentation cost of stage timers,
#    counters and histograms.
# 6. Checks the blocking index's size: the deterministic synthetic 100k
#    index must cost at most half of raw int32 positions (4 B a
#    posting, by arithmetic: TestPostingsBytesCompression), and the
#    index file of a deterministic 4 096-record WDC shard must stay
#    within its bytes-per-record budget (TestEMIXBytesPerRecord).
# 7. Times the mmap restart path (BenchmarkOpenMapped, 100k-record
#    snapshot) the way gate 4 times resolves — base revision against
#    working tree, five alternating runs each — and fails if the
#    change's median exceeds the base's median x restart_slack from
#    BENCH_index10m.json (INDEX_RESTART_SLACK overrides). The
#    open_mapped_100k_ns figure there is a record, not a baseline.
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
# 10. Holds the local path's allocations to fixed budgets: allocs/op
#    of BenchmarkGeneralizedJaccard must be 0, of BenchmarkPairFeatures
#    (pre-extracted pairs) at most 4, of
#    BenchmarkStoreCheckpoint/journal=10k (gate 8's run) at most 1 000,
#    and of BenchmarkDecodeRecordsBody (one 200-record NDJSON batch
#    through emserve's body parser) at most 1 500.
#    Allocation counts are deterministic, so unlike the timing gates
#    this one does not move with the host's speed.
#
# With ARTIFACT_DIR set, the full output is teed into
# $ARTIFACT_DIR/bench_output.txt and the dispatcher gate writes its
# measured-vs-baseline comparison to
# $ARTIFACT_DIR/dispatch_comparison.json — CI uploads the directory
# as a workflow artifact.
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

BASE_REF="${BASE_REF:-HEAD~1}"
if ! git rev-parse -q --verify "$BASE_REF^{commit}" >/dev/null; then
    # A push that creates a branch reports an all-zero previous head.
    echo "BASE_REF $BASE_REF is not a commit of this clone; comparing against HEAD~1"
    BASE_REF=HEAD~1
fi
ROUNDS=5

TMP="$(mktemp -d)"
cleanup() {
    git worktree remove --force "$TMP/base" >/dev/null 2>&1 || true
    rm -rf "$TMP"
}
trap cleanup EXIT

# build_bins builds the resolve and blocking test binaries of BASE_REF
# (in a worktree) and of the working tree into $TMP/{base,change}-bin.
build_bins() {
    git worktree add --detach "$TMP/base" "$BASE_REF" >/dev/null
    for side in base change; do
        local src=.
        [ "$side" = base ] && src="$TMP/base"
        mkdir -p "$TMP/$side-bin"
        for pkg in resolve blocking; do
            (cd "$src" && go test -c -o "$TMP/$side-bin/$pkg.test" "./internal/$pkg/")
        done
    done
}

# bench_ns SIDE PKG NAME runs benchmark NAME once for 0.5 s from SIDE's
# test binary of internal/PKG and prints its ns/op (nothing if the run
# failed, which gate_medians reports).
bench_ns() {
    local src=.
    [ "$1" = base ] && src="$TMP/base"
    (cd "$src/internal/$2" && "$TMP/$1-bin/$2.test" -test.timeout 10m -test.run '^$' -test.bench "^$3\$" -test.benchtime 0.5s) |
        awk -v name="$3" '$1 ~ "^" name "(-[0-9]+)?$" {print $3; exit}' || true
}

# median prints the middle of ROUNDS whitespace-separated figures on
# stdin, or nothing when a run gave no figure.
median() {
    tr ' ' '\n' | grep -v '^$' | sort -g |
        awk -v n="$ROUNDS" '{v[NR] = $1} END {if (NR == n) print v[int((NR + 1) / 2)]}'
}

# gate_medians LABEL GOT_RUNS REF_RUNS REF_NAME FACTOR fails when the
# median of GOT_RUNS exceeds the median of REF_RUNS x FACTOR.
gate_medians() {
    local got ref
    got="$(median <<<"$2")"
    ref="$(median <<<"$3")"
    echo "  runs: ${2# } | $4: ${3# }"
    if [ -z "$got" ] || [ -z "$ref" ]; then
        echo "FAIL: $1: could not measure $ROUNDS runs a side" >&2
        exit 1
    fi
    awk -v label="$1" -v got="$got" -v ref="$ref" -v refname="$4" -v f="$5" 'BEGIN {
        limit = ref * f
        printf "%s: median %.0f ns/op vs %s median %.0f (limit %.0f = %s x %.2f)\n", label, got, refname, ref, limit, refname, f
        if (got + 0 > limit) {
            printf "FAIL: %s regressed beyond the %.0f%% margin\n", label, (f - 1) * 100
            exit 1
        }
        printf "OK: %s gate passed\n", label
    }'
}

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
    echo "== building $BASE_REF and working-tree bench binaries =="
    build_bins

    echo ""
    echo "== resolve throughput gate ($BASE_REF vs working tree) + telemetry instrumentation-cost gate =="
    local base_runs="" bare_runs="" tel_runs=""
    for _ in $(seq "$ROUNDS"); do
        base_runs="$base_runs $(bench_ns base resolve BenchmarkStoreResolve)"
        bare_runs="$bare_runs $(bench_ns change resolve BenchmarkStoreResolve)"
        tel_runs="$tel_runs $(bench_ns change resolve BenchmarkStoreResolveTelemetry)"
    done
    gate_medians "resolve throughput" "$bare_runs" "$base_runs" "$BASE_REF" "${HOTPATH_SLACK:-1.25}"
    gate_medians "resolve+telemetry" "$tel_runs" "$bare_runs" "bare" "${TELEMETRY_OVERHEAD:-1.5}"

    echo ""
    echo "== postings compression and index file size gate =="
    go test -count=1 -run 'TestPostingsBytesCompression$|TestEMIXBytesPerRecord$' -v ./internal/blocking/
    echo "OK: postings compression and index file size gate passed"

    echo ""
    echo "== mmap restart gate ($BASE_REF vs working tree) =="
    RESTART_SLACK="${INDEX_RESTART_SLACK:-$(python3 -c "import json; print(json.load(open('BENCH_index10m.json'))['gates']['restart_slack'])")}"
    local open_base="" open_change=""
    for _ in $(seq "$ROUNDS"); do
        open_base="$open_base $(bench_ns base blocking BenchmarkOpenMapped)"
        open_change="$open_change $(bench_ns change blocking BenchmarkOpenMapped)"
    done
    gate_medians "mmap restart" "$open_change" "$open_base" "$BASE_REF" "$RESTART_SLACK"

    echo ""
    echo "== O(delta) checkpoint gate (100k-decision journal relative to 10k) =="
    SCALING=1.5
    CKPT_OUT="$(go test -run '^$' -bench 'BenchmarkStoreCheckpoint$' -benchtime=20x -benchmem ./internal/resolve/)"
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

    echo ""
    echo "== local-path allocation gate =="
    KERNEL_OUT="$(go test -run '^$' -bench '^BenchmarkGeneralizedJaccard$' -benchmem ./internal/textsim/)
$(go test -run '^$' -bench '^BenchmarkPairFeatures$' -benchmem ./internal/features/)
$(go test -run '^$' -bench '^BenchmarkDecodeRecordsBody$' -benchmem ./cmd/emserve/)
$CKPT_OUT"
    local failed=0
    while read -r name limit; do
        local got
        got="$(printf '%s\n' "$KERNEL_OUT" | awk -v name="$name" '$1 ~ "^" name "(-[0-9]+)?$" {for (i = 2; i <= NF; i++) if ($i == "allocs/op") {print $(i - 1); exit}}')"
        if [ -z "$got" ]; then
            echo "FAIL: could not measure allocs/op of $name" >&2
            failed=1
        elif [ "$got" -gt "$limit" ]; then
            echo "FAIL: $name allocates $got times per op, budget $limit"
            failed=1
        else
            echo "$name: $got allocs/op (budget $limit)"
        fi
    done <<'BUDGETS'
BenchmarkGeneralizedJaccard 0
BenchmarkPairFeatures 4
BenchmarkStoreCheckpoint/journal=10k 1000
BenchmarkDecodeRecordsBody 1500
BUDGETS
    if [ "$failed" -ne 0 ]; then
        exit 1
    fi
    echo "OK: local-path allocation gate passed"
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
