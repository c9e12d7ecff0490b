#!/usr/bin/env bash
# End-to-end smoke test of cmd/emserve (the CI "e2e-smoke" job, also
# runnable locally): builds the binary, starts it with durability and
# the micro-batching dispatcher enabled, exercises the HTTP API
# (ingest, resolve — one local and one LLM-escalated — entity
# read-back, stats) through the canonical /v1 routes plus one
# deprecated legacy alias, scrapes the observability surface (/metrics
# exposition, /healthz, /readyz, X-Request-ID, slow-resolve exemplar
# in the JSON logs), then sends SIGTERM and asserts a clean graceful
# drain and a non-empty final snapshot.
#
# Environment:
#   EMSERVE_ADDR  listen address (default 127.0.0.1:18080)
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

ADDR="${EMSERVE_ADDR:-127.0.0.1:18080}"
TMP="$(mktemp -d)"
SRV_PID=""
cleanup() {
    if [ -n "$SRV_PID" ] && kill -0 "$SRV_PID" 2>/dev/null; then
        kill -9 "$SRV_PID" 2>/dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    if [ -f "$TMP/server.log" ]; then
        echo "--- server log ---" >&2
        cat "$TMP/server.log" >&2
    fi
    exit 1
}

echo "== build emserve =="
go build -o "$TMP/emserve" ./cmd/emserve

echo "== start (persist + dispatcher + telemetry) =="
# -sync-every 1 exercises per-append fsync so em_wal_fsync_seconds is
# non-zero; -slow-resolve 1ns makes every resolve emit the structured
# exemplar line, which the JSON log assertions below pick up.
"$TMP/emserve" -addr "$ADDR" -persist "$TMP/data" -dispatch-pairs 8 \
    -sync-every 1 -log-format json -slow-resolve 1ns \
    >"$TMP/server.log" 2>&1 &
SRV_PID=$!

up=""
for _ in $(seq 1 100); do
    if curl -fsS "http://$ADDR/v1/stats" >/dev/null 2>&1; then
        up=1
        break
    fi
    kill -0 "$SRV_PID" 2>/dev/null || fail "server died during startup"
    sleep 0.1
done
[ -n "$up" ] || fail "server did not come up on $ADDR within 10s"

echo "== probes =="
curl -fsS "http://$ADDR/v1/healthz" | jq -e '.status == "ok"' >/dev/null \
    || fail "/healthz is not ok"
curl -fsS "http://$ADDR/v1/readyz" | jq -e '.status == "ready"' >/dev/null \
    || fail "/readyz is not ready after startup"
# Healthy backend: the degraded annotation must be absent (it appears
# with degraded=llm_breaker_open when the LLM breaker is open; see
# scripts/chaos_smoke.sh for the outage side of this contract).
curl -fsS "http://$ADDR/v1/readyz" | jq -e 'has("degraded") | not' >/dev/null \
    || fail "/readyz carries a degraded annotation on a healthy backend"
curl -fsSi "http://$ADDR/v1/healthz" | grep -qi '^x-request-id:' \
    || fail "response lacks an X-Request-ID header"

echo "== a bare pre-v1 path is not a route =="
[ "$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/stats")" = 404 ] \
    || fail "bare /stats did not answer 404"

echo "== ingest records =="
curl -fsS -X POST "http://$ADDR/v1/records" -d '{"records":[
  {"id":"r1","attrs":[{"name":"title","value":"sony dsc120b cybershot camera silver"}]},
  {"id":"r2","attrs":[{"name":"title","value":"makita impact drill kit 18v"}]},
  {"id":"r3","attrs":[{"name":"title","value":"alpha beta gamma delta sameent0002"}]}]}' \
    | jq -e '.added == 3' >/dev/null || fail "ingest did not add 3 records"

echo "== resolve a query (local decision) =="
curl -fsS -X POST "http://$ADDR/v1/resolve" \
    -d '{"id":"q1","attrs":[{"name":"title","value":"sony dsc120b cybershot camera silver"}]}' \
    | jq -e '.matched == true and .entity_id == "q1"' >/dev/null \
    || fail "resolve did not match q1 to r1"

echo "== resolve a query (LLM escalation) =="
# Mid-band similarity to r3: the cascade cannot decide locally and
# routes the pair through the dispatcher to the model.
curl -fsS -X POST "http://$ADDR/v1/resolve" \
    -d '{"id":"q2","attrs":[{"name":"title","value":"alpha beta epsilon zeta sameent0002"}]}' \
    >/dev/null || fail "escalated resolve failed"

echo "== read entity and stats back =="
curl -fsS "http://$ADDR/v1/entities/q1" | jq -e '.members | length >= 2' >/dev/null \
    || fail "entity q1 has fewer than 2 members"
curl -fsS "http://$ADDR/v1/stats" \
    | jq -e '.records == 3 and .resolves == 2 and .persist.enabled == true' >/dev/null \
    || fail "stats do not reflect the workload"
# The escalated resolve reached the model through the dispatcher.
curl -fsS "http://$ADDR/v1/stats" \
    | jq -e '(.dispatch.single_pair_calls + .dispatch.batched_pairs) >= 1' >/dev/null \
    || fail "the dispatcher did not carry the escalated resolve"
curl -fsS "http://$ADDR/v1/stats" \
    | jq -e '.telemetry.enabled == true and .telemetry.resolve_total == 2' >/dev/null \
    || fail "stats lack the telemetry block"
# The fault-tolerance layer is always on and idle on a healthy
# backend: breaker closed, nothing shed, deferred queue empty.
curl -fsS "http://$ADDR/v1/stats" \
    | jq -e '.resilience.breaker_state == "closed"
             and .resilience.shed == 0 and .resilience.deferred_queue == 0' >/dev/null \
    || fail "stats lack the resilience block"
curl -fsSi "http://$ADDR/v1/stats" | grep -qi '^cache-control: no-store' \
    || fail "/stats is missing Cache-Control: no-store"

echo "== scrape /metrics =="
curl -fsS "http://$ADDR/v1/metrics" >"$TMP/metrics.txt" \
    || fail "could not scrape /metrics"
metric_nonzero() {
    awk -v name="$1" '$1 == name && $2 + 0 > 0 {found = 1} END {exit !found}' "$TMP/metrics.txt" \
        || fail "metric $1 is missing or zero"
}
metric_nonzero em_resolve_total
metric_nonzero em_llm_calls_total
metric_nonzero em_wal_fsync_seconds_count
grep -q '^# TYPE em_resolve_stage_seconds histogram' "$TMP/metrics.txt" \
    || fail "/metrics lacks the stage histogram TYPE line"

echo "== slow-resolve exemplar in JSON logs =="
grep -q '"msg":"slow resolve"' "$TMP/server.log" \
    || fail "no slow-resolve exemplar line in the JSON logs"
grep '"msg":"slow resolve"' "$TMP/server.log" | head -1 | jq -e '.trace_id | length > 0' >/dev/null \
    || fail "slow-resolve line lacks a trace_id"

echo "== graceful shutdown (SIGTERM) =="
kill -TERM "$SRV_PID"
STATUS=0
wait "$SRV_PID" || STATUS=$?
SRV_PID=""
[ "$STATUS" -eq 0 ] || fail "server exited with status $STATUS"
grep -q "state flushed, bye" "$TMP/server.log" \
    || fail "server log lacks the clean-drain line"

echo "== final snapshot =="
[ -s "$TMP/data/snapshot.json" ] || fail "snapshot.json missing or empty"
# Records live only in the per-shard index snapshots; snapshot.json
# binds their epoch and has no records key at all.
jq -e '.index_shards > 0 and .index_epoch > 0 and (has("records") | not)' \
    "$TMP/data/snapshot.json" >/dev/null \
    || fail "snapshot does not reference a committed index generation"
ls "$TMP"/data/index-*.emx >/dev/null 2>&1 \
    || fail "no mmap index snapshot files on disk"
# Decisions live in the append-only journal.log; snapshot.json commits
# a length of it and never carries the journal inline.
[ -s "$TMP/data/journal.log" ] || fail "journal.log missing or empty"
jq -e '(has("journal") | not) and .journal_bytes > 0' "$TMP/data/snapshot.json" >/dev/null \
    || fail "snapshot.json still carries the journal inline or commits no journal bytes"
[ "$(jq '.journal_bytes' "$TMP/data/snapshot.json")" -eq "$(wc -c <"$TMP/data/journal.log")" ] \
    || fail "journal.log is not the length the final snapshot committed"

echo "OK: e2e smoke passed"
