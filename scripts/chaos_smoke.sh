#!/usr/bin/env bash
# Chaos smoke test of cmd/emserve (the CI "chaos-smoke" job, also
# runnable locally): boots the server with a -chaos-outage window so
# every LLM call fails for the first seconds of its life, drives
# resolves straight into the outage, and asserts the fault-tolerance
# contract end to end:
#
#   - no resolve ever surfaces a 5xx: escalations degrade to local
#     verdicts marked "deferred" instead of failing,
#   - /readyz stays 200 but annotates degraded=llm_breaker_open,
#   - /metrics shows the breaker open (em_llm_breaker_state) and the
#     degraded pairs counted (em_deferred_pairs_total),
#   - once the outage window closes, the background re-escalator
#     drains the deferred queue, and a restart on the directory
#     recovers the pairs as ordinary journaled LLM decisions, no
#     longer deferred.
#
# Environment:
#   EMSERVE_ADDR  listen address (default 127.0.0.1:18081)
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

ADDR="${EMSERVE_ADDR:-127.0.0.1:18081}"
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

echo "== start with an 8s LLM outage window =="
# Aggressive resilience settings so the breaker trips on the first
# failed call and deferred pairs are retried every half second (the
# re-escalator ticks at the breaker cooldown) after recovery.
"$TMP/emserve" -addr "$ADDR" -persist "$TMP/data" \
    -chaos-outage 8s -breaker-failures 1 -breaker-cooldown 500ms \
    -log-format json \
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

echo "== ingest records =="
curl -fsS -X POST "http://$ADDR/v1/records" -d '{"records":[
  {"id":"r1","attrs":[{"name":"title","value":"sony dsc120b cybershot camera silver"}]},
  {"id":"r2","attrs":[{"name":"title","value":"alpha beta gamma delta sameent0002"}]},
  {"id":"r3","attrs":[{"name":"title","value":"alpha beta gamma delta sameent0003"}]}]}' \
    | jq -e '.added == 3' >/dev/null || fail "ingest did not add 3 records"

echo "== resolves during the outage: degrade, never 5xx =="
# Mid-band similarity: the cascade cannot decide these locally, so
# every one needs the (dead) LLM — and must still answer 200 with the
# decisions explicitly marked deferred. curl -f fails on any 5xx.
curl -fsS -X POST "http://$ADDR/v1/resolve" \
    -d '{"id":"q1","attrs":[{"name":"title","value":"alpha beta epsilon zeta sameent0002"}]}' \
    >"$TMP/resolve1.json" || fail "resolve during outage surfaced an error"
jq -e '[.decisions[] | select(.deferred == true and .method == "deferred-local")] | length >= 1' \
    "$TMP/resolve1.json" >/dev/null || fail "outage resolve carries no deferred decision"
curl -fsS -X POST "http://$ADDR/v1/resolve" \
    -d '{"id":"q2","attrs":[{"name":"title","value":"alpha beta epsilon zeta sameent0003"}]}' \
    >"$TMP/resolve2.json" || fail "second resolve during outage surfaced an error"
jq -e '[.decisions[] | select(.deferred == true)] | length >= 1' \
    "$TMP/resolve2.json" >/dev/null || fail "second outage resolve carries no deferred decision"

echo "== degraded mode is visible, replica stays ready =="
curl -fsS "http://$ADDR/v1/readyz" >"$TMP/readyz.json" || fail "/readyz not 200 while degraded"
jq -e '.status == "ready" and .degraded == "llm_breaker_open"' "$TMP/readyz.json" >/dev/null \
    || fail "/readyz lacks the degraded annotation: $(cat "$TMP/readyz.json")"
curl -fsS "http://$ADDR/v1/stats" \
    | jq -e '.resilience.breaker_state != "closed"
             and .resilience.deferred_pairs >= 2 and .resilience.deferred_queue >= 1' >/dev/null \
    || fail "/stats resilience block does not reflect the outage"

echo "== breaker and deferred metrics are exported =="
curl -fsS "http://$ADDR/v1/metrics" >"$TMP/metrics.txt" || fail "could not scrape /metrics"
metric_nonzero() {
    awk -v name="$1" '$1 == name && $2 + 0 > 0 {found = 1} END {exit !found}' "$TMP/metrics.txt" \
        || fail "metric $1 is missing or zero"
}
metric_nonzero em_llm_breaker_state
metric_nonzero em_deferred_pairs_total
metric_nonzero em_breaker_trips_total

echo "== outage ends: deferred queue drains through the re-escalator =="
drained=""
for _ in $(seq 1 300); do
    if curl -fsS "http://$ADDR/v1/stats" \
        | jq -e '.resilience.deferred_queue == 0 and .resilience.redecided >= 2
                 and .resilience.breaker_state == "closed"' >/dev/null 2>&1; then
        drained=1
        break
    fi
    sleep 0.1
done
[ -n "$drained" ] || fail "deferred queue did not drain after the outage window"
curl -fsS "http://$ADDR/v1/readyz" | jq -e '.status == "ready" and (has("degraded") | not)' >/dev/null \
    || fail "/readyz still degraded after recovery"

echo "== no resolve ever answered 5xx =="
curl -fsS "http://$ADDR/v1/metrics" >"$TMP/metrics2.txt" || fail "could not re-scrape /metrics"
awk '/^em_http_responses_total\{class="5xx",route="resolve"\}/ && $2 + 0 > 0 {exit 1}' \
    "$TMP/metrics2.txt" || fail "resolve answered a 5xx during the outage"

echo "== shutdown: re-decided pairs are journaled as ordinary LLM decisions =="
kill -TERM "$SRV_PID"
STATUS=0
wait "$SRV_PID" || STATUS=$?
SRV_PID=""
[ "$STATUS" -eq 0 ] || fail "server exited with status $STATUS"
jq -e '.deferred == null or (.deferred | length == 0)' "$TMP/data/snapshot.json" >/dev/null \
    || fail "final snapshot still queues deferred pairs"

echo "== restart: the journal holds the re-decisions, nothing is deferred =="
"$TMP/emserve" -addr "$ADDR" -persist "$TMP/data" -log-format json >"$TMP/server2.log" 2>&1 &
SRV_PID=$!
up=""
for _ in $(seq 1 100); do
    if curl -fsS "http://$ADDR/v1/stats" >"$TMP/stats2.json" 2>/dev/null; then
        up=1
        break
    fi
    kill -0 "$SRV_PID" 2>/dev/null || fail "server died during restart"
    sleep 0.1
done
[ -n "$up" ] || fail "server did not come back on $ADDR within 10s"
jq -e '.persist.recovered_decisions >= 2 and .persist.journal_bytes > 0
       and .resilience.deferred_queue == 0' "$TMP/stats2.json" >/dev/null \
    || fail "restart did not recover the journaled decisions: $(jq -c '{persist, resilience}' "$TMP/stats2.json")"
# The same queries again: served from the recovered journal, as the
# LLM verdicts the re-escalator wrote over the deferred ones.
for q in 2 3; do
    curl -fsS -X POST "http://$ADDR/v1/resolve" \
        -d "{\"id\":\"q$((q - 1))\",\"attrs\":[{\"name\":\"title\",\"value\":\"alpha beta epsilon zeta sameent000$q\"}]}" \
        | jq -e '(.decisions | length >= 1)
                 and all(.decisions[]; .journaled == true and .deferred != true)
                 and ([.decisions[] | select(.method == "llm")] | length >= 1)' >/dev/null \
        || fail "q$((q - 1)) after restart is not served from journaled LLM decisions"
done
kill -TERM "$SRV_PID"
STATUS=0
wait "$SRV_PID" || STATUS=$?
SRV_PID=""
[ "$STATUS" -eq 0 ] || fail "restarted server exited with status $STATUS"

echo "OK: chaos smoke passed"
