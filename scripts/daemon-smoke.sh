#!/bin/sh
# daemon-smoke.sh — end-to-end smoke test of the mpqd resident daemon.
#
# Starts mpqd with both front ends on loopback ports, waits for
# /healthz, submits the same query once over HTTP/JSON and once over
# the wire protocol (via mpqopt -engine daemon), and requires the two
# answers to carry the same plan fingerprint — the serving-path
# equivalence the daemon promises. Then SIGTERMs the daemon and
# requires a clean drain (exit 0 and the "drained cleanly" line).
#
# A last leg covers the TCP master's CLI path, mpqopt -engine tcp
# against an mpqnode worker: same fingerprint as -engine local at the
# same -workers, and a batch of positional query files that dials the
# worker once.
#
# Run from the repository root:  sh scripts/daemon-smoke.sh
set -eu

HTTP_PORT="${HTTP_PORT:-18080}"
WIRE_PORT="${WIRE_PORT:-19990}"
WORKER_PORT="${WORKER_PORT:-19991}"
WORK="$(mktemp -d)"
MPQD_PID=""
WORKER_PID=""

cleanup() {
    for pid in $MPQD_PID $WORKER_PID; do
        if kill -0 "$pid" 2>/dev/null; then
            kill -KILL "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "==> building mpqd, mpqopt, mpqgen, mpqnode"
go build -o "$WORK/mpqd" ./cmd/mpqd
go build -o "$WORK/mpqopt" ./cmd/mpqopt
go build -o "$WORK/mpqgen" ./cmd/mpqgen
go build -o "$WORK/mpqnode" ./cmd/mpqnode

echo "==> generating a deterministic 6-table query"
"$WORK/mpqgen" -tables 6 -shape Star -seed 7 -out "$WORK/q.json"

echo "==> starting mpqd (http :$HTTP_PORT, wire :$WIRE_PORT)"
"$WORK/mpqd" -http "127.0.0.1:$HTTP_PORT" -wire "127.0.0.1:$WIRE_PORT" \
    -engine serial -cache-bytes 1048576 \
    -plan-log "$WORK/plans.log" >"$WORK/mpqd.out" 2>&1 &
MPQD_PID=$!

echo "==> waiting for /healthz"
i=0
until curl -fsS "http://127.0.0.1:$HTTP_PORT/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "mpqd never became healthy; daemon output:" >&2
        cat "$WORK/mpqd.out" >&2
        exit 1
    fi
    if ! kill -0 "$MPQD_PID" 2>/dev/null; then
        echo "mpqd exited prematurely; daemon output:" >&2
        cat "$WORK/mpqd.out" >&2
        exit 1
    fi
    sleep 0.1
done

echo "==> submitting over HTTP/JSON"
curl -fsS -d "{\"query\": $(cat "$WORK/q.json"), \"workers\": 2}" \
    "http://127.0.0.1:$HTTP_PORT/v1/optimize" >"$WORK/http.json"
http_fp=$(grep -o '"fingerprint":"[0-9a-f]*"' "$WORK/http.json" | cut -d'"' -f4)
if [ -z "$http_fp" ]; then
    echo "no fingerprint in the HTTP answer:" >&2
    cat "$WORK/http.json" >&2
    exit 1
fi
echo "    http fingerprint: $http_fp"

echo "==> submitting over the wire protocol"
"$WORK/mpqopt" -engine daemon -daemon-addr "127.0.0.1:$WIRE_PORT" \
    -query "$WORK/q.json" -workers 2 -fingerprint >"$WORK/wire.out"
wire_fp=$(grep '^fingerprint: ' "$WORK/wire.out" | cut -d' ' -f2)
if [ -z "$wire_fp" ]; then
    echo "no fingerprint in the wire answer:" >&2
    cat "$WORK/wire.out" >&2
    exit 1
fi
echo "    wire fingerprint: $wire_fp"

if [ "$http_fp" != "$wire_fp" ]; then
    echo "FAIL: HTTP and wire fingerprints differ ($http_fp vs $wire_fp)" >&2
    exit 1
fi

echo "==> checking /metrics counted both requests"
curl -fsS "http://127.0.0.1:$HTTP_PORT/metrics" >"$WORK/metrics.out"
for needle in 'source="http"' 'source="wire"'; do
    if ! grep -q "$needle" "$WORK/metrics.out"; then
        echo "FAIL: /metrics is missing a series for $needle" >&2
        cat "$WORK/metrics.out" >&2
        exit 1
    fi
done

echo "==> SIGTERM, expecting a clean drain"
kill -TERM "$MPQD_PID"
status=0
wait "$MPQD_PID" || status=$?
MPQD_PID=""
if [ "$status" -ne 0 ]; then
    echo "FAIL: mpqd exited with status $status; output:" >&2
    cat "$WORK/mpqd.out" >&2
    exit 1
fi
if ! grep -q "drained cleanly" "$WORK/mpqd.out"; then
    echo "FAIL: no 'drained cleanly' line; output:" >&2
    cat "$WORK/mpqd.out" >&2
    exit 1
fi
if ! grep -q '"fingerprint"' "$WORK/plans.log"; then
    echo "FAIL: plan log has no decision records" >&2
    exit 1
fi

echo "==> starting an mpqnode worker (:$WORKER_PORT)"
"$WORK/mpqnode" worker -listen "127.0.0.1:$WORKER_PORT" >"$WORK/worker.out" 2>&1 &
WORKER_PID=$!
i=0
until grep -q "listening" "$WORK/worker.out" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ] || ! kill -0 "$WORKER_PID" 2>/dev/null; then
        echo "mpqnode worker never came up; output:" >&2
        cat "$WORK/worker.out" >&2
        exit 1
    fi
    sleep 0.1
done

# Fingerprints agree across engines at equal -workers (the daemon above
# runs -engine serial, so its fingerprint is the m=1 one: ROADMAP item 2).
echo "==> mpqopt -engine tcp against the worker vs -engine local"
"$WORK/mpqopt" -engine tcp -tcp-workers "127.0.0.1:$WORKER_PORT" \
    -query "$WORK/q.json" -workers 2 -fingerprint >"$WORK/tcp.out"
"$WORK/mpqopt" -engine local \
    -query "$WORK/q.json" -workers 2 -fingerprint >"$WORK/local.out"
tcp_fp=$(grep '^fingerprint: ' "$WORK/tcp.out" | cut -d' ' -f2)
local_fp=$(grep '^fingerprint: ' "$WORK/local.out" | cut -d' ' -f2)
echo "    tcp fingerprint:   $tcp_fp"
echo "    local fingerprint: $local_fp"
if [ -z "$tcp_fp" ] || [ "$tcp_fp" != "$local_fp" ]; then
    echo "FAIL: tcp and local fingerprints differ or are missing" >&2
    cat "$WORK/tcp.out" "$WORK/local.out" >&2
    exit 1
fi

echo "==> mpqopt -engine tcp, two positional query files as one batch"
"$WORK/mpqgen" -tables 7 -shape Chain -seed 8 -out "$WORK/q2.json"
"$WORK/mpqopt" -engine tcp -tcp-workers "127.0.0.1:$WORKER_PORT" -workers 2 \
    "$WORK/q.json" "$WORK/q2.json" >"$WORK/batch.out"
if ! grep -q "batch of 2 queries .* 1 connection(s) dialed for the whole batch" "$WORK/batch.out"; then
    echo "FAIL: the batch did not dial its one worker exactly once:" >&2
    cat "$WORK/batch.out" >&2
    exit 1
fi

kill -TERM "$WORKER_PID"
wait "$WORKER_PID" || true
WORKER_PID=""

echo "PASS: fingerprints identical across fronts and engines, drain clean, plan log written, TCP batch dialed once"
