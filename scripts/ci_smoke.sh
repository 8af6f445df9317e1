#!/usr/bin/env bash
# CI smoke for the experiment service: build icserved, start it on a
# scratch state dir, submit a tiny 2-point grid twice through the repro
# client (which follows the JSONL event stream until its terminal line),
# require the first submission to compute both points on the fresh store
# and the second to be a pure artifact-store hit, then SIGTERM the daemon
# and require a clean drain exit. Then restart it on the same
# state dir: the grid submitted again must be fully cached, the first job's
# event stream must be its end line alone ("done"), and the daemon must
# drain cleanly once more.
set -euo pipefail
cd "$(dirname "$0")/.."

port="${SMOKE_PORT:-18473}"
work="$(mktemp -d)"
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/icserved" ./cmd/icserved

start() {
    "$work/icserved" -addr "127.0.0.1:$port" -dir "$work/state" &
    pid=$!
    for _ in $(seq 1 100); do
        if curl -fsS "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; then
            break
        fi
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "icserved exited before becoming healthy" >&2
            exit 1
        fi
        sleep 0.1
    done
    curl -fsS "http://127.0.0.1:$port/healthz" >/dev/null
}

drain() {
    kill -TERM "$pid"
    if ! wait "$pid"; then
        echo "icserved did not drain cleanly on SIGTERM ($1)" >&2
        exit 1
    fi
    pid=""
}

start
go run ./scripts/repro -addr "http://127.0.0.1:$port" -smoke
record="$(curl -fsS "http://127.0.0.1:$port/jobs/j000000")"
if ! grep -q '"computed":2[,}]' <<<"$record" || grep -q '"cached"' <<<"$record"; then
    echo "job j000000 on the fresh store did not compute both points: $record" >&2
    exit 1
fi
drain "first start"

# The restart: jobs j000000 and j000001 are done records, and the rerun's
# two jobs (j000002, j000003) compute nothing.
start
go run ./scripts/repro -addr "http://127.0.0.1:$port" -smoke
for id in j000002 j000003; do
    record="$(curl -fsS "http://127.0.0.1:$port/jobs/$id")"
    if ! grep -q '"cached":2' <<<"$record" || grep -q '"computed"' <<<"$record"; then
        echo "job $id after the restart is not fully cached: $record" >&2
        exit 1
    fi
done
events="$(curl -fsS "http://127.0.0.1:$port/jobs/j000000/events?follow=0")"
if [ "$(wc -l <<<"$events")" -ne 1 ] || ! grep -q '"type":"end"' <<<"$events" ||
    ! grep -q '"state":"done"' <<<"$events"; then
    echo "events of j000000 after the restart: want its done end line alone, got: $events" >&2
    exit 1
fi
drain "after the restart"
echo "ci_smoke: ok"
