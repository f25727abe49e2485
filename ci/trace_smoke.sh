#!/bin/sh
# trace_smoke.sh — end-to-end smoke of the oracle trace layer: record a
# 1k-instruction window with cmd/dcatrace, replay it through cmd/dcasim,
# serve the same cell from dcaserve, and assert all three result digests
# are bit-identical to the live run. Also asserts the whole-file checksum
# makes a corrupted recording fail loudly instead of replaying garbage.
# Run from the repo root (`make trace-smoke` or the CI step).
set -eu

ADDR=127.0.0.1:8098
TMP="${TMPDIR:-/tmp}"
SIM="$TMP/dcasim-tracesmoke"
TRC="$TMP/dcatrace-tracesmoke"
SRV="$TMP/dcaserve-tracesmoke"
TRACE="$TMP/tracesmoke.trace"
OUT="$TMP/tracesmoke.json"

# One cell: compress/general, 200 warm-up + 1000 measured instructions,
# on the paper's machine. The recording covers exactly the window plus
# core.FetchAheadBound for that machine (64 in flight + 32 queued + 8
# retired - 1 = 103), the most the front end can fetch past the commit
# target, so the dcasim replay below runs on no more stream than the
# bound promises is enough.
WARMUP=200
MEASURE=1000
WINDOW=1200
STEPS=1303

go build -o "$SIM" ./cmd/dcasim
go build -o "$TRC" ./cmd/dcatrace
go build -o "$SRV" ./cmd/dcaserve

# Record, then re-verify: info re-decodes the file, which checks the
# whole-file checksum and prints the content digest.
"$TRC" record -bench compress -n "$STEPS" -window "$WINDOW" -o "$TRACE" >/dev/null
"$TRC" info "$TRACE" | grep -Eq '"digest": "[0-9a-f]{64}"'
"$TRC" info "$TRACE" | grep -q '"format_version": 1'

digest_row() {
  sed -n 's/.*result digest[[:space:]]*\([0-9a-f]\{64\}\).*/\1/p'
}

LIVE=$("$SIM" -bench compress -scheme general -warmup "$WARMUP" -measure "$MEASURE" | digest_row)
REPLAY=$("$SIM" -bench compress -scheme general -warmup "$WARMUP" -measure "$MEASURE" -replay "$TRACE" | digest_row)
if [ -z "$LIVE" ] || [ "$LIVE" != "$REPLAY" ]; then
  echo "trace smoke: dcasim replay digest mismatch (live=$LIVE replay=$REPLAY)" >&2
  exit 1
fi

# A corrupted recording must be rejected at decode time, not replayed.
head -c "$(($(wc -c <"$TRACE") - 1))" "$TRACE" >"$TRACE.bad"
if "$SIM" -bench compress -scheme general -warmup "$WARMUP" -measure "$MEASURE" -replay "$TRACE.bad" >/dev/null 2>&1; then
  echo "trace smoke: truncated trace replayed without an error" >&2
  exit 1
fi

# The same cell served by dcaserve must land on the same
# content-addressed result.
"$SRV" -addr "$ADDR" &
PID=$!
trap 'kill $PID 2>/dev/null || true' EXIT

i=0
until curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "dcaserve did not come up on $ADDR" >&2
    exit 1
  fi
  sleep 0.1
done

curl -fsS -X POST "http://$ADDR/v1/jobs" \
  -d "{\"scheme\":\"general\",\"benchmark\":\"compress\",\"warmup\":$WARMUP,\"measure\":$MEASURE}" >"$OUT"
SERVED=$(sed -n 's/.*"result_digest": "\([0-9a-f]\{64\}\)".*/\1/p' "$OUT" | head -1)
if [ "$SERVED" != "$LIVE" ]; then
  echo "trace smoke: dcaserve digest mismatch (live=$LIVE served=$SERVED)" >&2
  exit 1
fi

echo "trace smoke OK (digest $LIVE)"
