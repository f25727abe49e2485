#!/bin/sh
# probe_smoke.sh — end-to-end smoke of the introspection layer: run one
# cell of the grid plain, then again with the full probe stack attached
# (-attrib + -konata), and assert the probes are passive (bit-identical
# result digest), the cycle attribution accounts for every measured cycle,
# and the Konata export is a well-formed pipeline trace. Every dcasim run
# is a job on one run path, so a -pipetrace run, a -machine override that
# names the default machine, and an assembly file run with and without
# -pipetrace must each match their plain counterpart. Then submit the
# same cell to dcaserve with "probe": true and assert the response carries
# an attribution alongside an unchanged digest while the stored result
# stays probe-free. Run from the repo root (`make probe-smoke` or the CI
# step).
set -eu

ADDR=127.0.0.1:8099
TMP="${TMPDIR:-/tmp}"
SIM="$TMP/dcasim-probesmoke"
SRV="$TMP/dcaserve-probesmoke"
KANATA="$TMP/probesmoke.kanata"
PLAIN="$TMP/probesmoke-plain.txt"
PROBED="$TMP/probesmoke-probed.txt"
OUT="$TMP/probesmoke.json"
PIPE="$TMP/probesmoke-pipetrace.txt"
ASM="$TMP/probesmoke.s"

# One cell: compress/general, 200 warm-up + 1000 measured instructions —
# the same window the other smokes use.
WARMUP=200
MEASURE=1000

go build -o "$SIM" ./cmd/dcasim
go build -o "$SRV" ./cmd/dcaserve

digest_row() {
  sed -n 's/.*result digest[[:space:]]*\([0-9a-f]\{64\}\).*/\1/p'
}

"$SIM" -bench compress -scheme general -warmup "$WARMUP" -measure "$MEASURE" >"$PLAIN"
"$SIM" -bench compress -scheme general -warmup "$WARMUP" -measure "$MEASURE" \
  -attrib -konata "$KANATA" >"$PROBED"

# Passivity: the probed run's result digest is bit-identical to the plain
# run's.
LIVE=$(digest_row <"$PLAIN")
WITHPROBE=$(digest_row <"$PROBED")
if [ -z "$LIVE" ] || [ "$LIVE" != "$WITHPROBE" ]; then
  echo "probe smoke: probed digest differs from plain run (plain=$LIVE probed=$WITHPROBE)" >&2
  exit 1
fi

# Conservation: the attribution header counts exactly the measured cycles,
# and the exclusive column sums back to that total.
CYCLES=$(sed -n 's/^cycles[[:space:]]*\([0-9]\{1,\}\).*/\1/p' "$PROBED" | head -1)
ATTRIB=$(sed -n 's/^cycle attribution (\([0-9]\{1,\}\) measured cycles.*/\1/p' "$PROBED")
if [ -z "$CYCLES" ] || [ "$ATTRIB" != "$CYCLES" ]; then
  echo "probe smoke: attribution covers $ATTRIB cycles, run measured $CYCLES" >&2
  exit 1
fi
SUM=$(awk '/^cycle attribution/ {in_table=1; next}
  in_table && NF == 0 {in_table=0}
  in_table {sum += $NF}
  END {print sum + 0}' "$PROBED")
if [ "$SUM" != "$CYCLES" ]; then
  echo "probe smoke: exclusive stall cycles sum to $SUM, not $CYCLES" >&2
  exit 1
fi
grep -q '^steering decisions' "$PROBED" || {
  echo "probe smoke: -attrib printed no steering forensics" >&2
  exit 1
}

# Konata shape: version header, then fetch (I), stage (S) and retire (R)
# records for a non-degenerate instruction count.
head -1 "$KANATA" | grep -q '^Kanata' || {
  echo "probe smoke: $KANATA has no Kanata header" >&2
  exit 1
}
for kind in I S R; do
  n=$(grep -c "^$kind	" "$KANATA" || true)
  if [ "$n" -lt 100 ]; then
    echo "probe smoke: Konata trace has only $n '$kind' records" >&2
    exit 1
  fi
done

# The text pipetrace is a probe like the others: at a cycle inside the
# run it prints pipeline events, and the digest stays the plain run's.
"$SIM" -bench compress -scheme general -warmup "$WARMUP" -measure "$MEASURE" -pipetrace 300 >"$PIPE"
n=$(grep -Ec '^ *[0-9]+ (dispatch|issue|complete|commit) ' "$PIPE" || true)
if [ "$n" -lt 10 ]; then
  echo "probe smoke: -pipetrace printed only $n event lines" >&2
  exit 1
fi
if [ "$(digest_row <"$PIPE")" != "$LIVE" ]; then
  echo "probe smoke: -pipetrace run's digest differs from the plain run's" >&2
  exit 1
fi

# -machine clustered on two clusters is general's own machine: the same
# job, so the same digest.
OVERRIDE=$("$SIM" -bench compress -scheme general -warmup "$WARMUP" -measure "$MEASURE" -machine clustered | digest_row)
if [ "$OVERRIDE" != "$LIVE" ]; then
  echo "probe smoke: -machine clustered digest differs from the default run (default=$LIVE override=$OVERRIDE)" >&2
  exit 1
fi

# An assembly file runs to HALT through the same path, probed or not.
printf '  addi r1, r0, 1\n  add  r2, r1, r1\n  halt\n' >"$ASM"
FILE=$("$SIM" -program "$ASM" -warmup 0 -measure 0 | digest_row)
FILEPIPE=$("$SIM" -program "$ASM" -warmup 0 -measure 0 -pipetrace 1 | digest_row)
if [ -z "$FILE" ] || [ "$FILE" != "$FILEPIPE" ]; then
  echo "probe smoke: -program digest changes under -pipetrace (plain=$FILE pipetrace=$FILEPIPE)" >&2
  exit 1
fi

# The same cell as a probed dcaserve submission: attribution rides the
# response, the digest is the live one, and the stored result stays free
# of probe output.
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
  -d "{\"scheme\":\"general\",\"benchmark\":\"compress\",\"warmup\":$WARMUP,\"measure\":$MEASURE,\"probe\":true}" >"$OUT"
SERVED=$(sed -n 's/.*"result_digest": "\([0-9a-f]\{64\}\)".*/\1/p' "$OUT" | head -1)
if [ "$SERVED" != "$LIVE" ]; then
  echo "probe smoke: probed dcaserve digest mismatch (live=$LIVE served=$SERVED)" >&2
  exit 1
fi
grep -q '"attribution"' "$OUT" || {
  echo "probe smoke: probed submission returned no attribution" >&2
  exit 1
}
KEY=$(sed -n 's/.*"key": "\([0-9a-f]\{64\}\)".*/\1/p' "$OUT" | head -1)
if [ -z "$KEY" ]; then
  echo "probe smoke: probed response carried no job key" >&2
  exit 1
fi
curl -fsS "http://$ADDR/v1/results/$KEY" >"$OUT.stored"
if grep -q '"attribution"' "$OUT.stored"; then
  echo "probe smoke: stored result carries probe output (attribution must ride the response only)" >&2
  exit 1
fi
curl -fsS "http://$ADDR/metrics" | grep -q '^dcaserve_probe_runs_total 1$' || {
  echo "probe smoke: /metrics does not count the probed run" >&2
  exit 1
}

echo "probe smoke OK (digest $LIVE, $CYCLES cycles attributed)"
