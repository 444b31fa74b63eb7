#!/usr/bin/env bash
# Fleet smoke gate, cross-process over sockets: two persistent
# `ptest_cli --listen 0` worker daemons start ONCE and serve the whole
# catalog.  For every scenario, a plain single-process run at a small
# budget exports the reference corpus, then two fleet legs run the same
# campaign through the daemons (`--connect host:port,host:port`):
#
#   Leg 1: `--fleet 2`, one shard per daemon.
#   Leg 2: `--fleet 3`, so one daemon serves two shards of one campaign
#   and an uneven shard layout is gated across processes.  Leg 2 runs on
#   warm daemons: each still holds the plan leg 1 compiled, so its
#   plan_compiles line (diffed below) pins the cached path to serial.
#
# Each leg's merged corpus export is diffed against the serial export.
# The same two daemon processes serving every campaign is the
# persistence claim; the final `--halt-fleet` shuts them down and they
# must exit 0.
#
# The fleet invariant says all exports must be byte-identical; any
# difference fails the script.  All three runs also print --metrics,
# and their work-class lines (sessions, plan cache, dedup, ticks and the
# ticks histogram: a pure function of seed and budget) must match too,
# which gates the metrics block of the wire frames across processes.
#
#   Leg 3 (trace): one scenario re-runs through the same persistent
#   socket daemons with `--trace`, and scripts/check_trace.py validates
#   the stitched Chrome trace — both worker lanes present with their
#   compile/session spans, the coordinator lane carrying issue/ack/
#   merge, monotonic timestamps, and zero dropped events (the rings
#   must not wrap at smoke scale).
#
#   scripts/fleet_smoke.sh BUILD_DIR [BUDGET] [TRACE_OUT]
#
# BUDGET defaults to 8 sessions per scenario — enough for every oracle
# check ptest_cli performs to be exercised while keeping the whole
# catalog sweep CI-fast.  Exit codes from the fleet runs themselves are
# respected per scenario: buggy scenarios must satisfy their oracle
# (exit 0), and a 64 from either side is a wiring bug.  TRACE_OUT names
# where the leg-3 trace lands (CI uploads it as an artifact); default
# is inside the throwaway workdir.
set -euo pipefail

build_dir="${1:?usage: fleet_smoke.sh BUILD_DIR [BUDGET] [TRACE_OUT]}"
budget="${2:-8}"
trace_out="${3:-}"
cli="${build_dir}/examples/ptest_cli"
script_dir="$(cd "$(dirname "$0")" && pwd)"
[ -x "$cli" ] || { echo "error: $cli not built" >&2; exit 2; }

workdir="$(mktemp -d)"
daemon0_pid=""
daemon1_pid=""
cleanup() {
  # Belt and braces: the daemons normally exit via --halt-fleet below.
  [ -n "$daemon0_pid" ] && kill "$daemon0_pid" 2>/dev/null || true
  [ -n "$daemon1_pid" ] && kill "$daemon1_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

# The plain-text catalog listing: first column of every row after the
# header line.
scenarios="$("$cli" --list-scenarios | awk 'NR > 1 { print $1 }')"
[ -n "$scenarios" ] || { echo "error: empty scenario catalog" >&2; exit 2; }

# The work-class lines of a --metrics block, in print order.
work_metrics() {
  awk '$1 ~ /^(sessions|plan_cache_hits|plan_compiles|patterns_generated)$/ ||
       $1 ~ /^(dedup_accepted|dedup_rejected|ticks|ticks_hist)$/' "$1"
}

# --- socket daemons: started once, serving the entire sweep ----------------
"$cli" --listen 0 > "$workdir/daemon0.out" 2>&1 &
daemon0_pid=$!
"$cli" --listen 0 > "$workdir/daemon1.out" 2>&1 &
daemon1_pid=$!
# Each daemon prints "listening on port N" before serving.
port_of() {
  local out="$1" port="" i
  for i in $(seq 1 100); do
    port="$(awk '/^listening on port / { print $4; exit }' "$out" 2>/dev/null)"
    [ -n "$port" ] && break
    sleep 0.1
  done
  [ -n "$port" ] || { echo "error: no port in $out" >&2; exit 2; }
  echo "$port"
}
port0="$(port_of "$workdir/daemon0.out")"
port1="$(port_of "$workdir/daemon1.out")"
endpoints="localhost:$port0,localhost:$port1"
echo "socket daemons up on ports $port0, $port1"

failed=0
for scenario in $scenarios; do
  serial_corpus="$workdir/$scenario-serial.json"

  # Single-process reference (its corpus is the whole budget as one
  # span — exactly what the fleet must merge back to).  2 = oracle not
  # satisfied at this tiny budget, which is legitimate; anything else
  # nonzero is a wiring failure.  The fleet runs must agree either way.
  serial_code=0
  "$cli" --scenario "$scenario" --runs "$budget" --metrics \
         --export-corpus "$serial_corpus" \
         > "$workdir/$scenario-serial.out" 2>&1 || serial_code=$?
  if [ "$serial_code" -ne 0 ] && [ "$serial_code" -ne 2 ]; then
    echo "FAIL $scenario: serial run exited $serial_code" >&2
    cat "$workdir/$scenario-serial.out" >&2
    failed=1
    continue
  fi

  # Legs 1 and 2: the same campaign through the two persistent
  # daemons at 2 and 3 shards, each export diffed against serial.
  legs_ok=1
  for shards in 2 3; do
    leg="fleet$shards"
    leg_code=0
    "$cli" --scenario "$scenario" --runs "$budget" --connect "$endpoints" \
           --fleet "$shards" --metrics \
           --export-corpus "$workdir/$scenario-$leg.json" \
           > "$workdir/$scenario-$leg.out" 2>&1 || leg_code=$?
    if [ "$leg_code" -ne "$serial_code" ]; then
      echo "FAIL $scenario: serial exit $serial_code vs --fleet $shards exit $leg_code" >&2
      cat "$workdir/$scenario-$leg.out" >&2
      legs_ok=0
      break
    fi
    if ! cmp -s "$serial_corpus" "$workdir/$scenario-$leg.json"; then
      echo "FAIL $scenario: --fleet $shards corpus differs from single-process" >&2
      diff "$serial_corpus" "$workdir/$scenario-$leg.json" >&2 || true
      legs_ok=0
      break
    fi
  done
  [ "$legs_ok" -eq 1 ] || { failed=1; continue; }

  # Work-class metrics: serial vs each fleet leg.
  work_metrics "$workdir/$scenario-serial.out" > "$workdir/$scenario-serial.work"
  if ! grep -q '^  sessions ' "$workdir/$scenario-serial.work"; then
    echo "FAIL $scenario: serial run printed no metrics block" >&2
    failed=1
    continue
  fi
  metrics_ok=1
  for leg in fleet2 fleet3; do
    work_metrics "$workdir/$scenario-$leg.out" > "$workdir/$scenario-$leg.work"
    if ! diff "$workdir/$scenario-serial.work" "$workdir/$scenario-$leg.work" >&2
    then
      echo "FAIL $scenario: $leg work-class metrics differ from serial" >&2
      metrics_ok=0
    fi
  done
  [ "$metrics_ok" -eq 1 ] || { failed=1; continue; }
  echo "ok $scenario (exit $serial_code, --fleet 2 and 3 corpora and work metrics identical)"
done

# --- leg 3: trace one campaign through the same daemons --------------------
# The daemons have already served the whole catalog; the traced run
# proves the observability path works on a long-lived fleet, not just a
# fresh one.  It traces the catalog's first scenario, which the daemons'
# one-entry plan caches dropped long ago, so each lane shows a compile.  check_trace.py gates the stitched document: both worker
# lanes with compile/session spans, coordinator issue/ack/merge,
# monotonic timestamps, zero drops.
[ -n "$trace_out" ] || trace_out="$workdir/fleet_trace.json"
trace_scenario="$(echo "$scenarios" | head -n 1)"
trace_code=0
"$cli" --scenario "$trace_scenario" --runs "$budget" --connect "$endpoints" \
       --fleet 2 --trace "$trace_out" \
       > "$workdir/trace-run.out" 2>&1 || trace_code=$?
if [ "$trace_code" -ne 0 ] && [ "$trace_code" -ne 2 ]; then
  echo "FAIL: traced run of $trace_scenario exited $trace_code" >&2
  cat "$workdir/trace-run.out" >&2
  failed=1
elif ! python3 "$script_dir/check_trace.py" "$trace_out" --expect-workers 2
then
  echo "FAIL: check_trace.py rejected $trace_out" >&2
  failed=1
else
  echo "ok trace ($trace_scenario through both daemons -> $trace_out)"
fi

# A clean explicit shutdown: the daemons that served the whole catalog
# must exit 0 on the halt broadcast, not be killed.
"$cli" --halt-fleet --connect "$endpoints" || {
  echo "FAIL: --halt-fleet errored" >&2
  failed=1
}
halt_ok=1
wait "$daemon0_pid" || { echo "FAIL: daemon 0 exited nonzero" >&2; halt_ok=0; }
wait "$daemon1_pid" || { echo "FAIL: daemon 1 exited nonzero" >&2; halt_ok=0; }
daemon0_pid=""
daemon1_pid=""
[ "$halt_ok" -eq 1 ] || failed=1

if [ "$failed" -ne 0 ]; then
  echo "fleet smoke: FAILED" >&2
  exit 1
fi
echo "fleet smoke: all scenarios bit-identical over both socket legs"
