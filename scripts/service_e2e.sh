#!/usr/bin/env bash
# End-to-end gauntlet for the exploration service: boot a coordinator and
# two real worker processes, submit a job over the HTTP API, SIGKILL one
# worker mid-run, and require the final report digest to be bit-identical
# to an in-process sharded run of the same spec. The kill happens twice:
# once under -checkpoint-every 1 right after a durable checkpoint, and once
# at the default (cost-paced) schedule before the lease's first checkpoint
# (none is cut in a lease's first 16 ms), where recovery has nothing but the
# requeued lease.
#
# Phase 2 exercises the second shard dimension: a deepchain job with zero
# shardable decision sites is spread purely by depth-horizon continuation
# leases; the lone worker is SIGKILLed after taking a continuation lease
# and a fresh worker must finish the job with the in-process oracle's
# digest.
#
# Usage: scripts/service_e2e.sh [logdir]
# Exit 0 on success. Logs land in $logdir (default ./e2e-logs).
set -u -o pipefail

LOGDIR="${1:-e2e-logs}"
mkdir -p "$LOGDIR"
BIN="$LOGDIR/bin"
WORK="$LOGDIR/work"
# Worker checkpoints only compose within one run: a worker restarted
# with a stale workdir would resume leases from another build's
# snapshots. Start every gauntlet from a clean slate.
rm -rf "$WORK"
mkdir -p "$BIN" "$WORK"

SPEC='{"workload":"collect","topology":"grid:3","packets":2,"drops":"route+neighbors"}'
SHARD_BITS=2
TEST_CASES=8
COORD_ADDR=127.0.0.1:7117
HTTP_ADDR=127.0.0.1:8117
API="http://$HTTP_ADDR/api/v1"

say()  { echo "service-e2e: $*"; }
fail() { echo "service-e2e: FAIL: $*" >&2; exit 1; }

PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
}
trap cleanup EXIT

say "building binaries"
go build -o "$BIN/sde-serve" ./cmd/sde-serve || fail "building sde-serve"
go build -o "$BIN/sde-worker" ./cmd/sde-worker || fail "building sde-worker"

say "computing in-process oracle digest"
ORACLE=$("$BIN/sde-serve" -oracle "$SPEC" -oracle-bits $SHARD_BITS -oracle-testcases $TEST_CASES) \
  || fail "oracle run"
say "oracle digest: $ORACLE"

say "booting coordinator"
"$BIN/sde-serve" -listen "$COORD_ADDR" -http "$HTTP_ADDR" -lease-ttl 5s \
  >"$LOGDIR/coordinator.log" 2>&1 &
PIDS+=($!)

# Wait for the job API to come up.
for _ in $(seq 1 50); do
  curl -sf "http://$HTTP_ADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -sf "http://$HTTP_ADDR/healthz" >/dev/null || fail "coordinator did not come up"

say "booting two workers (w0 will be SIGKILLed mid-run)"
# w0 checkpoints every event so killing it mid-lease provably interrupts
# in-progress work; -crash-after-checkpoints makes the timing
# deterministic: the process dies abruptly right after its lease's third
# durable checkpoint, exactly like a SIGKILL at the worst moment.
"$BIN/sde-worker" -connect "$COORD_ADDR" -name w0 -workdir "$WORK/w0" \
  -checkpoint-every 1 -crash-after-checkpoints 3 -heartbeat 50ms \
  >"$LOGDIR/worker-w0.log" 2>&1 &
W0=$!
PIDS+=($W0)
"$BIN/sde-worker" -connect "$COORD_ADDR" -name w1 -workdir "$WORK/w1" \
  -heartbeat 50ms -retry 200ms \
  >"$LOGDIR/worker-w1.log" 2>&1 &
W1=$!
PIDS+=($W1)

say "submitting job"
SUBMIT=$(curl -sf -X POST "$API/jobs" \
  -d "{\"spec\":$SPEC,\"shard_bits\":$SHARD_BITS,\"test_cases\":$TEST_CASES}") \
  || fail "job submission"
JOB=$(echo "$SUBMIT" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$JOB" ] || fail "no job id in response: $SUBMIT"
say "job id: $JOB"

say "waiting for w0 to crash (exit code 3)"
CRASHED=0
for _ in $(seq 1 100); do
  if ! kill -0 "$W0" 2>/dev/null; then CRASHED=1; break; fi
  sleep 0.1
done
if [ "$CRASHED" = 1 ]; then
  wait "$W0"
  RC=$?
  say "w0 exited with code $RC"
  [ "$RC" = 3 ] || fail "w0 exited with $RC, want 3 (injected crash)"
  # Belt and braces: make absolutely sure nothing of w0 lingers.
  kill -9 "$W0" 2>/dev/null || true
else
  fail "w0 never crashed; job too small or crash hook broken"
fi

say "waiting for the job to finish on the surviving worker"
STATE=""
for _ in $(seq 1 300); do
  STATUS=$(curl -sf "$API/jobs/$JOB") || fail "status poll"
  STATE=$(echo "$STATUS" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
  case "$STATE" in
    done|failed|cancelled) break ;;
  esac
  sleep 0.2
done
[ "$STATE" = done ] || fail "job ended in state '$STATE': $STATUS"

DIGEST=$(echo "$STATUS" | sed -n 's/.*"digest": *"\([^"]*\)".*/\1/p')
say "distributed digest: $DIGEST"
[ -n "$DIGEST" ] || fail "no digest in status: $STATUS"
[ "$DIGEST" = "$ORACLE" ] || fail "digest mismatch: distributed $DIGEST != in-process $ORACLE"

say "checking the report endpoint agrees"
REPORT_DIGEST=$(curl -sf "$API/jobs/$JOB/report" | sed -n 's/.*"digest": *"\([^"]*\)".*/\1/p' | head -1)
[ "$REPORT_DIGEST" = "$ORACLE" ] || fail "report digest $REPORT_DIGEST != oracle $ORACLE"

say "checking metrics recorded the crash recovery"
METRICS=$(curl -sf "http://$HTTP_ADDR/metrics") || fail "metrics fetch"
echo "$METRICS" > "$LOGDIR/metrics.txt"
REQUEUES=$(echo "$METRICS" | sed -n 's/^sde_lease_requeues_total{reason="disconnect"} *//p')
[ -n "$REQUEUES" ] && [ "$REQUEUES" -ge 1 ] 2>/dev/null \
  || fail "expected >= 1 disconnect requeue, got '$REQUEUES'"
echo "$METRICS" | grep -q '^sde_results_total' || fail "no results recorded in metrics"

say "PASS phase 1: report survived a worker SIGKILL bit-identical (digest $DIGEST, $REQUEUES requeue(s))"

# Phase 1b: the same job again, on a lone worker at the default checkpoint
# schedule (no -checkpoint-every) that dies five events into its first
# lease — long before the first paced checkpoint, which waits for the first
# 256-event boundary 16 ms into the lease; these leases end sooner and write
# no file at all. The lease must be requeued and a replacement worker finish
# the job from scratch. (w1 goes first: two parked workers would both be
# handed one of the four short leases the moment the job is submitted.)
say "phase 1b: worker w2 dies before its first paced checkpoint"
kill "$W1" 2>/dev/null || true
"$BIN/sde-worker" -connect "$COORD_ADDR" -name w2 -workdir "$WORK/w2" \
  -crash-after-events 5 -heartbeat 50ms \
  >"$LOGDIR/worker-w2.log" 2>&1 &
W2=$!
PIDS+=($W2)

SUBMIT=$(curl -sf -X POST "$API/jobs" \
  -d "{\"spec\":$SPEC,\"shard_bits\":$SHARD_BITS,\"test_cases\":$TEST_CASES}") \
  || fail "job submission (1b)"
JOB=$(echo "$SUBMIT" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$JOB" ] || fail "no job id in response: $SUBMIT"

CRASHED=0
for _ in $(seq 1 100); do
  if ! kill -0 "$W2" 2>/dev/null; then CRASHED=1; break; fi
  sleep 0.1
done
[ "$CRASHED" = 1 ] || fail "w2 never crashed; it got no lease or the crash hook is broken"
wait "$W2"
RC=$?
[ "$RC" = 3 ] || fail "w2 exited with $RC, want 3 (injected crash)"

"$BIN/sde-worker" -connect "$COORD_ADDR" -name w3 -workdir "$WORK/w3" \
  -heartbeat 50ms -retry 200ms \
  >"$LOGDIR/worker-w3.log" 2>&1 &
W3=$!
PIDS+=($W3)

STATE=""
for _ in $(seq 1 300); do
  STATUS=$(curl -sf "$API/jobs/$JOB") || fail "status poll (1b)"
  STATE=$(echo "$STATUS" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
  case "$STATE" in
    done|failed|cancelled) break ;;
  esac
  sleep 0.2
done
[ "$STATE" = done ] || fail "job (1b) ended in state '$STATE': $STATUS"
DIGEST=$(echo "$STATUS" | sed -n 's/.*"digest": *"\([^"]*\)".*/\1/p')
[ "$DIGEST" = "$ORACLE" ] || fail "digest mismatch (1b): distributed $DIGEST != in-process $ORACLE"
REQUEUES_B=$(curl -sf "http://$HTTP_ADDR/metrics" \
  | sed -n 's/^sde_lease_requeues_total{reason="disconnect"} *//p')
[ -n "$REQUEUES_B" ] && [ "$REQUEUES_B" -gt "$REQUEUES" ] 2>/dev/null \
  || fail "expected a disconnect requeue for w2's lease, counter went $REQUEUES -> '$REQUEUES_B'"

say "PASS phase 1b: a worker lost before its first paced checkpoint cost one requeue, digest $DIGEST"

# ---------------------------------------------------------------------------
# Phase 2: depth-horizon partitioning. The deepchain workload has zero
# shardable decision sites (MaxShardBits() == 0), so without a depth
# horizon the whole job would be a single lease no fleet can share.
# ---------------------------------------------------------------------------

say "phase 2: depth-horizon partitioning on a zero-shardable-bits job"

DSPEC='{"workload":"deepchain","topology":"line:6","algorithm":"cob","ticks":48,"iters":512}'
HORIZON=400
FANOUT=4

# The surviving phase-1 worker would otherwise drain the new job; this
# phase wants full control over who holds the continuation leases.
kill "$W3" 2>/dev/null || true
sleep 0.3

DORACLE=$("$BIN/sde-serve" -oracle "$DSPEC" -oracle-bits 0 -oracle-testcases $TEST_CASES \
  -oracle-horizon $HORIZON -oracle-fanout $FANOUT) || fail "depth oracle run"
say "depth oracle digest: $DORACLE"

"$BIN/sde-worker" -connect "$COORD_ADDR" -name d0 -workdir "$WORK/d0" \
  -checkpoint-every 1 -heartbeat 50ms -retry 50ms \
  >"$LOGDIR/worker-d0.log" 2>&1 &
D0=$!
PIDS+=($D0)

say "submitting depth-partitioned job"
DSUBMIT=$(curl -sf -X POST "$API/jobs" \
  -d "{\"spec\":$DSPEC,\"test_cases\":$TEST_CASES,\"depth_horizon\":$HORIZON,\"horizon_fanout\":$FANOUT}") \
  || fail "depth job submission"
DJOB=$(echo "$DSUBMIT" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$DJOB" ] || fail "no job id in response: $DSUBMIT"
say "depth job id: $DJOB"

say "waiting for d0 to take a continuation lease, then SIGKILLing it"
CONTS=""
for _ in $(seq 1 200); do
  CONTS=$(curl -sf "http://$HTTP_ADDR/metrics" \
    | sed -n 's/^sde_continuation_leases_total *//p')
  [ -n "$CONTS" ] && [ "$CONTS" -ge 1 ] 2>/dev/null && break
  sleep 0.05
done
[ -n "$CONTS" ] && [ "$CONTS" -ge 1 ] 2>/dev/null \
  || fail "no continuation lease was ever granted (horizon never fired?)"
kill -9 "$D0" 2>/dev/null || true
say "d0 SIGKILLed after $CONTS continuation lease(s)"

say "booting replacement worker d1"
"$BIN/sde-worker" -connect "$COORD_ADDR" -name d1 -workdir "$WORK/d1" \
  -heartbeat 50ms -retry 50ms \
  >"$LOGDIR/worker-d1.log" 2>&1 &
PIDS+=($!)

say "waiting for the depth job to finish"
DSTATE=""
for _ in $(seq 1 600); do
  DSTATUS=$(curl -sf "$API/jobs/$DJOB") || fail "depth status poll"
  DSTATE=$(echo "$DSTATUS" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
  case "$DSTATE" in
    done|failed|cancelled) break ;;
  esac
  sleep 0.2
done
[ "$DSTATE" = done ] || fail "depth job ended in state '$DSTATE': $DSTATUS"

DDIGEST=$(echo "$DSTATUS" | sed -n 's/.*"digest": *"\([^"]*\)".*/\1/p')
say "depth-partitioned digest: $DDIGEST"
[ -n "$DDIGEST" ] || fail "no digest in depth status: $DSTATUS"
[ "$DDIGEST" = "$DORACLE" ] \
  || fail "depth digest mismatch: distributed $DDIGEST != in-process $DORACLE"

say "checking metrics recorded the depth dimension"
DMETRICS=$(curl -sf "http://$HTTP_ADDR/metrics") || fail "metrics fetch"
echo "$DMETRICS" > "$LOGDIR/metrics-depth.txt"
SUSP=$(echo "$DMETRICS" | sed -n 's/^sde_lease_suspensions_total *//p')
[ -n "$SUSP" ] && [ "$SUSP" -ge 1 ] 2>/dev/null \
  || fail "expected >= 1 lease suspension, got '$SUSP'"
BLOBS=$(echo "$DMETRICS" | sed -n 's/^sde_continuation_blobs *//p')
[ -n "$BLOBS" ] && [ "$BLOBS" -eq 0 ] 2>/dev/null \
  || fail "continuation blobs still held after job done: '$BLOBS'"

say "PASS phase 2: depth-partitioned job survived a SIGKILL mid-continuation bit-identical (digest $DDIGEST, $SUSP suspension(s))"
say "PASS"
