#!/usr/bin/env bash
# End-to-end cluster + durability smoke for cobrad, driven through the
# cobractl client so the typed SDK is exercised against real daemons:
#
#   1. start a two-node cluster — a coordinator hosting the arbiter on
#      its data dir and a -cluster-url runner — check /v1/nodes
#      discovery, and check that a second coordinator on the same data
#      dir refuses to start without deleting the owner's in-flight
#      staging files;
#   2. submit one 12-point sweep to the coordinator and let both nodes
#      drain it through leased claims;
#   3. SIGKILL the runner mid-sweep: the coordinator reclaims its
#      expired leases and the sweep still completes, with the compute
#      journal (cobractl journal) showing every stored point computed
#      exactly once, spread across both nodes, with zero duplicates;
#   4. restart the coordinator on the same data dir and resubmit the
#      sweep: served from the store as a cache hit, byte-identical
#      result, zero trials re-run, journal unchanged;
#   5. network-native cluster with NO shared filesystem: a coordinator
#      and two -cluster-url runners on disjoint temp dirs, joined over
#      loopback HTTP only; one runner is SIGKILLed mid-sweep and the
#      survivors complete all 12 points exactly once (verified through
#      GET /v1/cluster/journal), with the aggregate byte-identical to a
#      clusterless single-node run of the same sweep.
#
# Requires: go, curl, jq, timeout. Run from the repository root:
#
#   ./scripts/e2e_smoke.sh
set -euo pipefail

PORT_A="${COBRAD_PORT:-18080}"
PORT_B=$((PORT_A + 1))
PORT_C=$((PORT_A + 2))
PORT_D=$((PORT_A + 3))
PORT_E=$((PORT_A + 4))
PORT_F=$((PORT_A + 5))
PORT_G=$((PORT_A + 6))
BASE_A="http://127.0.0.1:${PORT_A}"
BASE_B="http://127.0.0.1:${PORT_B}"
BASE_C="http://127.0.0.1:${PORT_C}"
BASE_D="http://127.0.0.1:${PORT_D}"
BASE_G="http://127.0.0.1:${PORT_G}"
WORK="$(mktemp -d)"
DATA="${WORK}/data"
COBRAD="${WORK}/cobrad"
COBRACTL="${WORK}/cobractl"
LEASE_TTL=3s

# 12 points: one process x 12 sizes, each point heavy enough (~0.2-1s)
# that killing the runner lands mid-sweep.
SWEEP_ARGS=(sweep -child process -processes cobra -family cycle
            -sizes 2048,2304,2560,2816,3072,3328,3584,3840,4096,4352,4608,4864
            -trials 20 -seed 99 -param k=2 -json)

PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "${WORK}"
}
trap cleanup EXIT

fail() { echo "e2e: FAIL: $*" >&2; exit 1; }

# wait_healthy <name> <port> <pid> — poll /healthz until the daemon
# answers, failing fast if its process dies on startup.
wait_healthy() {
  local name=$1 port=$2 pid=$3
  for _ in $(seq 1 100); do
    if curl -sf "http://127.0.0.1:${port}/healthz" >/dev/null 2>&1; then
      return 0
    fi
    kill -0 "${pid}" 2>/dev/null || { cat "${WORK}/cobrad.${name}.log" >&2; fail "daemon ${name} died on startup"; }
    sleep 0.1
  done
  fail "daemon ${name} did not become healthy"
}

# start_daemon <name> <port> <role> [data-dir] -> sets DAEMON_PID (no
# command substitution: the background pid must land in this shell's
# PIDS so the exit trap can reap it).
start_daemon() {
  local name=$1 port=$2 role=$3 data=${4:-${DATA}}
  "${COBRAD}" -addr "127.0.0.1:${port}" -data-dir "${data}" -workers 2 \
    -cluster "${role}" -node-id "${name}" -lease-ttl "${LEASE_TTL}" \
    -job-ttl 10m >"${WORK}/cobrad.${name}.log" 2>&1 &
  DAEMON_PID=$!
  PIDS+=("${DAEMON_PID}")
  wait_healthy "${name}" "${port}" "${DAEMON_PID}"
}

# start_http_runner <name> <port> <coordinator-url> [data-dir] — a
# runner that joins over the network with -cluster-url: no shared
# filesystem; an optional private data dir holds only its graph cache.
start_http_runner() {
  local name=$1 port=$2 url=$3 data=${4:-}
  local args=(-addr "127.0.0.1:${port}" -workers 2
              -cluster runner -cluster-url "${url}"
              -node-id "${name}" -lease-ttl "${LEASE_TTL}" -job-ttl 10m)
  if [ -n "${data}" ]; then args+=(-data-dir "${data}"); fi
  "${COBRAD}" "${args[@]}" >"${WORK}/cobrad.${name}.log" 2>&1 &
  DAEMON_PID=$!
  PIDS+=("${DAEMON_PID}")
  wait_healthy "${name}" "${port}" "${DAEMON_PID}"
}

stop_daemon() { # graceful
  local pid=$1
  kill -TERM "$pid" 2>/dev/null || true
  for _ in $(seq 1 100); do
    kill -0 "$pid" 2>/dev/null || return 0
    sleep 0.1
  done
  fail "daemon $pid did not shut down"
}

ctl_a() { "${COBRACTL}" -server "${BASE_A}" "$@"; }
ctl_c() { "${COBRACTL}" -server "${BASE_C}" "$@"; }

# The compute journal, read through the coordinator named by $1.
journal_total() { "${COBRACTL}" -server "$1" journal -json | jq '.entries | length'; }
journal_nodes() { # distinct computing nodes so far
  "${COBRACTL}" -server "$1" journal -json | jq '[.entries[].node] | unique | length'
}

echo "e2e: building cobrad and cobractl"
go build -o "${COBRAD}" ./cmd/cobrad
go build -o "${COBRACTL}" ./cmd/cobractl

echo "e2e: starting two-node cluster (coordinator a on ${DATA}, -cluster-url runner b)"
start_daemon a "${PORT_A}" coordinator; PID_A="${DAEMON_PID}"
start_http_runner b "${PORT_B}" "${BASE_A}"; PID_B="${DAEMON_PID}"

echo "e2e: a second coordinator on the same data dir must refuse to start"
# A fresh staging file stands in for the live coordinator's write in
# flight: the refused process opens the store before the arbiter's
# owner lock turns it away, and must not delete it.
IN_FLIGHT="${DATA}/tmp/e2e-in-flight.tmp"
echo partial >"${IN_FLIGHT}"
if timeout 20 "${COBRAD}" -addr "127.0.0.1:${PORT_G}" -data-dir "${DATA}" -cluster coordinator \
     -node-id intruder >"${WORK}/cobrad.intruder.log" 2>&1; then
  fail "second coordinator on ${DATA} started; one data dir must have one arbiter"
fi
grep -q "already has an arbiter" "${WORK}/cobrad.intruder.log" \
  || fail "second coordinator failed for the wrong reason: $(cat "${WORK}/cobrad.intruder.log")"
[ -f "${IN_FLIGHT}" ] || fail "the refused coordinator deleted the live owner's in-flight staging file"
rm -f "${IN_FLIGHT}"

echo "e2e: discovery — processes and nodes"
PROCS="$(ctl_a processes -json | jq '.processes | length')"
[ "${PROCS}" -ge 8 ] || fail "GET /v1/processes lists ${PROCS} processes, want >= 8"
NODES="$(ctl_a nodes -json | jq '[.nodes[] | select(.alive)] | length')"
[ "${NODES}" -eq 2 ] || fail "/v1/nodes sees ${NODES} alive members, want 2 (a + b)"
ctl_a nodes -json | jq -e '.cluster and .node == "a" and .role == "coordinator"' >/dev/null \
  || fail "coordinator self-view wrong: $(ctl_a nodes -json)"

echo "e2e: submitting a 12-point sweep to the coordinator"
SUBMIT="$(ctl_a "${SWEEP_ARGS[@]}")"
JOB_ID="$(jq -r '.sweep.id' <<<"${SUBMIT}")"
[ "${JOB_ID}" != "null" ] && [ -n "${JOB_ID}" ] || fail "sweep submission rejected: ${SUBMIT}"
echo "e2e: sweep ${JOB_ID} submitted"

echo "e2e: waiting until both nodes have computed points, then killing the runner"
for i in $(seq 1 300); do
  TOTAL="$(journal_total "${BASE_A}")"
  DISTINCT="$(journal_nodes "${BASE_A}")"
  if [ "${TOTAL}" -ge 2 ] && [ "${DISTINCT:-0}" -ge 2 ] && [ "${TOTAL}" -lt 12 ]; then
    break
  fi
  if [ "${TOTAL}" -ge 12 ]; then
    fail "sweep drained before the runner could be killed mid-flight (journal=${TOTAL}, nodes=${DISTINCT:-0}) — slow the points down"
  fi
  if [ "$i" -eq 300 ]; then
    fail "cluster never spread work across both nodes (journal=${TOTAL}, nodes=${DISTINCT:-0}); see ${WORK}/cobrad.b.log"
  fi
  sleep 0.1
done
kill -9 "${PID_B}"
echo "e2e: runner b SIGKILLed with the sweep $(journal_total "${BASE_A}")/12 computed"

echo "e2e: watching the sweep to completion on the survivor (SSE)"
timeout 180 "${COBRACTL}" -server "${BASE_A}" watch "${JOB_ID}" 2>"${WORK}/watch.log" \
  || { cat "${WORK}/watch.log" >&2; fail "watch did not end in done after the kill"; }
grep -q "state=done" "${WORK}/watch.log" || fail "watch log missing terminal state"

echo "e2e: exactly-once accounting across the kill"
J="$(ctl_a journal -json)"
TOTAL="$(jq '.entries | length' <<<"${J}")"
UNIQUE="$(jq '[.entries[].key] | unique | length' <<<"${J}")"
DISTINCT="$(jq '[.entries[].node] | unique | length' <<<"${J}")"
[ "${TOTAL}" -eq 12 ] || fail "journal has ${TOTAL} compute records, want exactly 12 (duplicate or lost work)"
[ "${UNIQUE}" -eq 12 ] || fail "journal spans ${UNIQUE} distinct points, want 12 — some point was computed twice"
[ "${DISTINCT}" -eq 2 ] || fail "journal credits ${DISTINCT} nodes, want both a and b"
B_POINTS="$(jq '[.entries[] | select(.node=="b")] | length' <<<"${J}")"
echo "e2e: 12 points computed exactly once (runner b contributed ${B_POINTS} before dying)"

ctl_a result "${JOB_ID}" -json | jq -S '.result' >"${WORK}/result.first.json"
POINTS="$(jq '.points | length' "${WORK}/result.first.json")"
[ "${POINTS}" -eq 12 ] || fail "result has ${POINTS} points, want 12"

echo "e2e: dead runner visible in discovery"
sleep 3  # past the 3x-heartbeat liveness window
ctl_a nodes -json | jq -e '.nodes[] | select(.id=="b") | .alive == false' >/dev/null \
  || fail "killed runner still reported alive: $(ctl_a nodes -json)"

echo "e2e: seeding a graph artifact on the coordinator"
ctl_a submit -process cobra -graph regular:1024,5 -graph-seed 42 -trials 2 -seed 5 -param k=2 -watch -json >/dev/null \
  || fail "artifact-seeding job failed"
[ -n "$(find "${DATA}/graphs" -name '*.g' 2>/dev/null)" ] \
  || fail "no graph artifacts persisted under ${DATA}/graphs"
ctl_a journal -json >"${WORK}/journal.before.json"  # 12 sweep points + the seeding job
JOURNAL_BASE="$(jq '.entries | length' "${WORK}/journal.before.json")"

echo "e2e: full restart — a fresh coordinator on the same data dir"
stop_daemon "${PID_A}"
start_daemon c "${PORT_C}" coordinator; PID_C="${DAEMON_PID}"

RESUBMIT="$(ctl_c "${SWEEP_ARGS[@]}")"
CACHE_HIT="$(jq -r '.sweep.cache_hit' <<<"${RESUBMIT}")"
STATE2="$(jq -r '.sweep.state' <<<"${RESUBMIT}")"
JOB2_ID="$(jq -r '.sweep.id' <<<"${RESUBMIT}")"
[ "${CACHE_HIT}" = "true" ] || fail "restarted cluster did not serve the sweep from the store: ${RESUBMIT}"
[ "${STATE2}" = "done" ] || fail "resubmitted sweep state = ${STATE2}, want immediate done"

ctl_c result "${JOB2_ID}" -json | jq -S '.result' >"${WORK}/result.second.json"
cmp -s "${WORK}/result.first.json" "${WORK}/result.second.json" \
  || fail "result changed across restart: $(diff "${WORK}/result.first.json" "${WORK}/result.second.json" | head)"

# Zero trials re-run: nothing was computed after the restart and the
# journal did not grow.
METRICS="$(curl -sf "${BASE_C}/metrics")"
COMPUTED_AFTER="$(awk '/^cobrad_points_computed_total/ {print $2}' <<<"${METRICS}")"
COMPLETED_AFTER="$(awk '/^cobrad_jobs_completed_total/ {print $2}' <<<"${METRICS}")"
[ "${COMPUTED_AFTER}" -eq 0 ] || fail "restarted node computed ${COMPUTED_AFTER} points, want 0"
[ "${COMPLETED_AFTER}" -eq 1 ] || fail "restarted node completed ${COMPLETED_AFTER} jobs, want 1 (the cache-served parent)"
ctl_c journal -json >"${WORK}/journal.after.json"
cmp -s "${WORK}/journal.before.json" "${WORK}/journal.after.json" \
  || fail "journal changed across the restart and resubmit: $(jq '.entries | length' "${WORK}/journal.after.json") records, want the same ${JOURNAL_BASE}"

echo "e2e: service regressions — schema discovery, two-process sweep, listing determinism"
ctl_c processes -json | jq -e '.processes[] | select(.name=="cobra") | .params | length > 0' >/dev/null \
  || fail "cobra process missing a parameter schema"
SMALL_ARGS=(sweep -child process -processes cobra,push -family cycle
            -sizes 8,10,12 -trials 3 -seed 7 -param k=2 -json)
SUB3="$(ctl_c "${SMALL_ARGS[@]}")"
JOB3="$(jq -r '.sweep.id' <<<"${SUB3}")"
[ "${JOB3}" != "null" ] && [ -n "${JOB3}" ] || fail "two-process sweep rejected: ${SUB3}"
timeout 120 "${COBRACTL}" -server "${BASE_C}" watch "${JOB3}" 2>/dev/null \
  || fail "two-process sweep did not complete"
DISTINCT_PROCS="$(ctl_c result "${JOB3}" -json | jq '[.result.points[].process] | unique | length')"
[ "${DISTINCT_PROCS}" -eq 2 ] || fail "two-process sweep spans ${DISTINCT_PROCS} processes, want 2 (cobra + push)"
DONE_JOBS="$(ctl_c ps -status done -json | jq '.jobs | length')"
[ "${DONE_JOBS}" -ge 8 ] || fail "ps -status done lists ${DONE_JOBS} jobs, want >= 8 (both sweeps + children)"
ctl_c ps -status done -json | jq -e '[.jobs[].id] as $a | ($a | sort | reverse) == $a' >/dev/null \
  || fail "ps listing is not sorted most-recent-first"
ctl_c ps -json | jq -e '[.jobs[].node] | unique == ["c"]' >/dev/null \
  || fail "job listing missing node identity"

echo "e2e: graph artifact reuse — second node serves the graph from disk"
GS_BUILDS_BEFORE="$(curl -sf "${BASE_C}/metrics" | awk '/^graphstore_builds_total/ {print $2}')"
ART="$(ctl_c submit -process cobra -graph regular:1024,5 -graph-seed 42 -trials 2 -seed 6 -param k=2 -watch -json)" \
  || fail "disk-served job failed"
METRICS_C="$(curl -sf "${BASE_C}/metrics")"
GS_BUILDS_AFTER="$(awk '/^graphstore_builds_total/ {print $2}' <<<"${METRICS_C}")"
GS_DISK_HITS="$(grep '^graphstore_hits_total{tier="disk"}' <<<"${METRICS_C}" | awk '{print $2}')"
[ "${GS_BUILDS_AFTER}" -eq "${GS_BUILDS_BEFORE}" ] \
  || fail "node c rebuilt an already-stored graph (builds ${GS_BUILDS_BEFORE} -> ${GS_BUILDS_AFTER})"
[ "${GS_DISK_HITS:-0}" -ge 1 ] \
  || fail "node c never served a graph from disk: $(grep '^graphstore' <<<"${METRICS_C}")"
jq -e '.job.graph_builds_avoided >= 1' <<<"${ART}" >/dev/null \
  || fail "disk-served job did not report graph_builds_avoided: ${ART}"

stop_daemon "${PID_C}"

echo "e2e: network-native cluster — coordinator + two -cluster-url runners, no shared filesystem"
DATA_D="${WORK}/net-coord"    # the coordinator's private store
DATA_E="${WORK}/net-runner"   # disjoint: holds runner e's graph cache only
start_daemon d "${PORT_D}" coordinator "${DATA_D}"; PID_D="${DAEMON_PID}"
start_http_runner e "${PORT_E}" "${BASE_D}" "${DATA_E}"; PID_E="${DAEMON_PID}"
start_http_runner f "${PORT_F}" "${BASE_D}"; PID_F="${DAEMON_PID}"

ctl_d() { "${COBRACTL}" -server "${BASE_D}" "$@"; }
net_journal() { ctl_d journal -json; }

NODES_NET="$(ctl_d nodes -json | jq '[.nodes[] | select(.alive)] | length')"
[ "${NODES_NET}" -eq 3 ] || fail "network cluster sees ${NODES_NET} alive members, want 3 (d + e + f)"

echo "e2e: submitting the 12-point sweep to the network coordinator"
NET_SUBMIT="$(ctl_d "${SWEEP_ARGS[@]}")"
NET_JOB="$(jq -r '.sweep.id' <<<"${NET_SUBMIT}")"
[ "${NET_JOB}" != "null" ] && [ -n "${NET_JOB}" ] || fail "network sweep rejected: ${NET_SUBMIT}"

echo "e2e: waiting until the coordinator and an HTTP runner have both computed, then killing runner f"
for i in $(seq 1 300); do
  NET_J="$(net_journal)"
  NET_TOTAL="$(jq '.entries | length' <<<"${NET_J}")"
  SPREAD="$(jq '([.entries[].node] | unique) as $n | ($n | index("d") != null) and ($n | index("e") != null)' <<<"${NET_J}")"
  if [ "${SPREAD}" = "true" ] && [ "${NET_TOTAL}" -lt 12 ]; then
    break
  fi
  if [ "${NET_TOTAL}" -ge 12 ]; then
    fail "network sweep drained before runner f could be killed mid-flight (journal=${NET_TOTAL}) — slow the points down"
  fi
  if [ "$i" -eq 300 ]; then
    fail "network cluster never spread work across d and e (journal=${NET_TOTAL}); see ${WORK}/cobrad.e.log"
  fi
  sleep 0.1
done
kill -9 "${PID_F}"
echo "e2e: runner f SIGKILLed with the sweep $(net_journal | jq '.entries | length')/12 computed"

echo "e2e: watching the network sweep to completion on the coordinator"
timeout 180 "${COBRACTL}" -server "${BASE_D}" watch "${NET_JOB}" 2>"${WORK}/watch.net.log" \
  || { cat "${WORK}/watch.net.log" >&2; fail "network sweep did not end in done after the kill"; }

echo "e2e: exactly-once accounting over /v1/cluster/journal"
NET_J="$(net_journal)"
NET_TOTAL="$(jq '.entries | length' <<<"${NET_J}")"
NET_UNIQUE="$(jq '[.entries[].key] | unique | length' <<<"${NET_J}")"
NET_NODES="$(jq '[.entries[].node] | unique | length' <<<"${NET_J}")"
E_POINTS="$(jq '[.entries[] | select(.node=="e")] | length' <<<"${NET_J}")"
D_POINTS="$(jq '[.entries[] | select(.node=="d")] | length' <<<"${NET_J}")"
[ "${NET_TOTAL}" -eq 12 ] || fail "network journal has ${NET_TOTAL} records, want exactly 12 (duplicate or lost work)"
[ "${NET_UNIQUE}" -eq 12 ] || fail "network journal spans ${NET_UNIQUE} distinct points, want 12 — some point was computed twice"
[ "${NET_NODES}" -ge 2 ] || fail "network journal credits ${NET_NODES} node(s), want work spread over HTTP"
[ "${E_POINTS}" -ge 1 ] && [ "${D_POINTS}" -ge 1 ] || fail "survivors d (${D_POINTS}) and e (${E_POINTS}) must both appear in the journal"

echo "e2e: HTTP runner e kept nothing clustered on its disjoint dir"
[ ! -e "${DATA_E}/cluster" ] \
  || fail "runner e wrote cluster state under its private dir: $(ls "${DATA_E}")"

echo "e2e: killed HTTP runner drops out of coordinator-registered discovery"
sleep 3  # past the 3-missed-heartbeats liveness window
ctl_d nodes -json | jq -e '.nodes[] | select(.id=="f") | .alive == false' >/dev/null \
  || fail "killed runner f still reported alive: $(ctl_d nodes -json)"

echo "e2e: network aggregate vs a clusterless single-node run"
ctl_d result "${NET_JOB}" -json | jq -S '.result' >"${WORK}/result.net.json"
"${COBRAD}" -addr "127.0.0.1:${PORT_G}" -workers 4 -job-ttl 10m >"${WORK}/cobrad.g.log" 2>&1 &
PID_G=$!; PIDS+=("${PID_G}")
wait_healthy g "${PORT_G}" "${PID_G}"
GOLD="$("${COBRACTL}" -server "${BASE_G}" "${SWEEP_ARGS[@]}")"
GOLD_ID="$(jq -r '.sweep.id' <<<"${GOLD}")"
timeout 180 "${COBRACTL}" -server "${BASE_G}" watch "${GOLD_ID}" 2>/dev/null \
  || fail "single-node golden sweep did not complete"
"${COBRACTL}" -server "${BASE_G}" result "${GOLD_ID}" -json | jq -S '.result' >"${WORK}/result.single.json"
cmp -s "${WORK}/result.net.json" "${WORK}/result.single.json" \
  || fail "network-cluster aggregate differs from the single-node run: $(diff "${WORK}/result.net.json" "${WORK}/result.single.json" | head)"

stop_daemon "${PID_E}"
stop_daemon "${PID_D}"
stop_daemon "${PID_G}"
echo "e2e: PASS — coordinator + -cluster-url runner drained a 12-point sweep through leased claims, survived a SIGKILL mid-sweep with every point computed exactly once (b contributed ${B_POINTS}), a full restart served the identical sweep with zero trials re-run, and a no-shared-filesystem HTTP cluster completed the same sweep exactly once (d=${D_POINTS} e=${E_POINTS}) byte-identical to a single node"
