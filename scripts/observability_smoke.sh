#!/usr/bin/env bash
# observability_smoke.sh boots a real aft-server on the durable WAL
# backend with its debug listener, drives traced transactions through
# aft-client over the wire protocol, and then asserts the observability
# surface end to end:
#
#   * /metrics parses as Prometheus text exposition and contains every
#     expected aft_* family (node, latency histograms, storage, WAL,
#     multicast, fault manager, load balancer, tracer);
#   * /traces returns JSON containing the client's own trace ID with a
#     multi-layer span tree, STITCHED across at least two participants
#     (the serving node and the fault manager's recovery identity);
#   * /events serves the flight-recorder journal with the WAL
#     checkpoints the run produced;
#   * /healthz serves per-objective SLO burn-rate verdicts;
#   * aft_build_info and the observability-plane families are exported,
#     and so are the Go runtime's allocation and GC counters (aft_go_*),
#     with a nonzero heap-object count;
#   * /statz returns application/json with the documented schema fields;
#   * a peer that does not open with the AFT preface is refused, and the
#     server logs it.
#
# Run from the repository root: ./scripts/observability_smoke.sh
set -eu

SERVER_ADDR=127.0.0.1:7979
DEBUG_ADDR=127.0.0.1:7981

workdir=$(mktemp -d)
cleanup() {
    [ -n "${server_pid:-}" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/aft-server" ./cmd/aft-server
go build -o "$workdir/aft-client" ./cmd/aft-client

"$workdir/aft-server" -addr "$SERVER_ADDR" -store wal -store-dir "$workdir/wal" \
    -debug-addr "$DEBUG_ADDR" -multicast-period 100ms -gc-period 300ms -trace-sample 1 \
    -checkpoint-interval 300ms -metadata-budget 67108864 \
    >"$workdir/server.log" 2>&1 &
server_pid=$!

up=""
for _ in $(seq 1 50); do
    if curl -fsS "http://$DEBUG_ADDR/statz" >/dev/null 2>&1; then up=1; break; fi
    kill -0 "$server_pid" 2>/dev/null || { echo "FAIL: server exited early"; cat "$workdir/server.log"; exit 1; }
    sleep 0.2
done
[ -n "$up" ] || { echo "FAIL: debug endpoint never came up"; cat "$workdir/server.log"; exit 1; }

# Drive traced transactions: two commits (writes then a read-back).
printf 'begin\nput alpha one\nput beta two\ncommit\nbegin\nget alpha\nput alpha three\ncommit\nquit\n' |
    "$workdir/aft-client" -addr "$SERVER_ADDR" -trace >"$workdir/client.log" 2>&1
grep -q 'committed ' "$workdir/client.log" || { echo "FAIL: no commit confirmed"; cat "$workdir/client.log"; exit 1; }
trace_id=$(grep -o 'trace [^ ]*' "$workdir/client.log" | head -1 | cut -d' ' -f2)
[ -n "$trace_id" ] || { echo "FAIL: client printed no trace ID"; cat "$workdir/client.log"; exit 1; }

# Let a multicast round and a fault-manager sweep land in the counters.
sleep 1

metrics=$(curl -fsS "http://$DEBUG_ADDR/metrics")

# Malformed-exposition check: every non-comment line must be
# `name{labels} value`.
bad=$(printf '%s\n' "$metrics" | grep -v '^#' | grep -v '^$' |
    grep -vE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+]?([0-9.]+([eE][-+]?[0-9]+)?|Inf|NaN)$' || true)
if [ -n "$bad" ]; then
    echo "FAIL: malformed exposition lines:"
    printf '%s\n' "$bad"
    exit 1
fi

# Every layer's families must be present on a live WAL-backed server.
for fam in \
    aft_node_txns_started_total aft_node_txns_committed_total aft_node_reads_total \
    aft_commit_latency_seconds aft_read_latency_seconds \
    aft_storage_puts_total aft_storage_batch_puts_total \
    aft_wal_appends_total aft_wal_fsyncs_total aft_wal_fsync_seconds aft_wal_torn_batches_total \
    aft_wal_checkpoints_total aft_wal_checkpoint_age_seconds \
    aft_node_metadata_bytes aft_node_spilled_records_total \
    aft_multicast_rounds_total aft_multicast_deliveries_total \
    aft_faultmgr_known_commits aft_lb_backends \
    aft_traces_started_total aft_traces_kept_total \
    aft_build_info aft_trace_evicted_total aft_traces_foreign_total \
    aft_trace_segments_forwarded_total aft_stitched_traces \
    aft_events_recorded_total aft_slo_target aft_slo_verdict aft_slo_burn_rate \
    aft_go_heap_alloc_objects_total aft_go_heap_alloc_bytes_total \
    aft_go_gc_cycles_total aft_go_gc_cpu_seconds_total; do
    printf '%s\n' "$metrics" | grep -q "^$fam" ||
        { echo "FAIL: /metrics missing family $fam"; exit 1; }
done

committed=$(printf '%s\n' "$metrics" | grep '^aft_node_txns_committed_total' | awk '{print $2}')
[ "${committed%.*}" -ge 2 ] || { echo "FAIL: expected >=2 committed txns, got $committed"; exit 1; }

# -checkpoint-interval 300ms must have landed at least one checkpoint by now.
ckpts=$(printf '%s\n' "$metrics" | grep '^aft_wal_checkpoints_total' | awk '{print $2}')
[ "${ckpts%.*}" -ge 1 ] || { echo "FAIL: expected >=1 WAL checkpoint, got $ckpts"; exit 1; }

# The runtime counters are read at scrape time; a server that has served
# transactions has allocated.
objects=$(printf '%s\n' "$metrics" | grep '^aft_go_heap_alloc_objects_total' | awk '{print $2}')
awk -v v="$objects" 'BEGIN { exit !(v + 0 > 0) }' ||
    { echo "FAIL: aft_go_heap_alloc_objects_total = $objects, want > 0"; exit 1; }

# aft_build_info must carry the toolchain version label.
printf '%s\n' "$metrics" | grep '^aft_build_info' | grep -q 'goversion="go' ||
    { echo "FAIL: aft_build_info missing goversion label"; exit 1; }

# /traces must contain the client's trace, stitched across at least two
# participants: the serving node plus the fault manager, which observed
# the commit record through the multicast tap and contributed its own
# span segment under its "faultmgr" identity.
curl -fsS "http://$DEBUG_ADDR/traces?trace_id=$trace_id" >"$workdir/traces.json"
python3 - "$workdir/traces.json" "$trace_id" <<'PY'
import json, sys
payload = json.load(open(sys.argv[1]))
want = sys.argv[2]
traces = payload.get("traces") or []
match = [t for t in traces if t.get("trace_id") == want]
if not match:
    sys.exit(f"FAIL: trace {want} not in /traces ({len(traces)} retained)")
st = match[0]
spans = st.get("spans") or []
if len(spans) < 4:
    sys.exit(f"FAIL: trace {want} has {len(spans)} spans, want >= 4: {[s.get('name') for s in spans]}")
nodes = st.get("nodes") or []
if len(nodes) < 2:
    sys.exit(f"FAIL: trace {want} stitched over {nodes}, want >= 2 participants")
if "faultmgr" not in nodes:
    sys.exit(f"FAIL: trace {want} missing the fault manager segment: {nodes}")
unattributed = [s.get("name") for s in spans if not (s.get("attrs") or {}).get("node")]
if unattributed:
    sys.exit(f"FAIL: spans missing node attribution: {unattributed}")
print(f"trace {want}: {len(spans)} spans across {nodes}")
PY

# /events must journal the WAL checkpoints the run produced.
curl -fsS "http://$DEBUG_ADDR/events?type=checkpoint_written" >"$workdir/events.json"
python3 - "$workdir/events.json" <<'PY'
import json, sys
p = json.load(open(sys.argv[1]))
events = p.get("events") or []
if not events:
    sys.exit("FAIL: /events has no checkpoint_written entries")
ev = events[0]
for field in ("seq", "type", "node"):
    if not ev.get(field):
        sys.exit(f"FAIL: /events entry missing {field!r}: {ev}")
print(f"/events: {len(events)} checkpoint_written entries, newest seq {ev['seq']}")
PY

# /healthz must grade both default objectives.
code=$(curl -s -o "$workdir/healthz.json" -w '%{http_code}' "http://$DEBUG_ADDR/healthz")
[ "$code" = 200 ] || { echo "FAIL: /healthz returned $code"; cat "$workdir/healthz.json"; exit 1; }
python3 - "$workdir/healthz.json" <<'PY'
import json, sys
p = json.load(open(sys.argv[1]))
if p.get("status") not in ("ok", "warn", "no_data"):
    sys.exit(f"FAIL: /healthz status {p.get('status')!r}")
names = {o.get("name") for o in p.get("objectives") or []}
for want in ("commit_latency", "shed_ratio"):
    if want not in names:
        sys.exit(f"FAIL: /healthz missing objective {want!r}: {names}")
print(f"/healthz: {p['status']} over {sorted(names)}")
PY

# /statz must be JSON with the documented schema fields.
ctype=$(curl -s -o "$workdir/statz.json" -w '%{content_type}' "http://$DEBUG_ADDR/statz")
case "$ctype" in application/json*) ;; *) echo "FAIL: /statz content-type $ctype"; exit 1 ;; esac
python3 - "$workdir/statz.json" <<'PY'
import json, sys
p = json.load(open(sys.argv[1]))
for field in ("node", "uptime_seconds", "families", "runtime"):
    if field not in p:
        sys.exit(f"FAIL: /statz missing field {field!r}")
names = {f["name"] for f in p["families"]}
if not any(n.startswith("aft_") for n in names):
    sys.exit("FAIL: /statz has no aft_ families")
print(f"/statz: {len(names)} families from node {p['node']}")
PY

# A non-AFT peer (an HTTP request) is closed, and the connection-level
# error reaches the server's log.
curl -s --max-time 2 "http://$SERVER_ADDR/" >/dev/null 2>&1 || true
logged=""
for _ in $(seq 1 20); do
    if grep -q 'is not an AFT client' "$workdir/server.log"; then logged=1; break; fi
    sleep 0.1
done
[ -n "$logged" ] || { echo "FAIL: server.log does not record the non-AFT peer"; cat "$workdir/server.log"; exit 1; }
echo "server log: non-AFT peer refused and logged"

echo "observability smoke: OK (metrics families, build info, stitched trace $trace_id, events, healthz, statz schema, connection log)"
