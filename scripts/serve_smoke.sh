#!/usr/bin/env bash
# Serving-stack smoke gate (CI): boot sjs_serve on an ephemeral loopback
# port, drive it with sjs_load for ~2 wall seconds, SIGTERM the daemon, and
# assert the full contract:
#
#   1. the server drains cleanly on SIGTERM (exit 0),
#   2. jobs actually completed (nonzero server completed counter AND a
#      nonzero server.jobs_completed metric), and the rollup
#      server.jobs_accepted metric equals the summary's accepted count,
#   3. the journal directory is a parseable instance bundle, and
#   4. replaying it through sjs_sim reproduces the live outcomes
#      byte-identically (diff of outcomes.csv), and a copy with one
#      corrupted field is refused with the field named (single plane: a
#      jobs.csv field; fleet plane: the meta.csv budget).
#
# The gate runs three times: against the single-threaded server, against the
# sharded plane (--shards=4, sjs_load --connections=4, where step 3/4 apply
# to EVERY per-shard bundle <journal>/shard<k> independently), and against
# the fleet plane (--cluster=4, replayed via sjs_sim --cluster-bundle).
#
# Usage: scripts/serve_smoke.sh   (BUILD_DIR overrides ./build)
set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
SERVE="$BUILD_DIR/tools/sjs_serve"
LOAD="$BUILD_DIR/tools/sjs_load"
SIM="$BUILD_DIR/tools/sjs_sim"
for bin in "$SERVE" "$LOAD" "$SIM"; do
  [ -x "$bin" ] || { echo "missing binary: $bin (build first)" >&2; exit 1; }
done

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# replay_bundle <bundle_dir> <tag>: bundle is complete, parseable, and
# replays through sjs_sim to a byte-identical outcomes.csv.
replay_bundle() {
  local bundle="$1" tag="$2"
  for f in jobs.csv capacity.csv band.csv meta.csv outcomes.csv; do
    [ -s "$bundle/$f" ] || { echo "FAIL($tag): bundle missing $f" >&2; exit 1; }
  done
  local scheduler
  scheduler="$(awk -F, '$1 == "scheduler" { print $2 }' "$bundle/meta.csv")"
  "$SIM" --bundle="$bundle" --scheduler="$scheduler" \
    --outcomes-csv="$WORK/replay_$tag.csv" > "$WORK/replay_$tag.log"
  diff "$bundle/outcomes.csv" "$WORK/replay_$tag.csv" || {
    echo "FAIL($tag): replay outcomes differ from the live session" >&2
    exit 1
  }
  echo "replay bit-exact: $tag"
}

# replay_cluster_bundle <bundle_dir> <tag>: same contract for a cluster
# journal — complete, parseable, byte-exact through sjs_sim --cluster-bundle.
replay_cluster_bundle() {
  local bundle="$1" tag="$2"
  for f in fleet.csv server0.csv server3.csv band.csv meta.csv jobs.csv \
           outcomes.csv; do
    [ -s "$bundle/$f" ] || { echo "FAIL($tag): bundle missing $f" >&2; exit 1; }
  done
  "$SIM" --cluster-bundle="$bundle" \
    --outcomes-csv="$WORK/replay_$tag.csv" > "$WORK/replay_$tag.log"
  diff "$bundle/outcomes.csv" "$WORK/replay_$tag.csv" || {
    echo "FAIL($tag): cluster replay outcomes differ from the live session" >&2
    exit 1
  }
  echo "replay bit-exact: $tag"
}

# smoke_phase <tag> <journal_dir> <extra serve flags...> -- <extra load flags...>
smoke_phase() {
  local tag="$1" journal="$2"
  shift 2
  local serve_flags=()
  while [ "$1" != "--" ]; do serve_flags+=("$1"); shift; done
  shift
  local load_flags=("$@")
  local server_log="$WORK/server_$tag.log"

  # accel=20: two wall seconds of load span 40 virtual seconds, so plenty of
  # jobs resolve while the session is still live.
  "$SERVE" --port=0 --journal="$journal" --accel=20 --metrics \
    "${serve_flags[@]}" > "$server_log" 2>&1 &
  SERVER_PID=$!

  local port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/^LISTENING \([0-9]*\)$/\1/p' "$server_log")"
    [ -n "$port" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { cat "$server_log" >&2; exit 1; }
    sleep 0.1
  done
  [ -n "$port" ] || { echo "server never reported LISTENING" >&2; exit 1; }
  echo "[$tag] server up on port $port (pid $SERVER_PID)"

  "$LOAD" --port="$port" --duration=2 --rate=200 --linger=1 --seed=7 \
    "${load_flags[@]}"

  echo "[$tag] sending SIGTERM"
  kill -TERM "$SERVER_PID"
  local status=0
  wait "$SERVER_PID" || status=$?
  SERVER_PID=""
  cat "$server_log"
  [ "$status" -eq 0 ] || {
    echo "FAIL($tag): server exited $status after SIGTERM" >&2; exit 1; }

  COMPLETED="$(sed -n 's/^server: .* \([0-9]*\) completed.*/\1/p' "$server_log")"
  [ -n "$COMPLETED" ] && [ "$COMPLETED" -gt 0 ] || {
    echo "FAIL($tag): no completed jobs in server summary" >&2; exit 1; }

  local metric
  metric="$(awk '/server\.jobs_completed:/ { print $2 }' "$server_log")"
  [ -n "$metric" ] && awk -v m="$metric" 'BEGIN { exit !(m > 0) }' || {
    echo "FAIL($tag): server.jobs_completed metric missing or zero" >&2
    exit 1
  }

  # The rollup metric and the summary line count the same admissions.
  local accepted accepted_metric
  accepted="$(sed -n 's/^server: .* \([0-9]*\) accepted,.*/\1/p' "$server_log")"
  accepted_metric="$(awk '/^ *server\.jobs_accepted:/ { print $2 }' "$server_log")"
  [ -n "$accepted" ] && [ -n "$accepted_metric" ] &&
    awk -v a="$accepted" -v m="$accepted_metric" 'BEGIN { exit !(a == m) }' || {
    echo "FAIL($tag): server.jobs_accepted metric ($accepted_metric) !=" \
      "summary accepted ($accepted)" >&2
    exit 1
  }
}

# --- Phase 1: single-threaded inline session (the original gate) ----------
smoke_phase single "$WORK/journal" --
replay_bundle "$WORK/journal" single
SINGLE_COMPLETED="$COMPLETED"

# Negative replay: a copy of the journal with one jobs.csv field corrupted to
# "1.5abc" must fail to load, naming the row, instead of loading the numeric
# prefix 1.5. The untouched journal must still replay bit-exactly.
cp -r "$WORK/journal" "$WORK/journal_bad"
awk -F, -v OFS=, 'NR == 4 { $2 = "1.5abc" } { print }' \
  "$WORK/journal/jobs.csv" > "$WORK/journal_bad/jobs.csv"
if "$SIM" --bundle="$WORK/journal_bad" --scheduler=V-Dover \
    > "$WORK/replay_bad.log" 2> "$WORK/replay_bad.err"; then
  echo "FAIL(single): a corrupted jobs.csv field replayed" >&2; exit 1
fi
grep -q "job row 3 " "$WORK/replay_bad.err" || {
  echo "FAIL(single): corrupted-field error does not name job row 3:" >&2
  cat "$WORK/replay_bad.err" >&2; exit 1; }
echo "corrupted field rejected: $(cat "$WORK/replay_bad.err")"
replay_bundle "$WORK/journal" single

# --- Phase 2: sharded plane, 4 shards x 4 loadgen connections --------------
smoke_phase sharded "$WORK/journal4" --shards=4 -- --connections=4
for k in 0 1 2 3; do
  replay_bundle "$WORK/journal4/shard$k" "shard$k"
done
# The per-shard drain lines prove every shard carried traffic.
for k in 0 1 2 3; do
  grep -q "^shard $k drained:" "$WORK/server_sharded.log" || {
    echo "FAIL: no drain summary for shard $k" >&2; exit 1; }
done

SHARDED_COMPLETED="$COMPLETED"

# --- Phase 3: elastic fleet (--cluster=4) ----------------------------------
smoke_phase cluster "$WORK/journalc" --cluster=4 --
replay_cluster_bundle "$WORK/journalc" cluster
grep -q "^drained: cluster of 4" "$WORK/server_cluster.log" || {
  echo "FAIL: no cluster drain summary" >&2; exit 1; }
# Negative replay: a copy of the cluster journal whose meta.csv budget reads
# "1.5abc" must be refused, naming the field, instead of replaying with the
# numeric prefix 1.5 as the budget.
cp -r "$WORK/journalc" "$WORK/journalc_bad"
awk -F, -v OFS=, '$1 == "budget" { $2 = "1.5abc" } { print }' \
  "$WORK/journalc/meta.csv" > "$WORK/journalc_bad/meta.csv"
grep -q "^budget,1.5abc$" "$WORK/journalc_bad/meta.csv" || {
  echo "FAIL(cluster): meta.csv has no budget row to corrupt" >&2; exit 1; }
if "$SIM" --cluster-bundle="$WORK/journalc_bad" \
    > "$WORK/replay_cbad.log" 2> "$WORK/replay_cbad.err"; then
  echo "FAIL(cluster): a corrupted meta.csv budget replayed" >&2; exit 1
fi
grep -q "budget '1.5abc'" "$WORK/replay_cbad.err" || {
  echo "FAIL(cluster): corrupted-meta error does not name the budget:" >&2
  cat "$WORK/replay_cbad.err" >&2; exit 1; }
echo "corrupted meta rejected: $(cat "$WORK/replay_cbad.err")"

echo "PASS: clean SIGTERM drains ($SINGLE_COMPLETED single / $SHARDED_COMPLETED sharded / $COMPLETED cluster completed), all replays bit-exact"
