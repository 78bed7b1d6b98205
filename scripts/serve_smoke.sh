#!/usr/bin/env bash
# Serve-smoke: end-to-end check of the `qsyn serve` / `qsyn query` /
# `qsyn store` surface over a real TCP socket (CI runs this; it is also
# handy locally). The sequence mirrors the PR 6 acceptance criteria:
#
#   1. boot a daemon on an ephemeral port against a fresh store,
#   2. cold miss (engine), repeat (store hit), STATS counter check,
#   3. SIGKILL the daemon mid-flight and verify the store reopens
#      cleanly (`qsyn store verify`),
#   4. restart with `--preload`, prove the repeat answers with ZERO
#      engine invocations, and shut down over the wire,
#   5. SIGTERM a busy daemon and assert the drain contract: exit 0,
#      store verifies,
#   6. kill a compaction at its staged crash points
#      (QSYN_STORE_COMPACT_CRASH) and prove recovery: the reopened
#      store verifies and a clean retry compacts it,
#   7. boot a daemon capped at one connection and prove 200
#      back-to-back fresh-connection pings are all admitted (no retries,
#      0 refused at the cap),
#   8. send `{"verb": "ping"}`, spaced the way common JSON encoders
#      write it, over a raw bash /dev/tcp socket and require a pong,
#   9. preload a fresh store (no --preload-permute), shut down, and
#      require `batch --store` to replay the same depths a storeless
#      `batch` computes: preload fills must be class-minimal,
#  10. SIGKILL a journaled batch once its first record is on disk and
#      require `--resume` to exit 0 with the same name/gates/solutions/
#      permutation columns as an uninterrupted storeless `batch`; then
#      `store verify` on a missing path must exit 2 and create nothing.
#
# Usage: scripts/serve_smoke.sh   (expects target/release/qsyn; override
# with QSYN=path/to/qsyn)
set -euo pipefail

QSYN=${QSYN:-target/release/qsyn}
DIR=$(mktemp -d)
DAEMON=""
BATCH=""
trap '[ -n "$DAEMON" ] && kill -9 "$DAEMON" 2>/dev/null; [ -n "$BATCH" ] && kill -9 "$BATCH" 2>/dev/null; rm -rf "$DIR"' EXIT
STORE="$DIR/smoke.store"

wait_ready() {
  for _ in $(seq 1 150); do
    grep -q "listening on " "$1" && return 0
    sleep 0.2
  done
  echo "serve-smoke: daemon never became ready" >&2
  cat "$1" >&2
  return 1
}

step() { echo "serve-smoke: $*"; }

step "boot (fresh store)"
"$QSYN" serve 127.0.0.1:0 --store "$STORE" --jobs 1 >"$DIR/serve1.log" 2>&1 &
DAEMON=$!
wait_ready "$DIR/serve1.log"
ADDR=$(awk '/listening on /{print $3; exit}' "$DIR/serve1.log")

step "ping $ADDR"
"$QSYN" query "$ADDR" --ping

step "cold miss synthesizes"
"$QSYN" query "$ADDR" 3_17 | grep "(engine in"

step "repeat answers from the store"
"$QSYN" query "$ADDR" 3_17 | grep "(store in"

step "counters agree (1 engine invocation, 1 hit)"
STATS=$("$QSYN" query "$ADDR" --stats)
echo "$STATS"
echo "$STATS" | grep -q "engine invocations: 1"
echo "$STATS" | grep -q "1 hits"

step "SIGKILL the daemon"
kill -9 "$DAEMON"
wait "$DAEMON" 2>/dev/null || true
DAEMON=""

step "killed daemon's store verifies"
"$QSYN" store verify "$STORE"

step "restart with --preload on the survived store"
echo 3_17 >"$DIR/preload.list"
"$QSYN" serve 127.0.0.1:0 --store "$STORE" --preload "$DIR/preload.list" --jobs 1 \
  >"$DIR/serve2.log" 2>&1 &
DAEMON=$!
wait_ready "$DIR/serve2.log"
ADDR=$(awk '/listening on /{print $3; exit}' "$DIR/serve2.log")
grep -q "preloaded 1 jobs (0 failed)" "$DIR/serve2.log"

step "repeat after restart never touches an engine"
"$QSYN" query "$ADDR" 3_17 | grep "(store in"
STATS=$("$QSYN" query "$ADDR" --stats)
echo "$STATS"
echo "$STATS" | grep -q "engine invocations: 0"

step "shutdown over the wire"
"$QSYN" query "$ADDR" --shutdown
wait "$DAEMON" 2>/dev/null || true
DAEMON=""

step "SIGTERM drains a busy daemon to exit 0"
"$QSYN" serve 127.0.0.1:0 --store "$STORE" --jobs 1 >"$DIR/serve3.log" 2>&1 &
DAEMON=$!
wait_ready "$DIR/serve3.log"
ADDR=$(awk '/listening on /{print $3; exit}' "$DIR/serve3.log")
# Put a request in flight, then signal: the drain must stop accepting,
# answer the in-flight query, flush and exit 0.
"$QSYN" query "$ADDR" rd32-v0 >"$DIR/drain-query.log" 2>&1 &
QUERY=$!
sleep 0.3
kill -TERM "$DAEMON"
if ! wait "$QUERY"; then
  echo "serve-smoke: in-flight query was dropped during the drain" >&2
  cat "$DIR/drain-query.log" >&2
  exit 1
fi
DRAIN_CODE=0
wait "$DAEMON" || DRAIN_CODE=$?
DAEMON=""
if [ "$DRAIN_CODE" -ne 0 ]; then
  echo "serve-smoke: SIGTERM drain exited $DRAIN_CODE, want 0" >&2
  cat "$DIR/serve3.log" >&2
  exit 1
fi

step "drained daemon's store verifies"
"$QSYN" store verify "$STORE"
RECORDS_BEFORE=$("$QSYN" store stats "$STORE" | awk '/^records:/{print $2; exit}')

step "compaction killed at every staged crash point recovers"
for STAGE in before-tmp tmp-torn tmp-synced renamed; do
  if QSYN_STORE_COMPACT_CRASH=$STAGE "$QSYN" store compact "$STORE" \
      >"$DIR/crash-$STAGE.log" 2>&1; then
    echo "serve-smoke: staged crash $STAGE never fired" >&2
    exit 1
  fi
  # A crash between writing the temp file and the rename leaves an
  # orphan: verify must report it (advisory exit 3) without deleting it.
  VERIFY_CODE=0
  "$QSYN" store verify "$STORE" >"$DIR/verify-$STAGE.log" || VERIFY_CODE=$?
  case $STAGE in
    tmp-torn|tmp-synced)
      if [ "$VERIFY_CODE" -ne 3 ] || ! grep -q "orphaned temp-compaction" "$DIR/verify-$STAGE.log"; then
        echo "serve-smoke: $STAGE: want advisory exit 3 with an orphan report, got $VERIFY_CODE" >&2
        cat "$DIR/verify-$STAGE.log" >&2
        exit 1
      fi
      ;;
    *)
      if [ "$VERIFY_CODE" -ne 0 ]; then
        echo "serve-smoke: $STAGE: store failed verify ($VERIFY_CODE) after the crash" >&2
        cat "$DIR/verify-$STAGE.log" >&2
        exit 1
      fi
      ;;
  esac
  "$QSYN" store compact "$STORE" | grep -q "compacted: "
  "$QSYN" store verify "$STORE"
  RECORDS_AFTER=$("$QSYN" store stats "$STORE" | awk '/^records:/{print $2; exit}')
  if [ "$RECORDS_AFTER" != "$RECORDS_BEFORE" ]; then
    echo "serve-smoke: $STAGE: records $RECORDS_BEFORE -> $RECORDS_AFTER across crash recovery" >&2
    exit 1
  fi
done

step "200 back-to-back pings at --max-connections 1 are never refused"
"$QSYN" serve 127.0.0.1:0 --jobs 1 --max-connections 1 >"$DIR/serve4.log" 2>&1 &
DAEMON=$!
wait_ready "$DIR/serve4.log"
ADDR=$(awk '/listening on /{print $3; exit}' "$DIR/serve4.log")
# Each query is a new process on a fresh connection; the next one can
# arrive before the daemon has released the previous one's slot.
for i in $(seq 1 200); do
  if ! "$QSYN" query "$ADDR" --ping --retries 0 >"$DIR/ping.log" 2>&1; then
    echo "serve-smoke: ping $i at the cap failed" >&2
    cat "$DIR/ping.log" >&2
    exit 1
  fi
done
STATS=$("$QSYN" query "$ADDR" --stats)
echo "$STATS"
echo "$STATS" | grep -q " 0 refused at the cap"
"$QSYN" query "$ADDR" --shutdown
wait "$DAEMON" 2>/dev/null || true
DAEMON=""

step "a spaced request over a raw socket is answered"
"$QSYN" serve 127.0.0.1:0 --jobs 1 >"$DIR/serve5.log" 2>&1 &
DAEMON=$!
wait_ready "$DIR/serve5.log"
ADDR=$(awk '/listening on /{print $3; exit}' "$DIR/serve5.log")
exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR##*:}"
printf '{"verb": "ping"}\n' >&3
REPLY=""
read -r -t 10 REPLY <&3 || true
exec 3<&-
echo "$REPLY"
case $REPLY in
  *'"pong":1'*) ;;
  *)
    echo "serve-smoke: raw spaced ping got '$REPLY', want a pong" >&2
    exit 1
    ;;
esac
"$QSYN" query "$ADDR" --shutdown
wait "$DAEMON" 2>/dev/null || true
DAEMON=""

step "preloaded records replay class-minimal depths"
# [3,1,6,7,2,0,5,4] needs 8 gates under its canonical labeling but 4 with
# free output relabeling, which is what batch reports.
printf '.numvars 3\n.begin\n000 011\n001 001\n010 110\n011 111\n100 010\n101 000\n110 101\n111 100\n.end\n' \
  >"$DIR/relabel.spec"
printf '3_17\nrd32-v0\n%s\n' "$DIR/relabel.spec" >"$DIR/minimal.list"
"$QSYN" serve 127.0.0.1:0 --store "$DIR/minimal.store" --preload "$DIR/minimal.list" --jobs 1 \
  >"$DIR/serve6.log" 2>&1 &
DAEMON=$!
wait_ready "$DIR/serve6.log"
ADDR=$(awk '/listening on /{print $3; exit}' "$DIR/serve6.log")
grep -q "preloaded 3 jobs (0 failed)" "$DIR/serve6.log"
"$QSYN" query "$ADDR" --shutdown
wait "$DAEMON" 2>/dev/null || true
DAEMON=""
# Each row's name and gate count, without the header and summary lines.
depths() { awk 'NR > 1 && $NF == "ok" {print $1, $2}'; }
"$QSYN" batch "$DIR/minimal.list" | depths >"$DIR/fresh.depths"
"$QSYN" batch "$DIR/minimal.list" --store "$DIR/minimal.store" >"$DIR/replay.log"
grep -q "store 3 hits / 0 misses" "$DIR/replay.log"
depths <"$DIR/replay.log" >"$DIR/replay.depths"
if ! diff "$DIR/fresh.depths" "$DIR/replay.depths"; then
  echo "serve-smoke: preloaded records replay depths above the class minimum" >&2
  exit 1
fi

step "a SIGKILLed journaled batch resumes to the uninterrupted rows"
# The first job finishes in milliseconds, the later two take seconds, so
# the kill lands after the first record and before the last.
printf '3_17\nhwb4\nalu-v3\n' >"$DIR/killed.list"
JOURNAL="$DIR/killed.journal"
"$QSYN" batch "$DIR/killed.list" --journal "$JOURNAL" >"$DIR/killed.log" 2>&1 &
BATCH=$!
# The journal starts with its 8-byte magic; wait for the first record.
for _ in $(seq 1 300); do
  [ "$(stat -c %s "$JOURNAL" 2>/dev/null || echo 0)" -gt 8 ] && break
  sleep 0.05
done
if [ "$(stat -c %s "$JOURNAL" 2>/dev/null || echo 0)" -le 8 ]; then
  echo "serve-smoke: the journaled batch never recorded a job" >&2
  cat "$DIR/killed.log" >&2
  exit 1
fi
kill -9 "$BATCH"
wait "$BATCH" 2>/dev/null || true
BATCH=""
if grep -q "3 jobs, 3 ok" "$DIR/killed.log"; then
  echo "serve-smoke: the batch finished before the kill" >&2
  exit 1
fi
# Name, gates, solutions and permutation of each row: the time column
# and the status are dropped.
columns() { awk 'NR > 1 && $NF == "ok" {NF -= 2; print}'; }
"$QSYN" batch "$DIR/killed.list" --journal "$JOURNAL" --resume >"$DIR/resumed.log"
# The journaled first job replays; only the lost ones re-run.
grep -q "cache 0 hits / [12] misses" "$DIR/resumed.log"
columns <"$DIR/resumed.log" >"$DIR/resumed.rows"
"$QSYN" batch "$DIR/killed.list" | columns >"$DIR/uninterrupted.rows"
if ! diff "$DIR/uninterrupted.rows" "$DIR/resumed.rows"; then
  echo "serve-smoke: resumed rows differ from an uninterrupted batch" >&2
  exit 1
fi

step "store verify refuses a missing path and creates nothing"
MISSING_CODE=0
"$QSYN" store verify "$DIR/missing.store" >"$DIR/missing.log" || MISSING_CODE=$?
if [ "$MISSING_CODE" -ne 2 ] || [ -e "$DIR/missing.store" ]; then
  echo "serve-smoke: store verify on a missing path exited $MISSING_CODE" >&2
  cat "$DIR/missing.log" >&2
  exit 1
fi

echo "serve-smoke: ok"
