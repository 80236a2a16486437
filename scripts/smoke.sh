#!/bin/sh
# End-to-end smoke test of the sharded serving stack:
#   hagen -> haidx shard -> 2x haserve (one replica fault-injected) ->
#   haquery with the brute-force oracle diff.
# Exits nonzero if any step fails or the distributed answers differ from a
# linear scan over the snapshots' tuples.
#
# Shard 0 drops the connection of its first request and sheds one
# deterministic request; the query rows run twice, the first pass redialling
# past the drop and the second riding out the shed with the router's one
# polite backoff (the oracle diff proves the answers stay byte-identical). A
# third pass lists shard 1's server as a replica of shard 0 too, which the
# router must refuse at its handshake: one retry finds the refusal, and the
# rotation skips the replica after it. A delete against the read-only shards
# must then fail at once with their refusal, not after retries.
#
# With SMOKE_DEBUG=1 (make debug-smoke), shard 0 also binds its HTTP debug
# endpoint; after the queries run, /debug/obs is fetched and must report a
# non-empty request-latency histogram, nonzero request/fault counters, the
# queries and ids_returned counters Stats reports (on the shard's registry),
# and —
# since haserve plans every segment — nonzero engine-routed segment
# search counters (lsm.search_*) plus per-engine latency samples, a nonzero
# shed counter from the repeat pass, and, once the shard's background plan
# has landed, an mmap-backed index whose only heap is the auxiliary
# engines' and the load-phase gauges.
#
# With SMOKE_LSM=1 (make lsm-smoke), the snapshots are additionally served
# by mutable (LSM) shards, which must report their snapshot segment's plan
# timings once it lands: searches pinned to MIH and to the scan must match
# the oracle before any write, then insert -> seal -> compact -> upsert ->
# delete are driven through haquery with searches verifying every step (the
# upsert moves the tuple to the other shard's partition, and the upsert and
# the delete each cost each shard exactly one mutation frame);
# mutable shards' /debug/obs must then show the search after the seal run
# through MIH, and pinned searches must match the oracle again.
set -eu

cd "$(dirname "$0")/.."
WORK=$(mktemp -d)
PIDS=""
cleanup() {
    for pid in $PIDS; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "smoke: building CLIs into $WORK/bin"
go build -o "$WORK/bin/" ./cmd/hagen ./cmd/haidx ./cmd/haserve ./cmd/haquery

echo "smoke: generating and sharding a tiny dataset (3 parts, then 2 into the same directory)"
"$WORK/bin/hagen" -profile NUS-WIDE -n 2000 -seed 7 -o "$WORK/data.csv"
"$WORK/bin/haidx" shard -data "$WORK/data.csv" -bits 32 -parts 3 -o "$WORK/shards"
"$WORK/bin/haidx" shard -data "$WORK/data.csv" -bits 32 -parts 2 -o "$WORK/shards"
# A build replaces the directory: the 3-part build's shard-00002.hasn must be
# gone, or the oracle below would scan it as part of the 2-part build.
SHARDS=$(ls "$WORK/shards" | grep -c '^shard-.*\.hasn$' || true)
[ "$SHARDS" -eq 2 ] || {
    echo "smoke: $SHARDS shard-*.hasn files after the 2-part build, want 2" >&2; ls "$WORK/shards" >&2; exit 1; }

# fetch_obs ADDR FILE saves the /debug/obs snapshot served on ADDR to FILE.
fetch_obs() {
    echo "smoke: fetching http://$1/debug/obs"
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "http://$1/debug/obs" > "$2"
    elif command -v wget >/dev/null 2>&1; then
        wget -qO "$2" "http://$1/debug/obs"
    else
        go run ./scripts/fetch "http://$1/debug/obs" > "$2"
    fi
}

# gauge NAME FILE prints the gauge NAME of the /debug/obs snapshot in FILE.
gauge() { sed -n "s/^ *\"$1\": \([0-9]*\).*/\1/p" "$2" | head -n 1; }

# wait_planned ADDR FILE fetches the /debug/obs snapshot served on ADDR into
# FILE until lsm.unplanned_segments reads 0 (a shard plans its snapshot's
# segment in the background), and fails after about 10 s.
wait_planned() {
    tries=0
    while [ "$(fetch_obs "$1" "$2" >/dev/null && gauge lsm.unplanned_segments "$2")" != "0" ]; do
        tries=$((tries + 1))
        [ "$tries" -gt 100 ] && { echo "smoke: $1 still has unplanned segments" >&2; exit 1; }
        sleep 0.1
    done
}

SMOKE_DEBUG=${SMOKE_DEBUG:-0}
DEBUG_FLAGS=""
if [ "$SMOKE_DEBUG" = "1" ]; then
    DEBUG_FLAGS="-debug-addr 127.0.0.1:0 -debug-port-file $WORK/s0.debug"
fi

echo "smoke: starting two shard servers (shard 0 drops request 0, sheds request 3)"
# shellcheck disable=SC2086 # DEBUG_FLAGS is intentionally word-split
"$WORK/bin/haserve" -snapshot "$WORK/shards/shard-00000.hasn" -addr 127.0.0.1:0 \
    -port-file "$WORK/s0.addr" -drop-requests 0 -shed-requests 3 $DEBUG_FLAGS &
PIDS="$PIDS $!"
"$WORK/bin/haserve" -snapshot "$WORK/shards/shard-00001.hasn" -addr 127.0.0.1:0 \
    -port-file "$WORK/s1.addr" &
PIDS="$PIDS $!"

for f in s0.addr s1.addr; do
    tries=0
    while [ ! -s "$WORK/$f" ]; do
        tries=$((tries + 1))
        [ "$tries" -gt 100 ] && { echo "smoke: $f never appeared" >&2; exit 1; }
        sleep 0.1
    done
done
ADDR0=$(cat "$WORK/s0.addr")
ADDR1=$(cat "$WORK/s1.addr")

echo "smoke: querying rows 0-49 through the router (h=3, top-5), diffing vs oracle"
"$WORK/bin/haquery" -shards "$ADDR0,$ADDR1" \
    -codes-file "$WORK/shards/codes.txt" -rows 0-49 -h 3 -topk 5 \
    -oracle "$WORK/shards" -trace

echo "smoke: same rows again: shard 0 sheds the search, then answers it after one backoff"
"$WORK/bin/haquery" -shards "$ADDR0,$ADDR1" \
    -codes-file "$WORK/shards/codes.txt" -rows 0-49 -h 3 -topk 5 \
    -oracle "$WORK/shards"

# Shard 1's server listed as shard 0's second replica: rotation sends the
# top-k's shard-0 leg to it, its handshake shows partition 1, and the router
# must refuse it and retry on shard 0's own server, not merge its answer.
echo "smoke: shard 1's server mis-listed as a replica of shard 0; answers must still be the oracle's"
"$WORK/bin/haquery" -shards "$ADDR0/$ADDR1,$ADDR1" \
    -codes-file "$WORK/shards/codes.txt" -rows 0-49 -h 3 -topk 5 \
    -oracle "$WORK/shards" > "$WORK/mislisted.out" || { cat "$WORK/mislisted.out"; exit 1; }
cat "$WORK/mislisted.out"
grep -q ' 1 retries' "$WORK/mislisted.out" || {
    echo "smoke: the mis-listed replica did not cost exactly the one retry that finds it" >&2; exit 1; }

# A read-only shard refuses a write with an error frame: that is its answer,
# so haquery must exit nonzero with the refusal and ask no replica again.
echo "smoke: a delete against the read-only shards must fail at once with their refusal"
if "$WORK/bin/haquery" -shards "$ADDR0,$ADDR1" -delete 5 > "$WORK/refused.out" 2>&1; then
    cat "$WORK/refused.out"; echo "smoke: a delete against read-only shards succeeded" >&2; exit 1
fi
cat "$WORK/refused.out"
grep -q 'write refused' "$WORK/refused.out" || {
    echo "smoke: the failed delete does not name the refusal" >&2; exit 1; }
if grep -q 'attempts' "$WORK/refused.out"; then
    echo "smoke: the refused delete was retried" >&2; exit 1
fi

if [ "$SMOKE_DEBUG" = "1" ]; then
    wait_planned "$(cat "$WORK/s0.debug")" "$WORK/obs.json"
    grep -q '"req.search_ns"' "$WORK/obs.json" || {
        echo "smoke: debug snapshot has no search-latency histogram" >&2; exit 1; }
    REQS=$(sed -n 's/^ *"requests": \([0-9]*\).*/\1/p' "$WORK/obs.json" | head -n 1)
    [ -n "$REQS" ] && [ "$REQS" -gt 0 ] || {
        echo "smoke: debug snapshot reports no served requests" >&2; exit 1; }
    FAULTS=$(sed -n 's/^ *"faults_injected": \([0-9]*\).*/\1/p' "$WORK/obs.json" | head -n 1)
    [ -n "$FAULTS" ] && [ "$FAULTS" -gt 0 ] || {
        echo "smoke: debug snapshot reports no injected faults" >&2; exit 1; }
    # Stats' counts live on the registry /debug/obs serves, not beside it.
    for c in queries ids_returned; do
        n=$(sed -n "s/^ *\"$c\": \([0-9]*\).*/\1/p" "$WORK/obs.json" | head -n 1)
        [ -n "$n" ] && [ "$n" -gt 0 ] || {
            echo "smoke: debug snapshot's $c counter is ${n:-missing}" >&2; exit 1; }
    done
    # haserve plans every segment, so every search must leave an
    # engine-routed segment search count and a per-engine latency histogram
    # behind.
    ROUTED=$(grep -o '"lsm\.search_[a-z]*": [0-9]*' "$WORK/obs.json" \
        | awk -F': ' '{s+=$2} END{print s+0}')
    [ "$ROUTED" -gt 0 ] || {
        echo "smoke: debug snapshot has no engine-routed search counters" >&2; exit 1; }
    ENGINE=$(awk '/"lsm\.search_[a-z]*_ns"/{f=1} f && /"count":/{gsub(/[^0-9]/,""); s+=$0; f=0} END{print s+0}' \
        "$WORK/obs.json")
    [ "$ENGINE" -gt 0 ] || {
        echo "smoke: debug snapshot has no per-engine latency samples" >&2; exit 1; }
    # The repeat pass must have left its one shed behind.
    SHEDS=$(sed -n 's/^ *"sheds": \([0-9]*\).*/\1/p' "$WORK/obs.json" | head -n 1)
    [ -n "$SHEDS" ] && [ "$SHEDS" -gt 0 ] || {
        echo "smoke: debug snapshot reports no shed requests" >&2; exit 1; }
    # haidx shard writes v4 (mmap-native) snapshots and haserve defaults to
    # -mmap, so the served index must be page-cache-backed: the whole arena
    # in index.mapped_bytes. The segment's plan, landed by now, adds MIH's
    # key tables and nothing else, so every heap byte the index holds must be
    # accounted to the auxiliary engines — the arena itself contributes none.
    # (On a platform without the mmap fast path the eager fallback would put
    # the arena in index.heap_bytes and fail the equality.)
    MAPPED=$(gauge index.mapped_bytes "$WORK/obs.json")
    HEAP=$(gauge index.heap_bytes "$WORK/obs.json")
    AUX=$(gauge index.aux_heap_bytes "$WORK/obs.json")
    [ -n "$MAPPED" ] && [ -n "$HEAP" ] && [ -n "$AUX" ] || {
        echo "smoke: debug snapshot is missing the index byte gauges" >&2; exit 1; }
    [ "$MAPPED" -gt 0 ] || {
        echo "smoke: served shard is not mmap-backed (index.mapped_bytes=$MAPPED)" >&2; exit 1; }
    [ "$AUX" -gt 0 ] || {
        echo "smoke: planned shard reports no auxiliary-engine heap" >&2; exit 1; }
    [ "$HEAP" -eq "$AUX" ] || {
        echo "smoke: mmap-backed shard holds $HEAP heap bytes, only $AUX of them the auxiliary engines'" >&2; exit 1; }
    # The load phases must be on the registry: the map inside the load to
    # serving (load.total_ns), and both phases of the plan that landed after
    # it timed.
    LOAD_MAP=$(gauge load.map_ns "$WORK/obs.json")
    LOAD_MIH=$(gauge load.mih_build_ns "$WORK/obs.json")
    LOAD_PLAN=$(gauge load.plan_ns "$WORK/obs.json")
    LOAD_TOTAL=$(gauge load.total_ns "$WORK/obs.json")
    [ -n "$LOAD_MAP" ] && [ -n "$LOAD_MIH" ] && [ -n "$LOAD_PLAN" ] && [ -n "$LOAD_TOTAL" ] || {
        echo "smoke: debug snapshot is missing the load.*_ns gauges" >&2; exit 1; }
    [ "$LOAD_MAP" -gt 0 ] && [ "$LOAD_MAP" -le "$LOAD_TOTAL" ] || {
        echo "smoke: load.map_ns=$LOAD_MAP is not inside load.total_ns=$LOAD_TOTAL" >&2; exit 1; }
    [ "$LOAD_MIH" -gt 0 ] && [ "$LOAD_PLAN" -gt 0 ] || {
        echo "smoke: the landed plan is untimed (load.mih_build_ns=$LOAD_MIH, load.plan_ns=$LOAD_PLAN)" >&2; exit 1; }
    echo "smoke: debug endpoint OK ($REQS requests, $FAULTS faults, queries and ids_returned counted, $ROUTED engine-routed segment searches, $ENGINE engine samples, $SHEDS sheds, $MAPPED mapped + $AUX aux heap bytes, serving after $LOAD_TOTAL ns, planned in $LOAD_MIH + $LOAD_PLAN ns)"
fi

SMOKE_LSM=${SMOKE_LSM:-0}
if [ "$SMOKE_LSM" = "1" ]; then
    echo "smoke: starting two mutable (LSM) shard servers from the same snapshots"
    "$WORK/bin/haserve" -snapshot "$WORK/shards/shard-00000.hasn" -addr 127.0.0.1:0 \
        -port-file "$WORK/m0.addr" -mutable -memtable-max 64 \
        -debug-addr 127.0.0.1:0 -debug-port-file "$WORK/m0.debug" &
    PIDS="$PIDS $!"
    "$WORK/bin/haserve" -snapshot "$WORK/shards/shard-00001.hasn" -addr 127.0.0.1:0 \
        -port-file "$WORK/m1.addr" -mutable -memtable-max 64 \
        -debug-addr 127.0.0.1:0 -debug-port-file "$WORK/m1.debug" &
    PIDS="$PIDS $!"
    for f in m0.addr m1.addr m0.debug m1.debug; do
        tries=0
        while [ ! -s "$WORK/$f" ]; do
            tries=$((tries + 1))
            [ "$tries" -gt 100 ] && { echo "smoke: $f never appeared" >&2; exit 1; }
            sleep 0.1
        done
    done
    MADDR="$(cat "$WORK/m0.addr"),$(cat "$WORK/m1.addr")"

    # Each shard times its snapshot segment's background plan once it lands.
    for m in m0 m1; do
        wait_planned "$(cat "$WORK/$m.debug")" "$WORK/$m.obs.json"
        MIH_NS=$(gauge load.mih_build_ns "$WORK/$m.obs.json")
        PLAN_NS=$(gauge load.plan_ns "$WORK/$m.obs.json")
        [ -n "$MIH_NS" ] && [ "$MIH_NS" -gt 0 ] && [ -n "$PLAN_NS" ] && [ "$PLAN_NS" -gt 0 ] || {
            echo "smoke: mutable shard $m planned its segment untimed (load.mih_build_ns=$MIH_NS, load.plan_ns=$PLAN_NS)" >&2; exit 1; }
        echo "smoke: mutable shard $m planned in $MIH_NS + $PLAN_NS ns"
    done

    # A never-written shard serves every hint: its snapshot's segment is
    # planned as the shard starts, and HA answers for it only until then.
    for engine in auto mih scan; do
        echo "smoke: mutable tier under -engine $engine must match the oracle before any mutation"
        "$WORK/bin/haquery" -shards "$MADDR" -engine "$engine" \
            -codes-file "$WORK/shards/codes.txt" -rows 0-49 -h 3 -topk 5 \
            -oracle "$WORK/shards"
    done

    # mih_searches sums lsm.search_mih over both mutable shards.
    mih_searches() {
        total=0
        for m in m0 m1; do
            fetch_obs "$(cat "$WORK/$m.debug")" "$WORK/$m.obs.json" >&2
            n=$(sed -n 's/^ *"lsm.search_mih": \([0-9]*\).*/\1/p' "$WORK/$m.obs.json" | head -n 1)
            [ -n "$n" ] || { echo "smoke: $m's debug snapshot has no lsm.search_mih counter" >&2; exit 1; }
            total=$((total + n))
        done
        echo "$total"
    }

    # The dataset's codes in Gray order (a code's Gray rank is the running
    # XOR of its bits): the first lies in partition 0 and the last in
    # partition 1, so an upsert from one to the other retires a copy on the
    # other shard.
    gray_sorted() {
        awk '{r = ""; x = 0; for (i = 1; i <= length($0); i++) { x = (x + substr($0, i, 1)) % 2; r = r x }; print r, $0}' \
            "$WORK/shards/codes.txt" | sort | awk '{print $2}'
    }
    C0=$(gray_sorted | head -n 1)
    C1=$(gray_sorted | tail -n 1)
    # delta NAME M prints how far counter NAME, or histogram NAME's count,
    # moved on shard M between its before.json and after.json snapshots.
    count() { awk -v n="\"$1\":" '$1 == n {if ($2 ~ /^[0-9]/) {print $2 + 0; exit} f = 1} f && /"count":/ {gsub(/[^0-9]/, ""); print; exit}' "$2"; }
    delta() { echo $(($(count "$1" "$WORK/$2.after.json") - $(count "$1" "$WORK/$2.before.json"))); }

    echo "smoke: insert a fresh tuple, verify it is searchable"
    "$WORK/bin/haquery" -shards "$MADDR" -insert "90001:$C0"
    "$WORK/bin/haquery" -shards "$MADDR" -codes "$C0" -h 0 -v | grep -q 90001 || {
        echo "smoke: inserted tuple 90001 not found" >&2; exit 1; }

    echo "smoke: seal + compact, tuple must survive the frozen segments"
    "$WORK/bin/haquery" -shards "$MADDR" -seal-compact
    BEFORE=$(mih_searches)
    "$WORK/bin/haquery" -shards "$MADDR" -codes "$C0" -h 0 -v | grep -q 90001 || {
        echo "smoke: tuple 90001 lost across seal+compact" >&2; exit 1; }

    # The compaction planned each shard's segment, and the h=0 search since
    # must have run through MIH, which the counted plan picks at that size,
    # on the shard the router sent it to.
    MIH=$(mih_searches)
    [ "$MIH" -gt "$BEFORE" ] || {
        echo "smoke: no segment search ran through MIH after the seal" >&2; exit 1; }
    echo "smoke: lsm.search_mih $BEFORE -> $MIH across the search after the seal"

    echo "smoke: upsert moves the tuple from partition 0 to partition 1, one frame a shard"
    for m in m0 m1; do fetch_obs "$(cat "$WORK/$m.debug")" "$WORK/$m.before.json"; done
    # The top-k after the upsert reaches both shards on the upsert's
    # connections, so each has counted the upsert's frame when it answers.
    OUT=$("$WORK/bin/haquery" -shards "$MADDR" -insert "90001:$C1" -codes "$C1" -h 0 -topk 1 -v)
    echo "$OUT" | grep -q '(1 replaced an older version)' || {
        echo "smoke: the upsert of live tuple 90001 replaced nothing: $OUT" >&2; exit 1; }
    echo "$OUT" | grep -q 'matches.*90001' || {
        echo "smoke: upserted tuple 90001 not at its new code" >&2; exit 1; }
    for m in m0 m1; do fetch_obs "$(cat "$WORK/$m.debug")" "$WORK/$m.after.json"; done
    FRAMES="$(delta req.mutate_ns m0) $(delta req.mutate_ns m1)"
    MOVE="$(delta lsm.deletes m0) $(delta lsm.inserts m0) $(delta lsm.deletes m1) $(delta lsm.inserts m1)"
    [ "$FRAMES" = "1 1" ] || {
        echo "smoke: one upsert cost the shards $FRAMES mutation frames, want 1 each" >&2; exit 1; }
    [ "$MOVE" = "1 0 0 1" ] || {
        echo "smoke: the upsert's deletes and inserts on the shards are $MOVE, want shard 0 to delete and shard 1 to insert" >&2; exit 1; }
    echo "smoke: the upsert cost each shard one frame: shard 0 retired the tuple, shard 1 took it"
    if "$WORK/bin/haquery" -shards "$MADDR" -codes "$C0" -h 0 -v | grep -q 90001; then
        echo "smoke: upsert left a stale copy of tuple 90001 at the old code" >&2; exit 1
    fi

    echo "smoke: delete the tuple, one frame a shard, verify it is gone"
    for m in m0 m1; do fetch_obs "$(cat "$WORK/$m.debug")" "$WORK/$m.before.json"; done
    # As after the upsert, the top-k is the barrier on the delete's connections.
    OUT=$("$WORK/bin/haquery" -shards "$MADDR" -delete 90001 -codes "$C1" -h 0 -topk 1 -v)
    echo "$OUT" | grep -q 'deleted 1 of 1 ids' || {
        echo "smoke: the delete of live tuple 90001 found nothing: $OUT" >&2; exit 1; }
    for m in m0 m1; do fetch_obs "$(cat "$WORK/$m.debug")" "$WORK/$m.after.json"; done
    FRAMES="$(delta req.mutate_ns m0) $(delta req.mutate_ns m1)"
    DELS="$(delta lsm.deletes m0) $(delta lsm.deletes m1)"
    [ "$FRAMES" = "1 1" ] || {
        echo "smoke: one delete cost the shards $FRAMES mutation frames, want 1 each" >&2; exit 1; }
    [ "$DELS" = "0 1" ] || {
        echo "smoke: the delete's deletes on the shards are $DELS, want shard 1, which held the tuple, alone" >&2; exit 1; }
    echo "smoke: the delete cost each shard one frame: shard 1 retired the tuple"
    if "$WORK/bin/haquery" -shards "$MADDR" -codes "$C1" -h 0 -v | grep -q 90001; then
        echo "smoke: deleted tuple 90001 still searchable" >&2; exit 1
    fi

    # The shards hold the snapshots' rows again, in planned segments with a
    # tombstone: a pinned engine runs on every one of them.
    for engine in mih scan; do
        echo "smoke: searches pinned to $engine on the mutable shards, diffing vs oracle"
        "$WORK/bin/haquery" -shards "$MADDR" -engine "$engine" \
            -codes-file "$WORK/shards/codes.txt" -rows 0-49 -h 3 -topk 5 \
            -oracle "$WORK/shards"
    done
    echo "smoke: LSM mutable tier OK"
fi

echo "smoke: OK"
