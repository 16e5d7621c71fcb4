#!/bin/sh
# Three-process fleet drive: one aggregator and two shard nodes on unix
# sockets in a fresh directory, then `fleet_frontend --verify` against
# them, which must print "verify: OK" (admission, streaming, a live
# migration across shard processes, and the socket-merged and
# aggregator views equal to an in-process router).
#
# Usage: fleet_three_process.sh <fleet_aggregator> <fleet_shard_node>
#                               <fleet_frontend>
set -u
agg_bin=$1
shard_bin=$2
front_bin=$3

dir=$(mktemp -d "${TMPDIR:-/tmp}/qpsa-fleet.XXXXXX") || exit 1
pids=""
cleanup() {
    if [ -n "$pids" ]; then
        kill $pids 2>/dev/null
        wait $pids 2>/dev/null
    fi
    rm -rf "$dir"
}
trap cleanup EXIT
trap 'exit 1' INT TERM

agg="unix:$dir/agg.sock"
s0="unix:$dir/shard0.sock"
s1="unix:$dir/shard1.sock"
"$agg_bin" "$agg" &
pids="$pids $!"
"$shard_bin" "$s0" "$agg" --shard-index 0 --shard-count 2 --cadence-ms 25 &
pids="$pids $!"
"$shard_bin" "$s1" "$agg" --shard-index 1 --shard-count 2 --cadence-ms 25 &
pids="$pids $!"

# The front-end dials with backoff, so no readiness wait is needed.
"$front_bin" --verify "$s0" "$s1" "$agg" >"$dir/verify.log" 2>&1
status=$?
cat "$dir/verify.log"
if [ "$status" -ne 0 ] || ! grep -q "verify: OK" "$dir/verify.log"; then
    exit 1
fi
exit 0
