#!/bin/sh
# test_check_bench_regression.sh — fixtures for check_bench_regression.sh:
# a minimal passing ledger, then one mutation per gate that must fail.
#
# Usage: sh scripts/test_check_bench_regression.sh

set -eu

check="$(dirname "$0")/check_bench_regression.sh"

ledger() {
    cat <<'LEDGER'
verification: 3204 battery answers over 9 windows, 0 differ from the offline pipeline; epoch 321 on 1 node(s)
hashing.hash_ns_per_key                         11.2135 ns     n=286720
rank.rank_ns_per_offer                          13.4004 ns     n=1146880
server.ingest_binary_allocs_per_offer         0.0931676 count  n=1146880
shard.lane_ns_per_offer                         26.4299 ns     n=1146880
sketch.builder_admit_ratio                    0.0893459 ratio  n=1146880
{"correct":true,"attempted":25071,"failed":0,"metrics":{}}
LEDGER
}

# expect <pass|fail> <what> <sed script applied to the passing ledger>
expect() {
    if ledger | sed "$3" | sh "$check" >/dev/null 2>&1; then got=pass; else got=fail; fi
    if [ "$got" != "$1" ]; then
        echo "test_check_bench_regression: $2: gate ${got}ed, want $1" >&2
        exit 1
    fi
}

expect pass "the ledger as measured" ''
expect fail "lane cost doubled" 's/^shard.lane_ns_per_offer *26.4299/shard.lane_ns_per_offer 52.8598/'
expect fail "allocations above admitted + slack" 's/^server.ingest_binary_allocs_per_offer *0.0931676/server.ingest_binary_allocs_per_offer 0.1031676/'
expect fail "a wrong answer" 's/"correct":true/"correct":false/'
expect fail "a failed operation" 's/"failed":0,/"failed":3,/'
expect fail "answers differing from the offline pipeline" 's/, 0 differ/, 2 differ/'
expect fail "no result line" '/^{"correct"/d'
for row in hashing.hash_ns_per_key rank.rank_ns_per_offer shard.lane_ns_per_offer \
    server.ingest_binary_allocs_per_offer sketch.builder_admit_ratio; do
    expect fail "missing row $row" "/^$row /d"
done
echo "test_check_bench_regression: every gate fails on its fixture and the measured ledger passes"
