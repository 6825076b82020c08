#!/bin/sh
# check_bench_regression.sh — gate the ingest path on the benchmark's ledger.
#
# Usage: bash bench/run.sh --workload ingest-steady --seed 7 --seconds 20 --trace 1 \
#            | sh scripts/check_bench_regression.sh
#        sh scripts/check_bench_regression.sh <saved-run-output>
#
# Absolute offers/s differ between CI runners (other CPUs, other core
# counts, noisy neighbours) and would flap. A traced benchmark run measures
# every layer in one process, on one machine, over one stream, and this
# script gates on ratios between its `name value unit` ledger rows, which
# are machine-independent:
#
#   1. Lane cost. shard.lane_ns_per_offer must stay within MAX_LANE_RATIO
#      (2.00) of hashing.hash_ns_per_key + rank.rank_ns_per_offer. A lane
#      hashes every key and ranks only what it admits, so it has no business
#      costing twice a hash plus a full rank; the sharded, channel-fed path
#      it replaced ran at about 2.5x.
#   2. Allocations. server.ingest_binary_allocs_per_offer must not exceed
#      sketch.builder_admit_ratio by more than ALLOC_SLACK (0.01): the
#      binary decoder may allocate one string per key run a builder is
#      offered (a key's consecutive records, one per assignment, share
#      one), and nothing per pruned record. With one record per key run
#      that is the admit ratio itself; longer runs sit below it.
#   3. Bit-identity. The run must report "0 differ from the offline
#      pipeline" and end in a result line with "correct":true and
#      "failed":0.
#
# A row or line the script reads but cannot find is a failure, so a renamed
# metric cannot pass vacuously. scripts/test_check_bench_regression.sh
# holds the fixtures that show each gate failing.

set -eu

MAX_LANE_RATIO=2.00
ALLOC_SLACK=0.01

awk -v max="$MAX_LANE_RATIO" -v slack="$ALLOC_SLACK" '
function fail(msg) { print "check_bench_regression: " msg; bad = 1 }
NF >= 3 { row[$1] = $2 }
/^verification: / && / 0 differ from the offline pipeline/ { identical = 1 }
/^\{"correct":/ { result = $0 }
END {
    n = split("hashing.hash_ns_per_key rank.rank_ns_per_offer shard.lane_ns_per_offer server.ingest_binary_allocs_per_offer sketch.builder_admit_ratio", need, " ")
    for (i = 1; i <= n; i++)
        if (!(need[i] in row)) fail("no " need[i] " row (not a --trace 1 run, or the metric was renamed)")
    if (result == "") fail("no result line (the run did not finish)")
    if (bad) exit 1

    if (!identical) fail("the run does not report 0 answers differing from the offline pipeline")
    if (result !~ /^\{"correct":true,/) fail("the result line does not say \"correct\":true")
    if (result !~ /"failed":0,/) fail("the result line does not say \"failed\":0")

    floor = row["hashing.hash_ns_per_key"] + row["rank.rank_ns_per_offer"]
    lane = row["shard.lane_ns_per_offer"]
    if (floor <= 0 || lane > max * floor)
        fail(sprintf("lane at %.2f ns/offer against hash + rank %.2f ns (ceiling %.2fx)", lane, floor, max))
    allocs = row["server.ingest_binary_allocs_per_offer"]
    admit = row["sketch.builder_admit_ratio"]
    if (allocs > admit + slack)
        fail(sprintf("binary /ingest allocates %.4f per offer with %.4f admitted (ceiling admitted + %s)", allocs, admit, slack))
    if (bad) exit 1
    printf "check_bench_regression: lane at %.2fx of hash + rank (ceiling %.2fx); binary /ingest allocations %.4f within admitted %.4f + %s; every answer identical, 0 failed\n", \
        lane / floor, max, allocs, admit, slack
}
' "${1:--}"
