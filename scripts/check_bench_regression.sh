#!/bin/sh
# check_bench_regression.sh — gate the ingest path on in-run ratios.
#
# Usage: sh scripts/check_bench_regression.sh <ingest-experiment-output>
#
# Absolute offers/s differ between CI runners (other CPUs, other core
# counts, noisy neighbours) and would flap. The ingest experiment instead
# measures every layer in one run, on one machine, over one stream, and this
# script gates on ratios between its rows, which are machine-independent:
#
#   1. Lane cost. A lanes=1 row's ns/offer must stay within MAX_LANE_RATIO
#      (2.00) of the hash row's plus the rank row's — the vs_hash+rank
#      column. A lane hashes every key and ranks only what it admits, so it
#      has no business costing twice a hash plus a full rank; the sharded,
#      channel-fed path this replaced ran at about 2.5x. Only the lanes=1
#      rows are gated: rows with more lanes than the runner has cores
#      measure its scheduler.
#   2. Allocations. The http-ingest-binary row's allocs/offer must not
#      exceed its admit_ratio by more than ALLOC_SLACK (0.01): the binary
#      decoder may allocate one string per record a builder is offered, and
#      nothing per pruned record.
#   3. Bit-identity. A "false" anywhere means a frozen sketch or a served
#      answer diverged from the single-stream builder.

set -eu

OUT="${1:?usage: check_bench_regression.sh <ingest-experiment-output>}"
MAX_LANE_RATIO=2.00
ALLOC_SLACK=0.01

if [ ! -f "$OUT" ]; then
    echo "check_bench_regression: no such file: $OUT" >&2
    exit 1
fi

if grep -q "false" "$OUT"; then
    echo "check_bench_regression: a bit-identity column is false in $OUT" >&2
    exit 1
fi

awk -v max="$MAX_LANE_RATIO" -v slack="$ALLOC_SLACK" '
$2 == "lanes" && $3 == "1" {
    lanes++
    ratio = $7
    sub(/x$/, "", ratio)
    if (ratio + 0 > max + 0) {
        printf "check_bench_regression: %s lanes=1 at %sx of hash + rank (ceiling %sx)\n", $1, ratio, max
        bad = 1
    }
}
$1 == "http-ingest-binary" {
    binary++
    if ($3 + 0 > $4 + slack) {
        printf "check_bench_regression: binary /ingest allocates %s per offer with %s admitted (ceiling admitted + %s)\n", $3, $4, slack
        bad = 1
    }
}
END {
    if (lanes == 0 || binary == 0) {
        print "check_bench_regression: no lanes=1 or http-ingest-binary rows found (wrong input file?)"
        exit 1
    }
    if (bad) exit 1
    printf "check_bench_regression: %d lane rows within %sx of hash + rank; binary /ingest allocations within admitted + %s\n", lanes, max, slack
}
' "$OUT"
