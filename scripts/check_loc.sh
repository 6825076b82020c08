#!/usr/bin/env sh
# Line-count gate: non-test Go outside bench/ (its own module) must stay at
# or under the ceiling ROADMAP item 6 sets. Prints the count either way, and
# beside it, ungated, every Go line outside bench/ with the tests, so that
# code moved into test files does not pass for a saving.
#
# Run from the repository root: sh scripts/check_loc.sh
set -u

ceiling=14957
lines=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.git/*' -exec cat {} + | wc -l | tr -d ' ')
total=$(find . -name '*.go' ! -path './bench/*' ! -path './.git/*' -exec cat {} + | wc -l | tr -d ' ')
echo "non-test Go outside bench/: $lines lines (ceiling $ceiling)"
echo "all Go outside bench/, tests included: $total lines"
if [ "$lines" -gt "$ceiling" ]; then
    echo "check_loc: $lines lines is over the $ceiling-line ceiling (ROADMAP item 6)"
    exit 1
fi
