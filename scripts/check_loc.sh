#!/usr/bin/env sh
# Line-count gate: non-test Go outside bench/ (its own module) must stay at
# or under the ceiling ROADMAP item 6 sets. Prints the count either way.
#
# Run from the repository root: sh scripts/check_loc.sh
set -u

ceiling=16000
lines=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.git/*' -exec cat {} + | wc -l | tr -d ' ')
echo "non-test Go outside bench/: $lines lines (ceiling $ceiling)"
if [ "$lines" -gt "$ceiling" ]; then
    echo "check_loc: $lines lines is over the $ceiling-line ceiling (ROADMAP item 6)"
    exit 1
fi
