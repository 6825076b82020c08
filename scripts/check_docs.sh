#!/usr/bin/env sh
# Docs gate: the documentation must not drift from the tree.
#
#  1. Every relative markdown link in the top-level docs and docs/ must
#     resolve to a file or directory in the repository.
#  2. Every repository path named in docs/paper-map.md (the paper-to-code
#     map) must exist — the map is only useful while it points at real
#     files.
#  3. While their code exists, DESIGN.md and docs/paper-map.md keep the
#     estimation layer (the Estimator seam, arXiv:0903.0625);
#  3b. DESIGN.md, EXPERIMENTS.md and README.md keep the lane-private
#     builders, the ingest-steady workload and the -lanes quickstart;
#  3c. they keep the scatter-gather cluster (degraded/coverage), the fault
#     injection section, the cluster-scatter workload and -peers;
#  3d. they keep the observability section and the /metrics, ?trace=1 and
#     -pprof quickstart.
#  4. Runnable doc examples must be gofmt-clean (they render verbatim in
#     godoc).
#
# Run from the repository root: sh scripts/check_docs.sh
set -u

fail=0

# --- 1. relative markdown links ---
for doc in README.md DESIGN.md EXPERIMENTS.md PAPER.md ROADMAP.md CHANGES.md docs/*.md; do
    [ -f "$doc" ] || continue
    dir=$(dirname "$doc")
    # Extract (target) parts of [text](target) links; ignore URLs/anchors.
    for target in $(grep -o '](\([^)]*\))' "$doc" | sed 's/^](//; s/)$//'); do
        case "$target" in
        http://*|https://*|\#*|mailto:*) continue ;;
        esac
        path="${target%%#*}"
        [ -n "$path" ] || continue
        if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
            echo "$doc: broken link -> $target"
            fail=1
        fi
    done
done

# --- 2. paper-map file references ---
if [ -f docs/paper-map.md ]; then
    for path in $(grep -o '`[a-z][a-zA-Z0-9_/.-]*\.\(go\|md\)`' docs/paper-map.md | tr -d '\`' | sort -u); do
        if [ ! -f "$path" ]; then
            echo "docs/paper-map.md: references missing file $path"
            fail=1
        fi
    done
else
    echo "docs/paper-map.md is missing"
    fail=1
fi

# --- 3. estimation-layer docs exist ---
# The estimator seam is a load-bearing refactor surface: DESIGN.md must
# keep its "Estimation layer" section, and the paper map must keep its
# discarded-samples (arXiv:0903.0625) entries, as long as the code exists.
if [ -f internal/estimate/estimator.go ]; then
    if ! grep -q "Estimation layer" DESIGN.md; then
        echo "DESIGN.md: missing the 'Estimation layer' section for internal/estimate's Estimator seam"
        fail=1
    fi
    if ! grep -q "0903.0625" docs/paper-map.md; then
        echo "docs/paper-map.md: missing the discarded-samples (arXiv:0903.0625) section"
        fail=1
    fi
fi

# --- 3b. scaling-layer docs exist ---
# The lane/parallel-freeze machinery is easy to regress silently in docs:
# as long as the lane code exists, DESIGN.md must keep the lane-private
# builders section with its exactness argument, EXPERIMENTS.md must name
# the benchmark workload that measures it (ingest-steady), and README.md
# must show the -lanes quickstart.
if [ -f internal/shard/parallel.go ]; then
    if ! grep -qi "lane-private" DESIGN.md || ! grep -q "shared admission threshold" DESIGN.md; then
        echo "DESIGN.md: missing the lane-private builders / shared admission threshold section for internal/shard"
        fail=1
    fi
    if ! grep -q '`ingest-steady`' EXPERIMENTS.md; then
        echo "EXPERIMENTS.md: missing the ingest-steady benchmark workload"
        fail=1
    fi
    if ! grep -q '\-lanes' README.md; then
        echo "README.md: missing the -lanes scaling quickstart"
        fail=1
    fi
fi

# --- 3c. cluster-layer docs exist ---
# The scatter-gather cluster and the fault-injection substrate carry
# user-facing semantics (degraded/coverage, -faults) that must not drift
# from the docs: as long as the code exists, DESIGN.md must keep the
# cluster and fault-injection sections, EXPERIMENTS.md must name the
# benchmark workload that measures it (cluster-scatter), and README.md
# must show the -peers scale-out quickstart.
if [ -f internal/cluster/cluster.go ]; then
    if ! grep -qi "scatter-gather cluster" DESIGN.md; then
        echo "DESIGN.md: missing the scatter-gather cluster section for internal/cluster"
        fail=1
    fi
    if ! grep -q "degraded" DESIGN.md || ! grep -q "coverage" DESIGN.md; then
        echo "DESIGN.md: cluster section must document the degraded/coverage response semantics"
        fail=1
    fi
    if ! grep -q '`cluster-scatter`' EXPERIMENTS.md; then
        echo "EXPERIMENTS.md: missing the cluster-scatter benchmark workload"
        fail=1
    fi
    if ! grep -q '\-peers' README.md; then
        echo "README.md: missing the -peers scale-out quickstart"
        fail=1
    fi
fi
if [ -f internal/faults/faults.go ]; then
    if ! grep -qi "fault injection" DESIGN.md; then
        echo "DESIGN.md: missing the fault-injection section for internal/faults"
        fail=1
    fi
fi

# --- 3d. observability docs exist ---
# The observability layer carries user-facing surfaces (/metrics,
# ?trace=1, /debug/traces, -log-format, -pprof) that must not drift from
# the docs: as long as internal/obs exists, DESIGN.md must keep the
# Observability section (histogram design, trace span model, metric
# naming) and README.md must keep the metrics/tracing quickstart.
if [ -f internal/obs/histogram.go ]; then
    if ! grep -q "## 8d. Observability" DESIGN.md; then
        echo "DESIGN.md: missing the Observability section for internal/obs"
        fail=1
    fi
    for topic in "Histogram design" "Metric naming" "Trace span model"; do
        if ! grep -q "$topic" DESIGN.md; then
            echo "DESIGN.md: Observability section must document '$topic'"
            fail=1
        fi
    done
    if ! grep -q "/metrics" README.md || ! grep -q "trace=1" README.md; then
        echo "README.md: missing the /metrics + ?trace=1 observability quickstart"
        fail=1
    fi
    if ! grep -q '\-pprof' README.md; then
        echo "README.md: missing the -pprof opt-in profiling mention"
        fail=1
    fi
fi

# --- 4. doc examples are gofmt-clean ---
examples=$(gofmt -l example*_test.go 2>/dev/null)
if [ -n "$examples" ]; then
    echo "gofmt needed on doc examples: $examples"
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "docs gate FAILED"
    exit 1
fi
echo "docs gate OK"
