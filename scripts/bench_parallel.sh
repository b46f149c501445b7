#!/bin/sh
# bench_parallel.sh — measure the partitioned-execution speedup on the
# current host and report it against its target.
#
# Config.Tenants / Config.Shards run one simulation sharded across
# broker-coupled cells (BenchmarkFig3_Sharded). Target: >=1.5x
# wall-clock at 2 shards vs 1 shard on a multi-core host; the ratio at
# 4 shards is printed as well.
#
# Shards is a pure execution knob — every variant simulates
# bit-identically (pinned by TestShardedConformance) — so wall-clock
# ratios are the whole story. On a single-CPU host (GOMAXPROCS=1)
# worker goroutines serialize and the target cannot physically
# manifest; the script still runs and prints the algorithmic-overhead
# numbers, but flags the host as unable to show parallelism. Run from
# the repo root:
#
#   scripts/bench_parallel.sh [benchtime]
#
# benchtime defaults to 3x (three runs per variant; pass e.g. 10x or
# 2s for tighter numbers on a quiet machine).
set -eu
cd "$(dirname "$0")/.."
BT="${1:-3x}"

NCPU="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo '?')"
echo "host: $(uname -sm), CPUs=${NCPU}, GOMAXPROCS=${GOMAXPROCS:-unset}, go $(go env GOVERSION)"
if [ "${GOMAXPROCS:-$NCPU}" = "1" ]; then
    echo "WARNING: GOMAXPROCS=1 — workers serialize; the parallel speedup target"
    echo "cannot manifest on this host. Numbers below measure overhead only."
fi
echo

echo "== coordinator window (must stay 0 allocs/op) =="
go test ./internal/sim -run '^$' -bench 'BenchmarkCoordinatorWindow' -benchmem -benchtime "$BT" | grep Benchmark || true
echo

echo "== multi-tenant sharding (target: shards=2 >= 1.5x shards=1) =="
go test -run '^$' -bench 'BenchmarkFig3_Sharded' -benchtime "$BT" . | tee /tmp/bench_sharded.$$ | grep Benchmark || true
echo

# On multi-core hosts Go appends -GOMAXPROCS to benchmark names
# (shards=1-2), so match the shard count with or without that suffix.
awk '
$1 ~ /^BenchmarkFig3_Sharded\/shards=1(-[0-9]+)?$/ { s1 = $3 }
$1 ~ /^BenchmarkFig3_Sharded\/shards=2(-[0-9]+)?$/ { s2 = $3 }
$1 ~ /^BenchmarkFig3_Sharded\/shards=4(-[0-9]+)?$/ { s4 = $3 }
END {
    if (s1 > 0 && s2 > 0)
        printf "speedup at 2 shards: %.2fx (target >= 1.5x on multi-core)\n", s1 / s2
    if (s1 > 0 && s4 > 0)
        printf "speedup at 4 shards: %.2fx\n", s1 / s4
}' /tmp/bench_sharded.$$
rm -f /tmp/bench_sharded.$$
