#!/bin/sh
# Store/fingerprint perf ablations: runs BenchmarkStoreReadSegments,
# BenchmarkStoreDecodeSegment (per-segment replay cost vs segment count),
# BenchmarkStoreWrite (the per-week fsync durability tax and archive size
# of the v3 single file and segmented store — the only observation format
# written; earlier v1/v2 lines in BENCH_store.json are history), and
# BenchmarkFingerprintMemo with -benchmem and appends one JSON line per
# benchmark result to BENCH_store.json, so perf PRs accumulate a
# machine-readable before/after record. Each line carries
# goos/goarch/numcpu so results from different hosts stay comparable.
# Override the measurement budget with BENCHTIME (default 1x, the smoke
# setting scripts/check.sh uses).
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1x}"
OUT="${OUT:-BENCH_store.json}"

goos=$(go env GOOS)
goarch=$(go env GOARCH)
numcpu=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

raw=$(go test -run '^$' -bench 'BenchmarkStoreReadSegments|BenchmarkStoreDecodeSegment|BenchmarkStoreWrite|BenchmarkFingerprintMemo' \
	-benchmem -benchtime "$BENCHTIME" .)
printf '%s\n' "$raw"

ts=$(date -u +%Y-%m-%dT%H:%M:%SZ)
printf '%s\n' "$raw" | awk -v ts="$ts" -v benchtime="$BENCHTIME" \
	-v goos="$goos" -v goarch="$goarch" -v numcpu="$numcpu" '
/^Benchmark/ {
	name = $1; iters = $2
	ns = bytes = allocs = mbs = archive = ""
	for (i = 3; i <= NF; i++) {
		if ($i == "ns/op") ns = $(i - 1)
		else if ($i == "B/op") bytes = $(i - 1)
		else if ($i == "allocs/op") allocs = $(i - 1)
		else if ($i == "MB/s") mbs = $(i - 1)
		else if ($i == "archive-bytes") archive = $(i - 1)
	}
	line = sprintf("{\"ts\":\"%s\",\"benchtime\":\"%s\",\"goos\":\"%s\",\"goarch\":\"%s\",\"numcpu\":%s,\"bench\":\"%s\",\"iters\":%s,\"ns_per_op\":%s",
		ts, benchtime, goos, goarch, numcpu, name, iters, ns)
	if (bytes != "")   line = line sprintf(",\"bytes_per_op\":%s", bytes)
	if (allocs != "")  line = line sprintf(",\"allocs_per_op\":%s", allocs)
	if (mbs != "")     line = line sprintf(",\"mb_per_s\":%s", mbs)
	if (archive != "") line = line sprintf(",\"archive_bytes\":%s", archive)
	print line "}"
}' >> "$OUT"

echo "appended results to $OUT"
