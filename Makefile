GO ?= go

.PHONY: build test race bench bench-store bench-crawl bench-serve bench-fingerprint bench-bundle check fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-store runs the store-read / fingerprint-memo ablations with
# -benchmem and appends machine-readable results to BENCH_store.json
# (longer measurement: make bench-store BENCHTIME=2s).
bench-store:
	BENCHTIME=$(BENCHTIME) sh scripts/bench_store.sh

# bench-crawl runs the crawl-path throughput ablations (plain vs polite
# resilience layer, plus the distributed plane at 1/2/4 workers) and
# appends fetch-latency/throughput numbers to BENCH_crawl.json (longer
# measurement: make bench-crawl BENCHTIME=2s).
bench-crawl:
	BENCHTIME=$(BENCHTIME) sh scripts/bench_crawl.sh

# bench-serve runs the audit-service load test (cold vs warm response
# cache, closed-loop clients) and appends req/s + p50/p99 audit latency to
# BENCH_serve.json (longer measurement: make bench-serve BENCHTIME=2s).
bench-serve:
	BENCHTIME=$(BENCHTIME) sh scripts/bench_serve.sh

# bench-fingerprint runs the signature-scanner ablations (scan throughput
# over plain/bundled/minified bodies, cold scan vs scan-cache hit) and
# appends machine-readable results to BENCH_fingerprint.json (longer
# measurement: make bench-fingerprint BENCHTIME=2s).
bench-fingerprint:
	BENCHTIME=$(BENCHTIME) sh scripts/bench_fingerprint.sh

# bench-bundle runs the record/replay ablation (plain vs recording crawl,
# plus the zero-network replay crawl) with -benchmem and appends results
# to BENCH_bundle.json (longer measurement: make bench-bundle BENCHTIME=2s).
bench-bundle:
	BENCHTIME=$(BENCHTIME) sh scripts/bench_bundle.sh

# check is the full verification gate: vet + build + race tests + short
# fuzz smoke runs (FUZZTIME=3s by default; override: make check FUZZTIME=30s).
check:
	FUZZTIME=$(FUZZTIME) sh scripts/check.sh

# fuzz-smoke runs every fuzz target for FUZZTIME each (3s by default; the
# target list lives in scripts/fuzz_smoke.sh).
fuzz-smoke:
	FUZZTIME=$(FUZZTIME) sh scripts/fuzz_smoke.sh
