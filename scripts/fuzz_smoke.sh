#!/bin/sh
# Budgeted fuzz smoke runs of every fuzz target: FUZZTIME each (default
# 3s), enough to catch shallow regressions on every change without turning
# CI into a fuzzing farm. The one list of targets: `make fuzz-smoke` and
# scripts/check.sh both run this script. Run from anywhere.
set -eu

cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-3s}"
echo "==> fuzz smoke (${FUZZTIME} per target)"
fuzz() { go test -run '^$' -fuzz "^$1\$" -fuzztime "$FUZZTIME" "$2"; }
fuzz FuzzTokenize ./internal/htmlx
fuzz FuzzParseVersion ./internal/semver
fuzz FuzzRange ./internal/semver
fuzz FuzzAuditHandler ./internal/service
fuzz FuzzSignatureScan ./internal/fingerprint
fuzz FuzzStoreDecode ./internal/store
