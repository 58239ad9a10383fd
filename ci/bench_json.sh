#!/usr/bin/env bash
# Runs the full benchmark family with -benchmem -count 3 and records the
# results as machine-readable JSON at the repository root, so the perf
# trajectory accumulates one BENCH_<n>.json per PR.
#
# Usage: ci/bench_json.sh <out.json> [label] [extra go test args...]
#   ci/bench_json.sh BENCH_6.json pr6
#   BENCH_COUNT=1 BENCH_TIME=100ms ci/bench_json.sh /tmp/fresh.json head
#
# Set METRICS_URL to a running treeqd's /v1/metrics endpoint to also record the
# server-side histogram percentiles next to the micro-benchmarks:
#   METRICS_URL=http://localhost:8080/v1/metrics ci/bench_json.sh BENCH_7.json pr7
# writes BENCH_7.metrics.json alongside the benchmark file.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:?usage: ci/bench_json.sh <out.json> [label]}"
label="${2:-$(git rev-parse --short HEAD 2>/dev/null || echo local)}"
count="${BENCH_COUNT:-3}"
benchtime="${BENCH_TIME:-}"

args=(test -run '^$' -bench . -benchmem -count "$count")
if [[ -n "$benchtime" ]]; then
  args+=(-benchtime "$benchtime")
fi

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
echo "bench_json: go ${args[*]} ." >&2
go "${args[@]}" . | tee "$raw" >&2
go run ./cmd/benchjson -label "$label" <"$raw" >"$out"
echo "bench_json: wrote $out ($(grep -c '"name"' "$out") benchmarks)" >&2

if [[ -n "${METRICS_URL:-}" ]]; then
  mout="${out%.json}.metrics.json"
  go run ./cmd/benchjson -metrics-url "$METRICS_URL" -label "$label" >"$mout"
  echo "bench_json: wrote $mout (server-side histogram percentiles)" >&2
fi
