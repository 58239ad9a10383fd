#!/usr/bin/env bash
# Lints a live /v1/metrics exposition for structural problems, with no
# dependency beyond the repo itself: internal/obsv/expocheck pipes the
# payload through obsv.ValidateExposition, which rejects missing # HELP/# TYPE
# lines, bad metric/label charsets, duplicate series, and torn histograms
# (non-cumulative buckets, +Inf bucket != _count).  The naming rules (the
# treeqd_ prefix, _total exactly on counters, non-empty help, allowlisted
# labels) are checked where each family registers: obsv.Registry panics on a
# family that breaks one, so treeqd would not have started.
#
# Usage: ci/promlint.sh [metrics-url]
#   With no argument it starts a scratch treeqd on :18090, loads the example
#   corpus, runs one query to populate the histograms, and lints that.
set -euo pipefail
cd "$(dirname "$0")/.."

URL="${1:-}"
if [[ -z "$URL" ]]; then
  ADDR="127.0.0.1:18090"
  URL="http://$ADDR/v1/metrics"
  go build -o /tmp/treeqd-promlint ./cmd/treeqd
  /tmp/treeqd-promlint -addr "$ADDR" -access-log=false &
  PROMLINT_PID=$!
  trap 'kill "$PROMLINT_PID" 2>/dev/null || true' EXIT
  for i in $(seq 1 50); do
    if curl -sf "http://$ADDR/v1/healthz" >/dev/null; then break; fi
    [ "$i" = 50 ] && { echo "promlint: treeqd never became healthy" >&2; exit 1; }
    sleep 0.1
  done
  curl -sf -X PUT --data-binary @examples/corpus/docs/auctions.xml "http://$ADDR/v1/docs/a.xml" >/dev/null
  curl -sf -X POST -d '{"doc":"a.xml","lang":"xpath","query":"//keyword"}' "http://$ADDR/v1/query" >/dev/null
fi

echo "promlint: structural validation of $URL"
curl -sf "$URL" | go run ./internal/obsv/expocheck

echo "promlint: ok"
