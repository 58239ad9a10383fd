#!/usr/bin/env bash
# Lints the /v1/metrics exposition for structural and naming problems, with no
# dependency beyond the repo itself.  Two layers:
#
#   1. internal/obsv/expocheck pipes the payload through
#      obsv.ValidateExposition, which rejects missing # HELP/# TYPE
#      lines, bad metric/label charsets, duplicate series, and torn
#      histograms (non-cumulative buckets, +Inf bucket != _count).
#   2. awk checks the Prometheus naming conventions the parser does not
#      enforce: every family carries the treeqd_ prefix, counters end in
#      _total, and every # HELP has actual help text.
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

echo "promlint: naming conventions"
curl -sf "$URL" | awk '
  /^# HELP / {
    if (NF < 4) { print "promlint: # HELP without help text: " $0; bad = 1 }
    next
  }
  /^# TYPE / {
    fam = $3; type = $4
    if (fam !~ /^treeqd_/) { print "promlint: family without treeqd_ prefix: " fam; bad = 1 }
    if (type == "counter" && fam !~ /_total$/) {
      print "promlint: counter not suffixed _total: " fam; bad = 1
    }
    if (type != "counter" && fam ~ /_total$/) {
      print "promlint: _total suffix on non-counter: " fam; bad = 1
    }
    next
  }
  END { exit bad }
' || { echo "promlint: naming violations found" >&2; exit 1; }

echo "promlint: ok"
