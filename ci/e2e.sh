#!/usr/bin/env bash
# End-to-end smoke test for the treeqd HTTP front-end: start the server,
# load the example corpus over HTTP, run one query per language, and assert
# on the JSON responses and on treeqd's access log (its stderr).  Needs: go,
# curl, python3 (for JSON assertions).
set -euo pipefail

cd "$(dirname "$0")/.."
ADDR="127.0.0.1:18080"
BASE="http://$ADDR"

go build -o /tmp/treeqd ./cmd/treeqd
LOG="$(mktemp)"
/tmp/treeqd -addr "$ADDR" -max-inflight 16 -load examples/corpus/docs 2>"$LOG" &
TREEQD_PID=$!
trap 'status=$?; kill "$TREEQD_PID" 2>/dev/null || true; [ "$status" = 0 ] || tail -n 20 "$LOG" >&2; rm -f "$LOG"' EXIT

for i in $(seq 1 50); do
  if curl -sf "$BASE/v1/healthz" >/dev/null; then break; fi
  [ "$i" = 50 ] && { echo "treeqd never became healthy" >&2; exit 1; }
  sleep 0.1
done

# assert_json URL_RESPONSE PYTHON_EXPR — feeds the response to python3 and
# fails unless the expression over the parsed body `r` is truthy.
assert_json() {
  local resp="$1" expr="$2"
  echo "$resp" | python3 -c "
import json, sys
r = json.load(sys.stdin)
if not ($expr):
    print('assertion failed on response:', r, file=sys.stderr)
    sys.exit(1)
"
}

echo "== corpus preloaded from disk via treeqd -load"
resp="$(curl -sf "$BASE/v1/docs")"
assert_json "$resp" "r['count'] == 3 and r['docs'] == sorted(r['docs'])"

echo "== xpath: single-document query"
resp="$(curl -sf -X POST -d '{"doc":"auctions.xml","lang":"xpath","query":"//item/description//keyword","plan":true}' "$BASE/v1/query")"
assert_json "$resp" "r['total'] == 4 and len(r['results']) == 4 and 'set-at-a-time' in r['plan']['technique']"

echo "== cq: answer tuples"
resp="$(curl -sf -X POST -d '{"doc":"coins.xml","lang":"cq","query":"Q(i, k) :- Lab[item](i), Child+(i, k), Lab[keyword](k)."}' "$BASE/v1/query")"
assert_json "$resp" "r['total'] == 5 and len(r['results'][0]['answer']) == 2"

echo "== twig: //-rooted XPath through the holistic route"
resp="$(curl -sf -X POST -d '{"doc":"coins.xml","lang":"twig","query":"//item[name]"}' "$BASE/v1/query")"
assert_json "$resp" "r['total'] == 3"

echo "== datalog: keyword-reachability program"
resp="$(curl -sf -X POST -d '{"doc":"books.xml","lang":"datalog","query":"P0(x) :- Lab[keyword](x).\nP0(x) :- NextSibling(x, y), P0(y).\nP(x) :- FirstChild(x, y), P0(y).\nP0(x) :- P(x).\n?- P."}' "$BASE/v1/query")"
assert_json "$resp" "r['total'] == 4"

echo "== stream: a streamable path, run set-at-a-time on the stored document"
resp="$(curl -sf -X POST -d '{"doc":"auctions.xml","lang":"stream","query":"//item//keyword","plan":true}' "$BASE/v1/query")"
assert_json "$resp" "r['total'] == 4 and r['plan']['language'] == 'stream' and 'set-at-a-time evaluation' in r['plan']['technique']"

echo "== similar: ranked top-k through the /v1 envelope"
resp="$(curl -sf -X POST -d '{"doc":"auctions.xml","lang":"similar","query":"k=3 description(keyword)","plan":true}' "$BASE/v1/query")"
assert_json "$resp" "r['version'] == 'v1' and len(r['request_id']) == 16 and len(r['results']) == 3"
assert_json "$resp" "[e['score'] for e in r['results']] == sorted(e['score'] for e in r['results'])"
assert_json "$resp" "r['results'][0]['doc'] == 'auctions.xml' and r['results'][0]['doc_version'] == 1"
assert_json "$resp" "r['plan']['language'] == 'similar'"

echo "== similar: corpus-wide ranked merge stays globally ordered"
resp="$(curl -sf -X POST -d '{"lang":"similar","query":"k=2 description(keyword)","limit":4}' "$BASE/v1/corpus/query")"
assert_json "$resp" "r['docs'] == 3 and r['version'] == 'v1' and r['truncated'] and len(r['results']) == 4"
assert_json "$resp" "[e['score'] for e in r['results']] == sorted(e['score'] for e in r['results'])"

echo "== errors: the stable code enum and the request ID"
resp="$(curl -s -X POST -d '{"doc":"nope.xml","lang":"xpath","query":"//a"}' "$BASE/v1/query")"
assert_json "$resp" "r['error'] and r['code'] == 'not_found' and len(r['request_id']) == 16"
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{"doc":"nope.xml","lang":"xpath","query":"//a"}' "$BASE/v1/query")"
[ "$code" = 404 ] || { echo "unknown document answered $code, want 404" >&2; exit 1; }
code="$(curl -s -o /dev/null -w '%{http_code}' "$BASE/healthz")"
[ "$code" = 404 ] || { echo "unversioned /healthz answered $code, want 404" >&2; exit 1; }

echo "== corpus-wide aggregated query with a limit"
resp="$(curl -sf -X POST -d '{"lang":"xpath","query":"//keyword","limit":5}' "$BASE/v1/corpus/query")"
assert_json "$resp" "r['docs'] == 3 and r['total'] == 12 and r['truncated'] and len(r['results']) == 5"
assert_json "$resp" "[e['doc'] for e in r['results']] == sorted(e['doc'] for e in r['results'])"

echo "== prepared query lifecycle"
resp="$(curl -sf -X POST -d '{"doc":"auctions.xml","lang":"xpath","query":"//keyword"}' "$BASE/v1/prepared")"
assert_json "$resp" "r['id']"
PID_Q="$(echo "$resp" | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')"
resp="$(curl -sf -X POST "$BASE/v1/prepared/$PID_Q")"
assert_json "$resp" "r['total'] == 4 and r['id'] == '$PID_Q'"

echo "== deadline propagation: an expired budget turns into per-doc failures"
# A large generated document (~300k nodes) makes one datalog execution — a
# label-mask scan plus a unit propagation over every node — far exceed the
# 1ms request budget, so that document deterministically reports a deadline
# failure, raised at one of the solver's ctx checkpoints, while the fan-out
# still returns (partial-failure semantics).
go build -o /tmp/treegen ./cmd/treegen
/tmp/treegen -shape site -items 20000 > /tmp/e2e-big.xml
resp="$(curl -sf -X PUT --data-binary @/tmp/e2e-big.xml "$BASE/v1/docs/big.xml")"
assert_json "$resp" "r['doc'] == 'big.xml'"
resp="$(curl -sf -X POST -d '{"lang":"datalog","query":"P0(x) :- Lab[keyword](x).\nP0(x) :- NextSibling(x, y), P0(y).\nP(x) :- FirstChild(x, y), P0(y).\nP0(x) :- P(x).\n?- P.","timeout_ms":1}' "$BASE/v1/corpus/query")"
assert_json "$resp" "r['docs'] == 4"
assert_json "$resp" "any(f['doc'] == 'big.xml' and 'deadline' in f['error'] and 'request_id=' + r['request_id'] in f['error'] for f in r.get('failed', []))"
resp="$(curl -sf -X DELETE "$BASE/v1/docs/big.xml")"
assert_json "$resp" "r['docs'] == 3"

echo "== live document update: PUT on a live name bumps the version and compiles nothing"
# v1 of a small document: 2 keywords.
resp="$(curl -sf -X PUT --data-binary '<site><item><name>a</name><description><keyword>k1</keyword><keyword>k2</keyword></description></item></site>' "$BASE/v1/docs/upd.xml")"
assert_json "$resp" "r['doc'] == 'upd.xml' and r['version'] == 1"
resp="$(curl -sf -X POST -d '{"doc":"upd.xml","lang":"xpath","query":"//keyword"}' "$BASE/v1/query")"
assert_json "$resp" "r['total'] == 2 and r['results'][0]['doc_version'] == 1"
# Register a prepared query while the document is at v1.
resp="$(curl -sf -X POST -d '{"doc":"upd.xml","lang":"xpath","query":"//keyword"}' "$BASE/v1/prepared")"
PID_U="$(echo "$resp" | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')"
misses="$(curl -sf "$BASE/v1/statusz" | python3 -c 'import json,sys; print(json.load(sys.stdin)["service"]["plan_cache_misses"])')"
hits="$(curl -sf "$BASE/v1/statusz" | python3 -c 'import json,sys; print(json.load(sys.stdin)["service"]["plan_cache_hits"])')"
# v2: 3 keywords.  The PUT updates in place (200, version 2).
resp="$(curl -sf -X PUT --data-binary '<site><item><name>a</name><description><keyword>k1</keyword><keyword>k2</keyword><keyword>k3</keyword></description></item></site>' "$BASE/v1/docs/upd.xml")"
assert_json "$resp" "r['doc'] == 'upd.xml' and r['version'] == 2"
resp="$(curl -sf "$BASE/v1/statusz")"
assert_json "$resp" "r['service']['plan_cache_misses'] == $misses"
# New results, new version — and the same text hits the cached plan.
resp="$(curl -sf -X POST -d '{"doc":"upd.xml","lang":"xpath","query":"//keyword"}' "$BASE/v1/query")"
assert_json "$resp" "r['total'] == 3 and r['results'][0]['doc_version'] == 2"
resp="$(curl -sf "$BASE/v1/statusz")"
assert_json "$resp" "r['service']['plan_cache_misses'] == $misses and r['service']['plan_cache_hits'] == $hits + 1"
# The registered prepared query answers the new version.
resp="$(curl -sf -X POST "$BASE/v1/prepared/$PID_U")"
assert_json "$resp" "r['total'] == 3 and r['results'][0]['doc_version'] == 2"
# The swap shows up in /v1/statusz: an update, carried plans, bumped version.
resp="$(curl -sf "$BASE/v1/statusz")"
assert_json "$resp" "r['service']['updates'] == 1 and r['updates']['plans_carried'] >= 1"
assert_json "$resp" "r['service']['doc_versions']['upd.xml'] == 2 and 'reprepare' not in r['updates']['phase_totals_ns']"

echo "== a malformed character reference is a 400 and leaves the version as it was"
code="$(curl -s -o /tmp/e2e-charref.json -w '%{http_code}' -X PUT --data-binary '<site><item><name>&#65abc;</name></item></site>' "$BASE/v1/docs/upd.xml")"
[ "$code" = 400 ] || { echo "PUT with &#65abc; answered $code, want 400" >&2; exit 1; }
assert_json "$(cat /tmp/e2e-charref.json)" "r['code'] == 'bad_request' and 'character reference' in r['error']"
resp="$(curl -sf "$BASE/v1/statusz")"
assert_json "$resp" "r['service']['doc_versions']['upd.xml'] == 2"

echo "== a label no version carried: the PUT bumps the version and //thatlabel answers the node"
# The third keyword (node 6 in preorder) becomes <neverseen>: the body is
# parsed against v2's label dictionary, which gains the new label's code.
resp="$(curl -sf -X PUT --data-binary '<site><item><name>a</name><description><keyword>k1</keyword><keyword>k2</keyword><neverseen>k3</neverseen></description></item></site>' "$BASE/v1/docs/upd.xml")"
assert_json "$resp" "r['doc'] == 'upd.xml' and r['version'] == 3"
resp="$(curl -sf -X POST -d '{"doc":"upd.xml","lang":"xpath","query":"//neverseen"}' "$BASE/v1/query")"
assert_json "$resp" "r['total'] == 1 and r['results'][0]['node'] == 6 and r['results'][0]['doc_version'] == 3"
resp="$(curl -sf -X DELETE "$BASE/v1/docs/upd.xml")"
assert_json "$resp" "r['docs'] == 3"

echo "== multi-labeled document: attribute labels ride the indexed fast path"
# treegen -shape site emits @id/@name attribute labels, so every node with an
# attribute is multi-labeled; the default routes serve it from label masks
# (which hold every label of a node) and the preorder-rank view.  The index
# keeps no XASR, side relation or pair relation, and /v1/statusz reports none.
/tmp/treegen -shape site -items 50 > /tmp/e2e-multi.xml
resp="$(curl -sf -X PUT --data-binary @/tmp/e2e-multi.xml "$BASE/v1/docs/multi.xml")"
assert_json "$resp" "r['doc'] == 'multi.xml'"
resp="$(curl -sf -X POST -d '{"doc":"multi.xml","lang":"xpath","query":"//item/name","plan":true}' "$BASE/v1/query")"
assert_json "$resp" "r['total'] == 50"
resp="$(curl -sf -X POST -d '{"doc":"multi.xml","lang":"cq","query":"Q(i) :- Lab[item](i), Child+(i, k), Lab[keyword](k)."}' "$BASE/v1/query")"
assert_json "$resp" "r['total'] >= 1"
resp="$(curl -sf "$BASE/v1/statusz")"
assert_json "$resp" "r['index']['multi_labeled_docs'] >= 1"
assert_json "$resp" "r['index']['label_mask_builds'] >= 1"
assert_json "$resp" "not {'xasr_builds', 'label_row_builds', 'pair_builds'} & set(r['index'])"
resp="$(curl -sf -X DELETE "$BASE/v1/docs/multi.xml")"
assert_json "$resp" "r['docs'] == 3"

echo "== request IDs: every response is stamped, client IDs are echoed"
rid="$(curl -sf -D - -o /dev/null "$BASE/v1/healthz" | tr -d '\r' | awk -F': ' 'tolower($1)=="x-request-id"{print $2}')"
[ -n "$rid" ] || { echo "healthz response missing X-Request-ID" >&2; exit 1; }
rid="$(curl -sf -D - -o /dev/null -H 'X-Request-ID: e2e-test-id-1' "$BASE/v1/statusz" | tr -d '\r' | awk -F': ' 'tolower($1)=="x-request-id"{print $2}')"
[ "$rid" = "e2e-test-id-1" ] || { echo "client X-Request-ID not echoed (got '$rid')" >&2; exit 1; }

echo "== ?debug=timings echoes per-stage spans"
resp="$(curl -sf -X POST -d '{"doc":"auctions.xml","lang":"xpath","query":"//keyword"}' "$BASE/v1/query?debug=timings")"
assert_json "$resp" "r['total'] == 4 and len(r['timings']['request_id']) > 0"
assert_json "$resp" "{s['stage'] for s in r['timings']['stages']} >= {'gate', 'plan', 'exec'}"

echo "== /v1/metrics: well-formed exposition with non-zero core families"
metrics="$(curl -sf "$BASE/v1/metrics")"
ctype="$(curl -sf -D - -o /dev/null "$BASE/v1/metrics" | tr -d '\r' | awk -F': ' 'tolower($1)=="content-type"{print $2}')"
case "$ctype" in text/plain*version=0.0.4*) ;; *) echo "bad /v1/metrics Content-Type: $ctype" >&2; exit 1;; esac
echo "$metrics" | python3 -c "
import sys
text = sys.stdin.read()
samples = {}
for line in text.splitlines():
    if not line or line.startswith('#'):
        continue
    key, _, val = line.rpartition(' ')
    samples[key] = float(val)

def nonzero(prefix):
    total = sum(v for k, v in samples.items() if k.startswith(prefix))
    if total <= 0:
        print('metrics family %r has no non-zero samples' % prefix, file=sys.stderr)
        sys.exit(1)

# Query and prepare histograms saw real observations on both layers.
nonzero('treeqd_query_duration_seconds_count{lang=\"xpath\",route=\"query\"')
nonzero('treeqd_query_duration_seconds_count{lang=\"datalog\"')
nonzero('treeqd_query_duration_seconds_count{lang=\"xpath\",route=\"corpus\"')
nonzero('treeqd_prepare_duration_seconds_count{lang=\"xpath\",phase=\"build\"')
nonzero('treeqd_prepare_duration_seconds_count{lang=\"datalog\",phase=\"compile\"')
nonzero('treeqd_corpus_fanout_docs_count')
# Cache, pool, update, and gate families are present with live values.
nonzero('treeqd_http_requests_total{handler=\"query\",code=\"200\"}')
nonzero('treeqd_plan_cache_hits_total')
nonzero('treeqd_plan_cache_size')
nonzero('treeqd_pool_hits_total{pool=\"bitset\"}')
nonzero('treeqd_update_plans_carried_total')
nonzero('treeqd_retry_after_seconds')
nonzero('treeqd_corpus_docs')
nonzero('treeqd_uptime_seconds')
print('metrics: %d samples across %d families ok'
      % (len(samples), len({k.split('{')[0] for k in samples})))
"

echo "== promlint: structural well-formedness of the exposition"
./ci/promlint.sh "$BASE/v1/metrics"

echo "== the surfaces agree: /v1/statusz and /v1/metrics render the same rows"
# No request between the two reads moves these counters (a statusz or
# metrics read counts only in server.requests).
status="$(curl -sf "$BASE/v1/statusz")"
metrics="$(curl -sf "$BASE/v1/metrics")"
python3 - "$status" "$metrics" <<'PY'
import json, sys
status, text = json.loads(sys.argv[1]), sys.argv[2]
samples = {}
for line in text.splitlines():
    if line and not line.startswith('#'):
        key, _, val = line.rpartition(' ')
        samples[key] = float(val)
bad = 0
for section, key, family in [('service', 'plan_cache_hits', 'treeqd_plan_cache_hits_total'),
                             ('service', 'queries', 'treeqd_queries_total'),
                             ('updates', 'plans_carried', 'treeqd_update_plans_carried_total')]:
    if status[section][key] != samples.get(family):
        print('statusz %s.%s = %s but %s = %s' % (section, key, status[section][key], family, samples.get(family)), file=sys.stderr)
        bad = 1
for gone in ['treeqd_update_phase_seconds_total', 'pool="relstore_side"']:
    if gone in text:
        print('/v1/metrics still exports %s' % gone, file=sys.stderr)
        bad = 1
sys.exit(bad)
PY

echo "== statusz accounting"
resp="$(curl -sf "$BASE/v1/statusz")"
assert_json "$resp" "r['service']['docs'] == 3 and r['service']['queries'] >= 7 and r['server']['requests'] >= 10"

echo "== document removal"
resp="$(curl -sf -X DELETE "$BASE/v1/docs/books.xml")"
assert_json "$resp" "r['docs'] == 2"
curl -s -o /dev/null -w '%{http_code}' -X DELETE "$BASE/v1/docs/books.xml" | grep -q 404

echo "== access log: one JSON line per request, keys in a fixed order"
curl -sf -H 'X-Request-ID: e2e-access' -X POST -d '{"doc":"auctions.xml","lang":"xpath","query":"//keyword"}' "$BASE/v1/query" >/dev/null
python3 - "$LOG" <<'PY'
import json, sys
keys = ['time', 'level', 'msg', 'method', 'path', 'handler', 'status', 'bytes', 'duration_ms', 'request_id']
lines, tagged = 0, []
for line in open(sys.argv[1]):
    if '"msg":"request"' not in line:
        continue
    try:
        pairs = json.loads(line, object_pairs_hook=lambda p: p)
    except ValueError as e:
        sys.exit('access-log line does not decode (%s): %r' % (e, line))
    if [k for k, _ in pairs] != keys:
        sys.exit('access-log keys %s, want %s' % ([k for k, _ in pairs], keys))
    r = dict(pairs)
    lines += 1
    if r['request_id'] == 'e2e-access':
        tagged.append(r)
if lines < 30:
    sys.exit('only %d access-log lines' % lines)
if len(tagged) != 1 or tagged[0]['handler'] != 'query' or tagged[0]['status'] != 200:
    sys.exit('access-log lines for X-Request-ID e2e-access: %s' % tagged)
print('access log: %d request lines ok' % lines)
PY

echo "e2e: all assertions passed"
