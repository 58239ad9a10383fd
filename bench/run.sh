#!/usr/bin/env bash
# The treeqd benchmark in one command: build treeqd and treeload from this
# checkout, then run one workload or, when no -workload is given, all five.
# Every argument is passed to treeload, so the benchmark contract's
#
#     bash bench/run.sh --workload point_hot --seed 1 --seconds 16 --trace 0
#
# works as it stands.  Each run prints "name value unit" lines and, last, one
# JSON object {correct, attempted, failed, metrics}; the same object is kept
# in bench/out/<workload>.end_to_end.json (per_layer.json with --trace 1).
# See bench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
out=bench/out
mkdir -p "$out/tmp"

# Whatever the build writes stays inside the checkout.
export GOCACHE="$PWD/$out/gocache" GOMODCACHE="$PWD/$out/gomod" GOTMPDIR="$PWD/$out/tmp" GOENV=off GOFLAGS=-buildvcs=false
go build -o "$out/treeqd" ./cmd/treeqd
(cd bench && go build -o out/treeload ./treeload)

commit=unknown
if [ -d .git ]; then
  commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
fi

for arg in "$@"; do
  case "$arg" in
    -workload|--workload|-workload=*|--workload=*)
      exec "$out/treeload" -treeqd "$out/treeqd" -commit "$commit" "$@" ;;
  esac
done
for w in point_hot join_mix scan_mix corpus_fanout update_churn; do
  "$out/treeload" -treeqd "$out/treeqd" -commit "$commit" -workload "$w" "$@"
done
