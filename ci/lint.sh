#!/usr/bin/env bash
# The repo's one-command lint entry point: CI's lint job runs exactly this
# script, so a clean local `ci/lint.sh` means a clean lint job.
#
# Layers, in order:
#
#   1. gofmt        formatting
#   2. go vet       the standard toolchain analyzers
#   3. staticcheck  SA* correctness checks — skipped when the binary is not
#                   installed (CI installs the pinned version; the repo
#                   itself takes no module dependency on it)
#   4. govulncheck  known-vulnerability scan — skipped when not installed,
#                   and warn-only on findings (first landing; tighten to a
#                   hard gate once triage exists)
#   5. promlint     structural lint of a scratch treeqd's exposition
#                   (skipped with LINT_FAST=1; the naming rules are
#                   checked by obsv.Registry when each family registers)
#
# Usage: ci/lint.sh           full run
#        LINT_FAST=1 ci/lint.sh   static layers only (no scratch server)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "lint: gofmt"
out=$(gofmt -l .)
if [ -n "$out" ]; then
  echo "gofmt needed on:" && echo "$out" && exit 1
fi

echo "lint: go vet"
go vet ./...

if command -v staticcheck >/dev/null 2>&1; then
  echo "lint: staticcheck"
  staticcheck -checks 'SA*' ./...
else
  echo "lint: staticcheck not installed; skipping (CI installs the pinned version)"
fi

if command -v govulncheck >/dev/null 2>&1; then
  echo "lint: govulncheck (warn-only)"
  govulncheck ./... || echo "lint: govulncheck reported findings (warn-only on first landing)" >&2
else
  echo "lint: govulncheck not installed; skipping (CI installs the pinned version)"
fi

if [ "${LINT_FAST:-0}" = "1" ]; then
  echo "lint: promlint skipped (LINT_FAST=1)"
else
  ./ci/promlint.sh
fi

echo "lint: ok"
