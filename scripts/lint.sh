#!/bin/sh
# Unified static-analysis entry point: the one invocation every Go file
# in the repository — root library, cmd/, examples/, internal/, and the
# nested benchmark module bench/ — must pass. CI's verify job runs
# exactly this script, so a clean local run means the lint gates are
# green.
#
#   sh scripts/lint.sh
#
# Set MPQLINT_FACTS to a directory to reuse mpqlint's per-package
# findings cache across runs (CI does; see .github/workflows/ci.yml).
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
out="$(gofmt -l .)"
if [ -n "$out" ]; then
	echo "gofmt needed on:" >&2
	echo "$out" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> mpqlint ./..."
go run ./cmd/mpqlint ./...

# The A/B microbenchmark docs/perf.md quotes is not run by go test; one
# iteration per class keeps it compiling and its job classes valid.
echo "==> dp job-class microbenchmark, one iteration"
go test ./internal/dp -run '^$' -bench JobClasses -benchtime 1x

# cmd/mpqbench has no test files: one sub-second experiment through the
# registry keeps its dispatch and -json output working.
echo "==> mpqbench dispatch smoke (fig3, 2 queries)"
go run ./cmd/mpqbench -experiment fig3 -queries 2 -quiet -json >/dev/null

# bench/ is its own module (bench/README.md), invisible to the root ./...
echo "==> bench: go vet + go test -short"
(cd bench && go vet ./... && go test -short ./...)
