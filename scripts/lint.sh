#!/bin/sh
# Unified static-analysis entry point: the one invocation every Go file
# in the repository — root library, cmd/, examples/, internal/, and the
# nested benchmark module bench/ — must pass. CI's verify job runs
# exactly this script, so a clean local run means the lint gates are
# green.
#
#   sh scripts/lint.sh
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

# ROADMAP aim 1 (measured performance): no test may divide one
# wall-clock reading by another (bench/ measures in reference time and
# is its own module).
echo "==> no time.Since ratios in tests"
find . -name '*_test.go' -not -path './bench/*' | xargs awk -f scripts/sinceratio.awk

# ROADMAP item 17: the root module's every loop over the dynamic program
# is dp.Engine.Level. ProcessSet stays only for bench/'s walk (its own
# module, exempt) until item 1(a) moves that walk to Level too.
echo "==> no ProcessSet calls outside internal/dp/dp.go"
if grep -rn --include='*.go' '\.ProcessSet(' . | grep -v -e '^\./bench/' -e '^\./internal/dp/dp\.go:'; then
	echo "ProcessSet called above; drive dp.Engine.Level instead" >&2
	exit 1
fi

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
# TestSmoke is skipped until ROADMAP item 1(a) recalibrates it: it misses
# its fixed 5-reference-second limit in two or three runs of six on the
# reference box whatever the diff, and only a [benchmark] PR may edit
# bench/ — until then it would fail this gate for reasons no change causes.
echo "==> bench: go vet + go test -short (without TestSmoke)"
(cd bench && go vet ./... && go test -short -skip '^TestSmoke$' ./...)
