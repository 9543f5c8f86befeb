#!/bin/sh
# Size of the root module, per package: non-test lines (every line of
# every .go file that is not a _test.go) and code-only lines (the same
# minus blank lines and comment-only lines). bench/ is its own module
# and testdata/ holds analyzer fixtures; neither counts. A simplicity
# PR quotes the TOTAL row before and after (ROADMAP item 7).
#
#   sh scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' |
	while read -r f; do
		# One record per file: directory, lines, code-only lines. A line
		# inside a /* */ block or starting with // is comment-only.
		awk -v dir="$(dirname "$f")" '
			{ lines++ }
			inblock { if ($0 ~ /\*\//) inblock = 0; next }
			/^[ \t]*$/ || /^[ \t]*\/\// { next }
			/^[ \t]*\/\*/ { if ($0 !~ /\*\//) inblock = 1; next }
			{ code++ }
			END { printf "%s %d %d\n", dir, lines, code }
		' "$f"
	done | sort -k1,1 |
	awk '
		function row(name, l, c) { printf "%-40s %9s %9s\n", name, l, c }
		BEGIN { row("package", "non-test", "code-only") }
		$1 != dir { if (dir != "") row(dir, lines, code); dir = $1; lines = code = 0 }
		{ lines += $2; code += $3; tl += $2; tc += $3 }
		END { row(dir, lines, code); row("TOTAL", tl, tc) }
	'
