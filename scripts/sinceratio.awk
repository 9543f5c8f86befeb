# A test must not divide one wall-clock reading by another: the quotient
# moves with machine load, and asserting on it is how tier-1 used to
# flake (ROADMAP aim 1). A reading is a time.Since(...) call or a
# variable assigned from one earlier in the same file, seen through
# .Seconds()-style accessors and float64(...). A ratio that is only
# logged carries "//lint:allow sinceratio <reason>" on its line.
#
#   find . -name '*_test.go' | xargs awk -f scripts/sinceratio.awk
FNR == 1 { delete since }
/lint:allow sinceratio/ { next }
{
	line = $0
	sub(/\/\/.*/, "", line)
	if (match(line, /[A-Za-z_][A-Za-z0-9_]* *:?= *time\.Since\(/)) {
		name = substr(line, RSTART, RLENGTH)
		sub(/ *:?=.*/, "", name)
		since[name] = 1
	}
	n = split(line, side, "/")
	for (i = 1; i < n; i++)
		if (reading(side[i], "$") && reading(side[i + 1], "^")) {
			printf "%s:%d: ratio of two wall-clock readings: %s\n", FILENAME, FNR, $0
			bad = 1
		}
}
END { exit bad }

# reading reports whether the operand of s next to the slash — its last
# term for end "$", its first for "^" — is a wall-clock reading.
function reading(s, end,    re) {
	gsub(/float64\(|\.[A-Z][A-Za-z]*\(\)/, "", s)
	if (end == "$") sub(/[ \t)]+$/, "", s); else sub(/^[ \t(]+/, "", s)
	if (end == "$" ? s ~ /time\.Since\([^()]*$/ : s ~ /^time\.Since\(/)
		return 1
	re = end == "$" ? "[A-Za-z_][A-Za-z0-9_]*$" : "^[A-Za-z_][A-Za-z0-9_]*"
	return match(s, re) && (substr(s, RSTART, RLENGTH) in since)
}
