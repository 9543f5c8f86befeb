// Package bitset provides compact table-set representations for the
// dynamic-programming query optimizer.
//
// A Set is a bitmask over table indices 0..62. The optimizer's memo is
// keyed by Set, and the plan-space partitioning algebra (admissible join
// results, operand splits) is expressed as Set arithmetic. All operations
// are allocation-free.
package bitset

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// Set is a set of table indices represented as a 64-bit mask. Bit i set
// means table i is a member. The zero value is the empty set.
type Set uint64

// MaxTables is the largest number of distinct tables a Set can hold.
// Bit 63 is reserved so that enumeration loops cannot overflow.
const MaxTables = 63

// Empty returns the empty set.
func Empty() Set { return 0 }

// Single returns the singleton set {i}. The range check's failure path
// lives out of line so that Single — and Contains, Add, Remove on top of
// it — inlines into the optimizer's loops.
func Single(i int) Set {
	if uint(i) >= MaxTables {
		panicIndex(i)
	}
	return Set(1) << uint(i)
}

//go:noinline
func panicIndex(i int) {
	panic(fmt.Sprintf("bitset: table index %d out of range [0,%d)", i, MaxTables))
}

// Range returns the set {0, 1, ..., n-1}.
func Range(n int) Set {
	if n < 0 || n > MaxTables {
		panic(fmt.Sprintf("bitset: range size %d out of range [0,%d]", n, MaxTables))
	}
	if n == 0 {
		return 0
	}
	return (Set(1) << uint(n)) - 1
}

// Of returns the set containing exactly the given indices.
func Of(indices ...int) Set {
	var s Set
	for _, i := range indices {
		s |= Single(i)
	}
	return s
}

// Contains reports whether table i is a member of s.
func (s Set) Contains(i int) bool { return s&Single(i) != 0 }

// ContainsAll reports whether every member of t is a member of s.
func (s Set) ContainsAll(t Set) bool { return s&t == t }

// Intersects reports whether s and t share at least one member.
func (s Set) Intersects(t Set) bool { return s&t != 0 }

// Add returns s with table i added.
func (s Set) Add(i int) Set { return s | Single(i) }

// Remove returns s with table i removed.
func (s Set) Remove(i int) Set { return s &^ Single(i) }

// Union returns the union of s and t.
func (s Set) Union(t Set) Set { return s | t }

// Intersect returns the intersection of s and t.
func (s Set) Intersect(t Set) Set { return s & t }

// Minus returns the set difference s \ t.
func (s Set) Minus(t Set) Set { return s &^ t }

// IsEmpty reports whether s has no members.
func (s Set) IsEmpty() bool { return s == 0 }

// Count returns the number of members (population count).
func (s Set) Count() int { return bits.OnesCount64(uint64(s)) }

// IsSingleton reports whether s contains exactly one table.
func (s Set) IsSingleton() bool { return s != 0 && s&(s-1) == 0 }

// Min returns the smallest member index. It panics on the empty set.
func (s Set) Min() int {
	if s == 0 {
		panic("bitset: Min of empty set")
	}
	return bits.TrailingZeros64(uint64(s))
}

// Max returns the largest member index. It panics on the empty set.
func (s Set) Max() int {
	if s == 0 {
		panic("bitset: Max of empty set")
	}
	return 63 - bits.LeadingZeros64(uint64(s))
}

// Next returns the smallest member index strictly greater than i, or -1
// if there is none. Use Next(-1) to start an iteration.
func (s Set) Next(i int) int {
	rest := s >> uint(i+1) << uint(i+1)
	if i < 0 {
		rest = s
	}
	if rest == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(rest))
}

// ForEach calls fn for each member in ascending order.
func (s Set) ForEach(fn func(i int)) {
	for t := s; t != 0; t &= t - 1 {
		fn(bits.TrailingZeros64(uint64(t)))
	}
}

// Members returns the member indices in ascending order.
func (s Set) Members() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// Subsets calls fn for every subset of s, including the empty set and s
// itself, in an order where each subset's mask is non-decreasing. It
// uses the standard subset-enumeration recurrence sub = (sub-1) & s.
func (s Set) Subsets(fn func(sub Set)) {
	// Enumerate descending then reverse order does not matter to callers;
	// we enumerate ascending via complement trick for clarity.
	sub := Set(0)
	for {
		fn(sub)
		if sub == s {
			return
		}
		sub = (sub - s) & s // next subset in ascending mask order
	}
}

// ProperSubsets calls fn for every non-empty proper subset of s.
func (s Set) ProperSubsets(fn func(sub Set)) {
	s.Subsets(func(sub Set) {
		if sub != 0 && sub != s {
			fn(sub)
		}
	})
}

// String renders the set as "{0,3,5}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(strconv.Itoa(i))
	})
	b.WriteByte('}')
	return b.String()
}
