// Package cost implements the plan cost model: Steinbrunn-style formulas
// for scans and the three standard join operators the paper benchmarks
// (block-nested-loop, hash, sort-merge), a cardinality estimator hook,
// and the buffer-space metric used as the second objective in the
// multi-objective experiments (§6.1).
//
// Costs are abstract work units proportional to tuples processed. The
// paper compares plans by relative cost only, so units cancel out.
package cost

import (
	"fmt"
	"math"
)

// JoinAlg identifies a join operator implementation.
type JoinAlg int

const (
	// NestedLoop is the block-nested-loop join: every outer/inner tuple
	// pair is inspected.
	NestedLoop JoinAlg = iota
	// Hash is the (in-memory GRACE-style) hash join: both inputs are
	// scanned a constant number of times.
	Hash
	// SortMerge sorts both inputs on the join attribute and merges.
	// A side that is already sorted on the join attribute skips its
	// sort term (interesting orders).
	SortMerge
	numAlgs
)

// Algs lists all join algorithms in a stable order.
var Algs = [...]JoinAlg{NestedLoop, Hash, SortMerge}

// String returns the conventional operator name.
func (a JoinAlg) String() string {
	switch a {
	case NestedLoop:
		return "NLJ"
	case Hash:
		return "HJ"
	case SortMerge:
		return "SMJ"
	default:
		return fmt.Sprintf("JoinAlg(%d)", int(a))
	}
}

// Valid reports whether a names a real algorithm.
func (a JoinAlg) Valid() bool { return a >= 0 && a < numAlgs }

// SecondMetric selects what a plan's second cost annotation
// (plan.Node.Buffer) measures.
type SecondMetric int

const (
	// BufferFootprint is the paper's second objective (§6.1): the
	// operator's buffer-space requirement, combined with max up the
	// plan tree.
	BufferFootprint SecondMetric = iota
	// ParametricCost makes the second annotation the plan's execution
	// cost at parameter value θ=1 (memory pressure: hash joins spill
	// and cost HashSpillFactor times more), combined additively. With
	// plan cost linear in θ, Pareto pruning over (cost(0), cost(1)) is
	// exact parametric query optimization — the [7, 13] variant the
	// paper's §2 says the partitioning covers.
	ParametricCost
	// RobustCost makes the second annotation the plan's execution cost
	// at the high endpoint of a multiplicative selectivity-uncertainty
	// band (every selectivity inflated by RobustBand, clamped to 1),
	// combined additively. Cost is monotone in every selectivity, so
	// the high corner is the worst case over the whole band and Pareto
	// pruning over (nominal cost, worst-case cost) is exact robust plan
	// search. The DP supplies the inflated operand cardinalities; the
	// formulas themselves are unchanged.
	RobustCost
)

// Model parameterizes the cost formulas. The zero value is not valid;
// use Default().
type Model struct {
	// HashFactor scales the hash join's linear passes (build + probe).
	HashFactor float64
	// SortFactor scales the n·log2(n) sort terms of the sort-merge join.
	SortFactor float64
	// NLBlock models blocking in the nested-loop join: the effective
	// cost is outer·inner/NLBlock (one inner scan per outer block).
	NLBlock float64
	// Second selects the second metric (default BufferFootprint).
	Second SecondMetric
	// HashSpillFactor is the θ=1 hash-join cost multiplier for
	// ParametricCost (ignored otherwise; must be ≥ 1).
	HashSpillFactor float64
	// RobustBand is the selectivity-uncertainty band for RobustCost:
	// the high endpoint inflates every predicate selectivity by this
	// factor (clamped to 1). Ignored by the other metrics; must be ≥ 1.
	RobustBand float64
}

// Default returns the model used throughout the experiments.
func Default() Model {
	return Model{HashFactor: 1.2, SortFactor: 1.0, NLBlock: 1.0}
}

// Parametric returns the model for parametric query optimization: the
// second metric is the plan cost under full memory pressure (hash joins
// cost spill times more).
func Parametric(spill float64) Model {
	m := Default()
	m.Second = ParametricCost
	m.HashSpillFactor = spill
	return m
}

// Robust returns the model for robust plan search: the second metric
// is the plan cost at the high endpoint of a selectivity-uncertainty
// band of the given width (≥ 1).
func Robust(band float64) Model {
	m := Default()
	m.Second = RobustCost
	m.RobustBand = band
	return m
}

// Validate reports whether the model parameters are usable.
func (m *Model) Validate() error {
	if !(m.HashFactor > 0) || !(m.SortFactor > 0) || !(m.NLBlock > 0) {
		return fmt.Errorf("cost: non-positive model parameter: %+v", *m)
	}
	switch m.Second {
	case BufferFootprint:
	case ParametricCost:
		if !(m.HashSpillFactor >= 1) {
			return fmt.Errorf("cost: HashSpillFactor %g must be >= 1 for ParametricCost", m.HashSpillFactor)
		}
	case RobustCost:
		if !(m.RobustBand >= 1) || math.IsInf(m.RobustBand, 0) {
			return fmt.Errorf("cost: RobustBand %g must be finite and >= 1 for RobustCost", m.RobustBand)
		}
	default:
		return fmt.Errorf("cost: invalid second metric %d", int(m.Second))
	}
	return nil
}

// ScanCost is the cost of producing a base relation of the given
// cardinality.
func (m *Model) ScanCost(card float64) float64 { return card }

// ScanBuffer is the buffer footprint of a scan (a constant page).
func (m *Model) ScanBuffer(card float64) float64 { return 1 }

func log2(x float64) float64 {
	if x < 2 {
		return 1 // clamp: sorting a tiny input still touches it once
	}
	return math.Log2(x)
}

// SortTerm is the cost of sorting an input of the given cardinality:
// SortFactor·card·log2(card), with log2 clamped to 1 below two tuples.
// It is the single definition of the sort-merge join's per-input term —
// JoinCost adds it for every unsorted input, and the dynamic program
// stores it once per table set so that costing a candidate join adds
// stored terms instead of taking logarithms. The conversion rounds the
// product, so no architecture fuses it into the addition that follows
// and a stored term is bit-identical to one computed in place.
func (m *Model) SortTerm(card float64) float64 {
	return float64(m.SortFactor * card * log2(card))
}

// sortMerge is the sort-merge operator formula of every metric: a base
// plus one term per unsorted input, left first.
func sortMerge(base, lTerm, rTerm float64, leftSorted, rightSorted bool) float64 {
	if !leftSorted {
		base += lTerm
	}
	if !rightSorted {
		base += rTerm
	}
	return base
}

// SortMergeCost is JoinCost(SortMerge, l, r, …) with the inputs' sort
// terms lSort = SortTerm(l) and rSort = SortTerm(r) supplied by the
// caller: l + r + [!leftSorted]·lSort + [!rightSorted]·rSort, in that
// order.
func (m *Model) SortMergeCost(l, r, lSort, rSort float64, leftSorted, rightSorted bool) float64 {
	return sortMerge(l+r, lSort, rSort, leftSorted, rightSorted)
}

// NestedLoopCost is JoinCost(NestedLoop, l, r, …): every outer block
// scans the inner input once.
func (m *Model) NestedLoopCost(l, r float64) float64 { return l * r / m.NLBlock }

// HashCost is JoinCost(Hash, l, r, …): linear build and probe passes.
// The conversion keeps the product from fusing into a later addition.
func (m *Model) HashCost(l, r float64) float64 { return float64(m.HashFactor * (l + r)) }

// JoinCost returns the cost of joining an outer input of cardinality l
// with an inner input of cardinality r using algorithm alg.
// leftSorted/rightSorted report whether the respective input is already
// sorted on the join attribute (only SortMerge cares). The per-algorithm
// methods it dispatches to are the single definitions of the formulas;
// the dynamic program calls them directly, once per operand split.
func (m *Model) JoinCost(alg JoinAlg, l, r float64, leftSorted, rightSorted bool) float64 {
	switch alg {
	case NestedLoop:
		return m.NestedLoopCost(l, r)
	case Hash:
		return m.HashCost(l, r)
	case SortMerge:
		var lSort, rSort float64
		if !leftSorted {
			lSort = m.SortTerm(l)
		}
		if !rightSorted {
			rSort = m.SortTerm(r)
		}
		return m.SortMergeCost(l, r, lSort, rSort, leftSorted, rightSorted)
	default:
		panic(fmt.Sprintf("cost: unknown join algorithm %d", int(alg)))
	}
}

// JoinBuffer returns the buffer-space footprint of the operator itself
// (not including its inputs): the hash join materializes a build table on
// the inner side; the sort-merge join needs sort space for both unsorted
// inputs; the nested-loop join streams with a constant footprint.
func (m *Model) JoinBuffer(alg JoinAlg, l, r float64, leftSorted, rightSorted bool) float64 {
	switch alg {
	case NestedLoop:
		return 2
	case Hash:
		return r + 1
	case SortMerge:
		return sortMerge(2, l, r, leftSorted, rightSorted)
	default:
		panic(fmt.Sprintf("cost: unknown join algorithm %d", int(alg)))
	}
}

// ScanSecond returns a scan's second-metric value. Scan cost does not
// depend on selectivities, so for RobustCost it equals the nominal scan
// cost.
func (m *Model) ScanSecond(card float64) float64 {
	if m.Second == ParametricCost || m.Second == RobustCost {
		return m.ScanCost(card)
	}
	return m.ScanBuffer(card)
}

// JoinSecond returns the operator's second-metric value: buffer
// footprint, the θ=1 operator cost for ParametricCost, or the
// worst-case operator cost for RobustCost. For RobustCost the caller
// must pass the operands' high-endpoint (band-inflated) cardinalities
// as l and r — the DP tracks them per relation set (see
// plan.JoinScalarsRobust).
func (m *Model) JoinSecond(alg JoinAlg, l, r float64, leftSorted, rightSorted bool) float64 {
	switch m.Second {
	case ParametricCost:
		c := m.JoinCost(alg, l, r, leftSorted, rightSorted)
		if alg == Hash {
			c *= m.HashSpillFactor
		}
		return c
	case RobustCost:
		return m.JoinCost(alg, l, r, leftSorted, rightSorted)
	}
	return m.JoinBuffer(alg, l, r, leftSorted, rightSorted)
}

// SecondSortTerm is what an unsorted sort-merge input adds to the
// operator's second metric: its cardinality for BufferFootprint, its
// sort term for ParametricCost, and the sort term of its high-endpoint
// cardinality cardHi for RobustCost. Like SortTerm it depends on the
// input's table set only.
func (m *Model) SecondSortTerm(card, cardHi float64) float64 {
	switch m.Second {
	case ParametricCost:
		return m.SortTerm(card)
	case RobustCost:
		return m.SortTerm(cardHi)
	}
	return card
}

// SortMergeSecond is JoinSecond(SortMerge, l, r, …) with the inputs'
// SecondSortTerm values supplied by the caller (l and r are the
// high-endpoint cardinalities under RobustCost, as for JoinSecond).
func (m *Model) SortMergeSecond(l, r, lTerm, rTerm float64, leftSorted, rightSorted bool) float64 {
	if m.Second == BufferFootprint {
		return sortMerge(2, lTerm, rTerm, leftSorted, rightSorted)
	}
	return sortMerge(l+r, lTerm, rTerm, leftSorted, rightSorted)
}

// CombineSecond folds operand second-metric values with the operator's:
// max for buffer footprints (concurrent pipeline peak), sum for
// parametric and robust costs (total work). All are monotone,
// preserving the DP's principle of optimality.
func (m *Model) CombineSecond(left, right, op float64) float64 {
	if m.Second == ParametricCost || m.Second == RobustCost {
		return left + right + op
	}
	b := op
	if left > b {
		b = left
	}
	if right > b {
		b = right
	}
	return b
}
