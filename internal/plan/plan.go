// Package plan defines query-plan trees (§3 of the paper): scan leaves
// and binary join nodes annotated with the table set they produce,
// cardinality and cost estimates, and the physical sort order of their
// output (interesting orders).
//
// A plan node is immutable after construction and shares operand subtrees
// with other plans, so a memo entry costs O(1) space as assumed by the
// paper's memory analysis (Theorem 4).
package plan

import (
	"fmt"
	"math"
	"strings"

	"mpq/internal/bitset"
	"mpq/internal/cost"
	"mpq/internal/query"
)

// NoPred marks a join that uses no merge predicate (cross product or
// non-sort-merge operator).
const NoPred = -1

// Node is one operator of a query plan.
type Node struct {
	// IsScan distinguishes leaves from joins.
	IsScan bool
	// Table is the scanned table index (scan nodes only).
	Table int
	// Alg is the join algorithm (join nodes only).
	Alg cost.JoinAlg
	// Pred is the predicate index a sort-merge join merges on, or NoPred.
	Pred int
	// Left is the outer operand, Right the inner operand (join only).
	Left, Right *Node

	// Tables is the set of tables this subtree joins.
	Tables bitset.Set
	// Card is the estimated output cardinality.
	Card float64
	// Cost is the cumulative time-metric cost of the subtree.
	Cost float64
	// Buffer is the cumulative buffer-space metric (max over operators).
	Buffer float64
	// Order is the attribute the output is sorted on (query.AttrID), or
	// query.NoOrder.
	Order int
}

// Scan builds a scan leaf for table t of q.
func Scan(m cost.Model, q *query.Query, t int) *Node {
	n := new(Node)
	n.setScan(m, q, t)
	return n
}

// setScan is the shared scan constructor: Scan writes a heap node,
// Arena.Scan a slab slot, a recycled one whose every field it writes.
// Both paths must produce bit-identical annotations, which sharing this
// function guarantees.
func (n *Node) setScan(m cost.Model, q *query.Query, t int) {
	card := q.Card(t)
	n.IsScan, n.Table = true, t
	n.Alg, n.Pred, n.Left, n.Right = 0, NoPred, nil, nil
	n.Tables, n.Card, n.Cost, n.Buffer = bitset.Single(t), card, m.ScanCost(card), m.ScanSecond(card)
	n.Order = query.NoOrder
}

// JoinSpec carries the precomputed facts a join constructor needs. The
// dynamic program computes output cardinality once per table set, so the
// constructor takes it as an input instead of recomputing it per split.
type JoinSpec struct {
	Alg     cost.JoinAlg
	OutCard float64
	Pred    int  // merge predicate for SortMerge, else NoPred
	Order   int  // output order (query.AttrID or query.NoOrder)
	LSorted bool // left input already sorted on the merge attribute
	RSorted bool // right input already sorted on the merge attribute
}

// JoinScalars returns the Cost and Buffer annotations the node built by
// Join(m, l, r, spec) would carry, without constructing it. The dynamic
// program's cost-first pruning protocol evaluates every candidate join
// through this function and materializes a Node only for candidates that
// survive admission, so the two must (and, by sharing this code path, do)
// agree bit for bit.
func JoinScalars(m cost.Model, l, r *Node, spec JoinSpec) (costv, buffer float64) {
	opCost := m.JoinCost(spec.Alg, l.Card, r.Card, spec.LSorted, spec.RSorted)
	opBuf := m.JoinSecond(spec.Alg, l.Card, r.Card, spec.LSorted, spec.RSorted)
	return l.Cost + r.Cost + opCost, m.CombineSecond(l.Buffer, r.Buffer, opBuf)
}

// JoinScalarsRobust is JoinScalars for RobustCost models: the Buffer
// slot accumulates the plan's worst-case cumulative cost over the
// selectivity-uncertainty band, which requires the operands'
// high-endpoint cardinalities lHi and rHi (tracked once per relation
// set by the DP, like nominal cardinalities). Cost stays the nominal
// cumulative cost, so Pareto pruning over (Cost, Buffer) explores the
// nominal-vs-worst-case trade-off.
func JoinScalarsRobust(m cost.Model, l, r *Node, spec JoinSpec, lHi, rHi float64) (costv, buffer float64) {
	opCost := m.JoinCost(spec.Alg, l.Card, r.Card, spec.LSorted, spec.RSorted)
	opHi := m.JoinSecond(spec.Alg, lHi, rHi, spec.LSorted, spec.RSorted)
	return l.Cost + r.Cost + opCost, m.CombineSecond(l.Buffer, r.Buffer, opHi)
}

// Join builds a join node over operands l (outer) and r (inner).
func Join(m cost.Model, l, r *Node, spec JoinSpec) *Node {
	c, buf := JoinScalars(m, l, r, spec)
	return JoinWithScalars(l, r, spec, c, buf)
}

// JoinWithScalars builds the node Join would, reusing cost and buffer
// values the caller already obtained from JoinScalars for this exact
// (l, r, spec) — the DP's survivor path, which has just admitted the
// candidate on those scalars and need not recompute them.
func JoinWithScalars(l, r *Node, spec JoinSpec, costv, buffer float64) *Node {
	n := new(Node)
	n.setJoin(l, r, spec, costv, buffer)
	return n
}

// setJoin is the shared join constructor backing JoinWithScalars and
// Arena.JoinWithScalars (see setScan). It writes the fields one by one:
// a composite literal would be built on the stack and block-copied.
func (n *Node) setJoin(l, r *Node, spec JoinSpec, costv, buffer float64) {
	n.IsScan, n.Table = false, 0
	n.Alg, n.Pred, n.Left, n.Right = spec.Alg, spec.Pred, l, r
	n.Tables, n.Card, n.Cost, n.Buffer = l.Tables.Union(r.Tables), spec.OutCard, costv, buffer
	n.Order = spec.Order
}

// IsLeftDeep reports whether every join's inner (right) operand is a
// scan, i.e. the plan lies in the linear plan space of §3.
func (n *Node) IsLeftDeep() bool {
	if n.IsScan {
		return true
	}
	return n.Right.IsScan && n.Left.IsLeftDeep()
}

// CountJoins returns the number of join operators in the subtree.
func (n *Node) CountJoins() int {
	if n.IsScan {
		return 0
	}
	return 1 + n.Left.CountJoins() + n.Right.CountJoins()
}

// Height returns the operator-tree height (a scan has height 1).
func (n *Node) Height() int {
	if n.IsScan {
		return 1
	}
	lh, rh := n.Left.Height(), n.Right.Height()
	if rh > lh {
		lh = rh
	}
	return lh + 1
}

// JoinOrder returns the table indices in the order scan leaves are
// encountered in a post-order traversal. For left-deep plans this is the
// join order of §3.
func (n *Node) JoinOrder() []int {
	var out []int
	var walk func(*Node)
	walk = func(p *Node) {
		if p.IsScan {
			out = append(out, p.Table)
			return
		}
		walk(p.Left)
		walk(p.Right)
	}
	walk(n)
	return out
}

// String renders the plan as a one-line expression, e.g.
// "((T0 HJ T1) NLJ T2)".
func (n *Node) String() string {
	var b strings.Builder
	n.writeExpr(&b)
	return b.String()
}

func (n *Node) writeExpr(b *strings.Builder) {
	if n.IsScan {
		fmt.Fprintf(b, "T%d", n.Table)
		return
	}
	b.WriteByte('(')
	n.Left.writeExpr(b)
	b.WriteByte(' ')
	b.WriteString(n.Alg.String())
	b.WriteByte(' ')
	n.Right.writeExpr(b)
	b.WriteByte(')')
}

// Format renders an indented operator tree with estimates, suitable for
// CLI output.
func (n *Node) Format() string {
	var b strings.Builder
	n.format(&b, 0)
	return b.String()
}

func (n *Node) format(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	if n.IsScan {
		fmt.Fprintf(b, "%sScan(T%d) card=%.3g cost=%.4g\n", indent, n.Table, n.Card, n.Cost)
		return
	}
	order := ""
	if n.Order != query.NoOrder {
		order = fmt.Sprintf(" order=%d", n.Order)
	}
	fmt.Fprintf(b, "%s%s card=%.3g cost=%.4g buffer=%.4g%s\n", indent, n.Alg, n.Card, n.Cost, n.Buffer, order)
	n.Left.format(b, depth+1)
	n.Right.format(b, depth+1)
}

const eps = 1e-6

func approxEq(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= eps*scale
}

// Validate checks the structural and arithmetic integrity of the plan
// against query q and cost model m: operand table sets are disjoint,
// unions and the root table set are correct, and cardinality, cost,
// buffer and order annotations recompute to the stored values. It
// returns the first violation found.
func (n *Node) Validate(q *query.Query, m cost.Model) error {
	_, _, err := n.rebuild(q, m, true)
	return err
}

// Reannotate rebuilds the plan's annotations (cardinality, cost,
// buffer, order) from its structure under a different query and/or
// cost model: same tables, join algorithms and merge predicates, fresh
// estimates. This is how the regret experiments cost a plan chosen
// under noisy estimates against the true statistics, and how a plan's
// worst-case band cost is computed by re-annotating under an inflated
// query (estim.Inflate). n is not modified; q must have the same table
// count and predicate list as the query the plan was built against.
// Note the per-set cardinalities are recomputed per tree here, so
// annotations can differ from the DP's by float association — compare
// with a relative tolerance, as Validate does.
func (n *Node) Reannotate(q *query.Query, m cost.Model) (*Node, error) {
	rebuilt, _, err := n.rebuild(q, m, false)
	return rebuilt, err
}

// rebuild recomputes the subtree's annotations from its structure under
// (q, m) and returns the rebuilt node plus its high-endpoint
// cardinality (equal to Card for non-robust models). With check set it
// also compares every recomputed annotation against the stored one —
// the Validate path; Reannotate skips the comparisons because its whole
// point is annotating the structure under different statistics.
func (n *Node) rebuild(q *query.Query, m cost.Model, check bool) (*Node, float64, error) {
	if n.IsScan {
		if n.Table < 0 || n.Table >= q.N() {
			return nil, 0, fmt.Errorf("plan: scan table %d out of range", n.Table)
		}
		want := Scan(m, q, n.Table)
		if check && (n.Tables != want.Tables || !approxEq(n.Card, want.Card) || !approxEq(n.Cost, want.Cost)) {
			return nil, 0, fmt.Errorf("plan: scan T%d annotations inconsistent: %+v", n.Table, n)
		}
		return want, want.Card, nil
	}
	if n.Left == nil || n.Right == nil {
		return nil, 0, fmt.Errorf("plan: join with nil operand")
	}
	if n.Left.Tables.Intersects(n.Right.Tables) {
		return nil, 0, fmt.Errorf("plan: operands overlap: %v and %v", n.Left.Tables, n.Right.Tables)
	}
	if n.Left.Tables.Union(n.Right.Tables) != n.Tables {
		return nil, 0, fmt.Errorf("plan: table set %v != union of operands", n.Tables)
	}
	l, lHi, err := n.Left.rebuild(q, m, check)
	if err != nil {
		return nil, 0, err
	}
	r, rHi, err := n.Right.rebuild(q, m, check)
	if err != nil {
		return nil, 0, err
	}
	if !n.Alg.Valid() {
		return nil, 0, fmt.Errorf("plan: invalid join algorithm %d", int(n.Alg))
	}
	wantCard := l.Card * r.Card * q.SelBetween(n.Left.Tables, n.Right.Tables)
	lSorted, rSorted := false, false
	order := query.NoOrder
	pred := NoPred
	if n.Alg == cost.SortMerge && n.Pred != NoPred {
		if n.Pred < 0 || n.Pred >= len(q.Preds) {
			return nil, 0, fmt.Errorf("plan: merge predicate %d out of range", n.Pred)
		}
		p := q.Preds[n.Pred]
		la, ra := mergeAttrs(p, n.Left.Tables)
		if la == query.NoOrder {
			return nil, 0, fmt.Errorf("plan: merge predicate %d does not straddle operands", n.Pred)
		}
		lSorted = l.Order == la
		rSorted = r.Order == ra
		order = minOrder(la, ra)
		pred = n.Pred
	} else if n.Alg == cost.NestedLoop {
		order = l.Order // NLJ preserves outer order
	}
	spec := JoinSpec{
		Alg: n.Alg, OutCard: wantCard, Pred: pred, Order: order,
		LSorted: lSorted, RSorted: rSorted,
	}
	hi := wantCard
	var rebuilt *Node
	if m.Second == cost.RobustCost {
		hi = lHi * rHi * q.SelBetweenInflated(n.Left.Tables, n.Right.Tables, m.RobustBand)
		c, buf := JoinScalarsRobust(m, l, r, spec, lHi, rHi)
		rebuilt = JoinWithScalars(l, r, spec, c, buf)
	} else {
		rebuilt = Join(m, l, r, spec)
	}
	if check {
		if !approxEq(n.Card, rebuilt.Card) {
			return nil, 0, fmt.Errorf("plan: card %g, recomputed %g for %v", n.Card, rebuilt.Card, n.Tables)
		}
		if !approxEq(n.Cost, rebuilt.Cost) {
			return nil, 0, fmt.Errorf("plan: cost %g, recomputed %g for %v", n.Cost, rebuilt.Cost, n.Tables)
		}
		if !approxEq(n.Buffer, rebuilt.Buffer) {
			return nil, 0, fmt.Errorf("plan: buffer %g, recomputed %g for %v", n.Buffer, rebuilt.Buffer, n.Tables)
		}
		if n.Order != rebuilt.Order {
			return nil, 0, fmt.Errorf("plan: order %d, recomputed %d for %v", n.Order, rebuilt.Order, n.Tables)
		}
	}
	return rebuilt, hi, nil
}

// mergeAttrs returns the order (attribute) IDs of predicate p as seen
// from an operand pair where leftTables holds the left operand's tables:
// the first return is the attribute on the left side, the second on the
// right side. Returns (NoOrder, NoOrder) if p does not straddle.
func mergeAttrs(p query.Predicate, leftTables bitset.Set) (int, int) {
	la := query.AttrID(p.Left, p.LeftAttr)
	ra := query.AttrID(p.Right, p.RightAttr)
	if leftTables.Contains(p.Left) {
		return la, ra
	}
	if leftTables.Contains(p.Right) {
		return ra, la
	}
	return query.NoOrder, query.NoOrder
}

// MergeAttrs is the exported form used by the DP when enumerating
// sort-merge joins.
func MergeAttrs(p query.Predicate, leftTables bitset.Set) (int, int) {
	return mergeAttrs(p, leftTables)
}

func minOrder(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// CanonicalMergeOrder returns the canonical output order of a sort-merge
// join on predicate p: the smaller of the two endpoint attribute IDs
// (both columns are equal after the join, so one canonical id suffices).
func CanonicalMergeOrder(p query.Predicate) int {
	return minOrder(query.AttrID(p.Left, p.LeftAttr), query.AttrID(p.Right, p.RightAttr))
}

// Stats counts optimizer work. It doubles as the deterministic work meter
// that the cluster simulator converts into virtual compute time.
type Stats struct {
	// SetsProcessed is the number of admissible join-result sets treated.
	SetsProcessed uint64
	// SplitsTried is the number of operand pairs considered.
	SplitsTried uint64
	// PlansKept is the number of plans that survived pruning.
	PlansKept uint64
	// PlansPruned is the number of generated plans discarded by pruning.
	PlansPruned uint64
	// MemoEntries is the number of table sets held in the memo at the
	// end of optimization (the paper's "memory (relations)" metric).
	MemoEntries uint64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.SetsProcessed += o.SetsProcessed
	s.SplitsTried += o.SplitsTried
	s.PlansKept += o.PlansKept
	s.PlansPruned += o.PlansPruned
	if o.MemoEntries > s.MemoEntries {
		s.MemoEntries = o.MemoEntries
	}
}

// WorkUnits is the deterministic abstract work performed: one unit per
// treated set, per considered split, and per generated plan (kept or
// pruned). Proportional to the DP's running time (Theorems 6 and 7);
// the plan term captures the frontier-size blowup of multi-objective
// pruning (§5.4: time grows with the cube of plans per table set).
func (s Stats) WorkUnits() uint64 {
	return s.SetsProcessed + s.SplitsTried + s.PlansKept + s.PlansPruned
}
