package dp

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"mpq/internal/bitset"
	"mpq/internal/cost"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/query"
	"mpq/internal/workload"
)

// refAdmits and refInsert are the three rules' admission test and
// insert over a plain slice of built plans: the reference the engine's
// records are checked against, so they share none of its code.
func refAdmits(pr Pruner, f []*plan.Node, c, buf float64, order int) bool {
	switch p := pr.(type) {
	case SingleBest:
		return len(f) == 0 || c < f[0].Cost
	case OrderAware:
		for _, q := range f {
			if q.Cost <= c && refOrderDominates(q.Order, order) {
				return false
			}
		}
	case Pareto:
		a := p.Alpha
		if a < 1 {
			a = 1
		}
		for _, q := range f {
			if q.Cost <= a*c && q.Buffer <= a*buf && refOrderDominates(q.Order, order) {
				return false
			}
		}
	}
	return true
}

func refInsert(pr Pruner, f []*plan.Node, p *plan.Node) []*plan.Node {
	if _, single := pr.(SingleBest); single && len(f) > 0 {
		f[0] = p
		return f
	}
	_, pareto := pr.(Pareto)
	kept := f[:0]
	for _, q := range f {
		if !(p.Cost <= q.Cost && (!pareto || p.Buffer <= q.Buffer) && refOrderDominates(p.Order, q.Order)) {
			kept = append(kept, q)
		}
	}
	return append(kept, p)
}

func refOrderDominates(qo, po int) bool { return qo == po || po == query.NoOrder }

func refBit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// refSet is a table set of the reference DP: its plans and its
// cardinality at both ends of the robust band.
type refSet struct {
	plans    []*plan.Node
	card, hi float64
}

// refOp is an operator's own cost and second metric on one split. They
// depend on the operands only through their sets' cardinalities and
// sortedness, so the reference asks the cost model once per split and
// operator variant.
type refOp struct {
	ok           bool
	cost, second float64
}

// referenceDP is the dynamic program without the engine: the same
// enumeration and split order, every candidate offered to refAdmits and
// an admitted one built at once and handed to refInsert — no whole-pair
// skip and no records. A candidate's scalars are plan.JoinScalars'
// sums over the split's refOp; an admitted one is built with the
// scalars plan.JoinScalars(Robust) returns, so a sum that differs from
// them shows as a plan that differs from the engine's. It returns every
// table set's plans and the work counters.
func referenceDP(q *query.Query, cs *partition.ConstraintSet, model cost.Model, orders bool, pr Pruner) (map[bitset.Set][]*plan.Node, plan.Stats) {
	var st plan.Stats
	memo := make([]*refSet, 1<<q.N())
	for t := 0; t < q.N(); t++ {
		sp := plan.Scan(model, q, t)
		memo[bitset.Single(t)] = &refSet{plans: []*plan.Node{sp}, card: sp.Card, hi: sp.Card}
		st.PlansKept++
		st.MemoEntries++
	}
	robust := model.Second == cost.RobustCost
	var s *refSet
	var preds []int
	var specs []plan.JoinSpec
	split := func(left, right bitset.Set) {
		l, r := memo[left], memo[right]
		if l == nil || r == nil {
			return
		}
		st.SplitsTried++
		if s.card < 0 {
			s.card = l.card * r.card * q.SelBetween(left, right)
			s.hi = s.card
			if robust {
				s.hi = l.hi * r.hi * q.SelBetweenInflated(left, right, model.RobustBand)
			}
		}
		preds = q.ConnectingPreds(preds[:0], left, right)
		var ops [len(cost.Algs) * 4]refOp
		for _, lp := range l.plans {
			for _, rp := range r.plans {
				specs = append(specs[:0],
					plan.JoinSpec{Alg: cost.NestedLoop, Pred: plan.NoPred, Order: lp.Order},
					plan.JoinSpec{Alg: cost.Hash, Pred: plan.NoPred, Order: query.NoOrder})
				if orders {
					for _, pi := range preds {
						la, ra := plan.MergeAttrs(q.Preds[pi], left)
						specs = append(specs, plan.JoinSpec{Alg: cost.SortMerge, Pred: pi, Order: plan.CanonicalMergeOrder(q.Preds[pi]),
							LSorted: lp.Order == la, RSorted: rp.Order == ra})
					}
				} else if len(preds) > 0 {
					specs = append(specs, plan.JoinSpec{Alg: cost.SortMerge, Pred: plan.NoPred, Order: query.NoOrder})
				}
				for _, spec := range specs {
					spec.OutCard = s.card
					op := &ops[int(spec.Alg)*4+refBit(spec.LSorted)*2+refBit(spec.RSorted)]
					if !op.ok {
						lhi, rhi := l.card, r.card
						if robust {
							lhi, rhi = l.hi, r.hi
						}
						*op = refOp{true, model.JoinCost(spec.Alg, l.card, r.card, spec.LSorted, spec.RSorted),
							model.JoinSecond(spec.Alg, lhi, rhi, spec.LSorted, spec.RSorted)}
					}
					if !refAdmits(pr, s.plans, lp.Cost+rp.Cost+op.cost, model.CombineSecond(lp.Buffer, rp.Buffer, op.second), spec.Order) {
						st.PlansPruned++
						continue
					}
					c, buf := plan.JoinScalars(model, lp, rp, spec)
					if robust {
						c, buf = plan.JoinScalarsRobust(model, lp, rp, spec, l.hi, r.hi)
					}
					s.plans = refInsert(pr, s.plans, plan.JoinWithScalars(lp, rp, spec, c, buf))
					st.PlansKept++
				}
			}
		}
	}
	var splitter *partition.Splitter
	if cs.Space == partition.Bushy {
		splitter = cs.NewSplitter()
	}
	enum := cs.NewEnumerator()
	for k := 2; k <= q.N(); k++ {
		enum.ForEachAdmissible(k, func(u bitset.Set) bool {
			st.SetsProcessed++
			s = &refSet{card: -1}
			if cs.Space == partition.Linear {
				for rem := u; rem != 0; rem &= rem - 1 {
					if cs.InnerAllowed(u, bits.TrailingZeros64(uint64(rem))) {
						split(u&^(rem&-rem), rem&-rem)
					}
				}
			} else {
				splitter.ForEachLeft(u, func(left bitset.Set) { split(left, u.Minus(left)) })
			}
			if len(s.plans) > 0 {
				memo[u] = s
				st.MemoEntries++
			}
			return true
		})
	}
	out := map[bitset.Set][]*plan.Node{}
	for u, s := range memo {
		if s != nil {
			out[bitset.Set(u)] = s.plans
		}
	}
	return out, st
}

// boundAlphas are the approximation factors the Pareto rule is checked
// with; +Inf times a zero cost is NaN, which no bound passes.
var boundAlphas = []float64{1, 1.5, 2, 10, math.Inf(1)}

// boundCases are the cost models × cardinality ranges the bound is
// checked under. All models pass Model.Validate. "allinf" makes every
// join +Inf (a tiny NLBlock overflows the nested loop), so after a set's
// first admitted plan every pair is skipped on +Inf ≥ +Inf; "nlinf" on
// huge cardinalities makes the nested loop Inf/Inf = NaN wherever an
// operand product overflows, so minOp is NaN and pairs take the
// ordinary path. A NaN plan is never dominated, so under OrderAware and
// Pareto its frontiers grow exponentially: paretoMax caps the tables
// there. The parametric and robust models sum the second metric instead
// of taking its maximum.
var boundCases = []struct {
	name      string
	model     cost.Model
	huge      bool
	paretoMax int
}{
	{"default", cost.Default(), false, 0},
	{"default-huge", cost.Default(), true, 0},
	{"allinf", cost.Model{HashFactor: math.Inf(1), SortFactor: math.Inf(1), NLBlock: math.SmallestNonzeroFloat64}, false, 0},
	{"nlinf", cost.Model{HashFactor: 1.2, SortFactor: 1, NLBlock: math.Inf(1)}, false, 0},
	{"nlinf-huge", cost.Model{HashFactor: 1.2, SortFactor: 1, NLBlock: math.Inf(1)}, true, 4},
	{"parametric", cost.Parametric(3), false, 0},
	{"robust", cost.Robust(4), false, 0},
	{"robust-huge", cost.Robust(4), true, 0},
}

// tooWide reports whether pr keeps frontiers — OrderAware or Pareto —
// and boundCases[c] caps their runs below n tables.
func tooWide(c int, pr Pruner, n int) bool {
	_, single := pr.(SingleBest)
	return !single && boundCases[c].paretoMax > 0 && n > boundCases[c].paretoMax
}

func boundQuery(n int, shape workload.Shape, seed int64, huge bool) *query.Query {
	p := workload.NewParams(n, shape)
	if huge {
		p.MinCard, p.MaxCard = 1e100, 1e300
	}
	return workload.MustGenerate(p, seed)
}

// sameNode reports whether a and b carry the same annotations, every
// float bit for bit (NaN included); operands are not compared.
func sameNode(a, b *plan.Node) bool {
	bare := func(n *plan.Node) (plan.Node, [3]uint64) {
		c := *n
		c.Left, c.Right, c.Card, c.Cost, c.Buffer = nil, nil, 0, 0, 0
		return c, [3]uint64{math.Float64bits(n.Card), math.Float64bits(n.Cost), math.Float64bits(n.Buffer)}
	}
	x, xf := bare(a)
	y, yf := bare(b)
	return x == y && xf == yf
}

// sameTree reports whether a and b are the same plan, node for node.
func sameTree(a, b *plan.Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	return sameNode(a, b) && sameTree(a.Left, b.Left) && sameTree(a.Right, b.Right)
}

// plansOf returns the retained plans of table set u.
func plansOf(eng *Engine, u bitset.Set) []*plan.Node {
	var ps []*plan.Node
	eng.ForEachPlan(u, func(p *plan.Node) { ps = append(ps, p) })
	return ps
}

// checkPairBound runs one partition with rule pr on the engine and on
// referenceDP and fails unless every memo entry — each scan and each
// admissible set, whether or not it wins at the root — holds the same
// plans, in the same order, and the work counters agree.
func checkPairBound(t testing.TB, q *query.Query, space partition.Space, m, part int, model cost.Model, orders bool, pr Pruner) {
	t.Helper()
	cs, err := partition.ForPartition(space, q.N(), part, m)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(q, cs, Options{Model: model, InterestingOrders: orders, Pruner: pr})
	if err != nil {
		t.Fatal(err)
	}
	where := fmt.Sprintf("%v n=%d partition %d/%d orders=%v %#v", space, q.N(), part, m, orders, pr)
	sets := []bitset.Set{}
	for tb := 0; tb < q.N(); tb++ {
		sets = append(sets, bitset.Single(tb))
	}
	enum := cs.NewEnumerator()
	for k := 2; k <= q.N(); k++ {
		enum.ForEachAdmissible(k, func(u bitset.Set) bool {
			eng.ProcessSet(u)
			sets = append(sets, u)
			return true
		})
	}
	ref, refStats := referenceDP(q, cs, model, orders, pr)
	for _, u := range sets {
		got, want := plansOf(eng, u), ref[u]
		if len(got) != len(want) {
			t.Fatalf("%s: set %v: %d plans, reference %d", where, u, len(got), len(want))
		}
		for i := range got {
			if !sameTree(got[i], want[i]) {
				t.Fatalf("%s: set %v plan %d\n%s\nreference\n%s", where, u, i, got[i].Format(), want[i].Format())
			}
		}
	}
	if got := eng.Stats(); got != refStats {
		t.Fatalf("%s: stats %+v, reference %+v", where, got, refStats)
	}
}

// Every rule, with and without interesting orders, fills every memo
// entry as the reference DP does: SingleBest's record and whole-pair
// skip, OrderAware's records, Pareto's records with and without orders
// and its whole-pair skip, on every shape, both spaces, every partition
// of m ∈ {1, 2, 4, 8}, the buffer, parametric and robust second
// metrics, and cost models whose candidates are +Inf or NaN.
func TestPairBoundEqualsPlainAdmits(t *testing.T) {
	ns := []int{4, 7, 10}
	if testing.Short() {
		ns = []int{4, 8}
	}
	for ci, c := range boundCases {
		for si, shape := range workload.Shapes {
			for _, n := range ns {
				q := boundQuery(n, shape, int64(10*si+n), c.huge)
				// Each α meets every model, shape and size, if not all at once;
				// at the largest size OrderAware takes every third model × shape.
				rules := []Pruner{SingleBest{}, Pareto{Alpha: boundAlphas[(ci+si+n)%len(boundAlphas)]}}
				if n < ns[len(ns)-1] || (ci+si)%3 == 0 {
					rules = append(rules, OrderAware{})
				}
				for _, space := range []partition.Space{partition.Linear, partition.Bushy} {
					for m := 1; m <= min(8, partition.MaxWorkers(space, n)); m *= 2 {
						for part := 0; part < m; part++ {
							for _, pr := range rules {
								if tooWide(ci, pr, n) {
									continue
								}
								checkPairBound(t, q, space, m, part, c.model, false, pr)
								// Frontiers with orders grow fast.
								if _, single := pr.(SingleBest); single || n < 10 {
									checkPairBound(t, q, space, m, part, c.model, true, pr)
								}
							}
						}
					}
				}
			}
		}
	}
}

// FuzzPairBound is TestPairBoundEqualsPlainAdmits on any query: a wrong
// skip or a wrongly built survivor is silent plan corruption, so CI
// gives it real mutation time. rule picks SingleBest (0), OrderAware (1)
// or a Pareto factor from boundAlphas.
func FuzzPairBound(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(0), uint8(0), uint8(3), uint8(5), uint8(0), false, uint8(0))
	f.Add(int64(7), uint8(8), uint8(1), uint8(1), uint8(1), uint8(1), uint8(2), false, uint8(0))
	f.Add(int64(3), uint8(7), uint8(4), uint8(1), uint8(0), uint8(0), uint8(4), false, uint8(0))
	f.Add(int64(9), uint8(5), uint8(3), uint8(0), uint8(2), uint8(3), uint8(1), true, uint8(0))
	f.Add(int64(2), uint8(7), uint8(2), uint8(0), uint8(2), uint8(1), uint8(6), false, uint8(3))
	f.Add(int64(5), uint8(6), uint8(0), uint8(1), uint8(1), uint8(0), uint8(4), false, uint8(5))
	f.Add(int64(4), uint8(7), uint8(2), uint8(0), uint8(2), uint8(1), uint8(2), true, uint8(1))
	f.Add(int64(6), uint8(6), uint8(1), uint8(1), uint8(1), uint8(0), uint8(6), true, uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, n, shape, space, logM, part, kind uint8, orders bool, rule uint8) {
		sp := partition.Space(space % 2)
		tables := 2 + int(n)%9
		m := min(1<<(int(logM)%4), partition.MaxWorkers(sp, tables))
		ci := int(kind) % len(boundCases)
		c := boundCases[ci]
		var pr Pruner = SingleBest{}
		if r := int(rule) % (2 + len(boundAlphas)); r == 1 {
			pr = OrderAware{}
		} else if r > 1 {
			pr = Pareto{Alpha: boundAlphas[r-2]}
		}
		if tooWide(ci, pr, tables) {
			t.Skip("NaN frontiers grow exponentially")
		}
		q := boundQuery(tables, workload.Shapes[int(shape)%len(workload.Shapes)], seed, c.huge)
		checkPairBound(t, q, sp, m, int(part)%m, c.model, orders, pr)
	})
}

// SingleBest's rule, as offer applies it to pend, is the whole-pair
// skip's premise: against a record of cost kept, a candidate is
// admitted iff c < kept — so one costing kept or more is rejected
// whatever its order — and an empty record admits every candidate, NaN
// included.
func TestSingleBestBoundImpliesReject(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	costs := []float64{0, 1, 5, 5 + 1e-15, 1e300, inf, nan}
	lp, rp := &plan.Node{}, &plan.Node{}
	admitted := func(w *worker, c float64, order int) bool {
		kept := w.stats.PlansKept
		w.offer(lp, rp, cost.Hash, plan.NoPred, order, false, false, c)
		return w.stats.PlansKept > kept && math.Float64bits(w.pend.cost) == math.Float64bits(c)
	}
	for _, c := range costs {
		if !admitted(&worker{single: true}, c, query.NoOrder) {
			t.Fatalf("empty record rejected a candidate of cost %g", c)
		}
	}
	for _, kept := range costs {
		for _, c := range costs {
			for _, order := range []int{query.NoOrder, 0, 3} {
				w := &worker{single: true, pend: record{lp: lp, rp: rp, cost: kept}}
				if got := admitted(w, c, order); got != (c < kept) {
					t.Fatalf("record cost %g, candidate cost %g order %d: admitted = %v, want c < kept", kept, c, order, got)
				}
			}
		}
	}
}

// Pareto's whole-pair skip rests on monotone domination: if the records
// dominate the bound b, they dominate every candidate c ≥ b
// componentwise — whatever the records, including NaN, ±0, +Inf and
// α = +Inf against zero costs, where Inf·0 = NaN must make the bound pass.
func TestParetoBoundImpliesReject(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	vals := []float64{0, math.Copysign(0, -1), 1, 5, 5 + 1e-15, 1e300, inf, nan}
	var sets [][]record
	for _, c := range vals {
		for _, b := range vals {
			sets = append(sets, []record{vecRecord(c, b, query.NoOrder)})
		}
	}
	sets = append(sets, []record{vecRecord(10, 1, query.NoOrder), vecRecord(1, 10, query.NoOrder), vecRecord(3, 3, query.NoOrder)})
	for _, alpha := range append([]float64{0, 0.5, nan}, boundAlphas...) {
		for _, recs := range sets {
			w := &worker{recs: &recs}
			_, w.alpha = Pareto{Alpha: alpha}.rule()
			for _, bc := range vals {
				for _, bb := range vals {
					if w.admits(bc, bb, query.NoOrder) {
						continue
					}
					for _, cc := range vals {
						for _, cb := range vals {
							if cc >= bc && cb >= bb && w.admits(cc, cb, query.NoOrder) {
								t.Fatalf("α=%g records %+v: bound (%g, %g) dominated, candidate (%g, %g) not", alpha, recs, bc, bb, cc, cb)
							}
						}
					}
				}
			}
		}
	}
}
