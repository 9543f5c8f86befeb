package dp

import (
	"fmt"
	"math"
	"testing"

	"mpq/internal/bitset"
	"mpq/internal/cost"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/query"
	"mpq/internal/workload"
)

// plainSingleBest is SingleBest's rule as an ordinary frontier pruner:
// the engine does not recognize the type, so every candidate of every
// operand pair goes through Admits and every admitted one is built in
// the nursery — no whole-pair skip and no pending record. It carries the
// costOnly marker, so survivors alone get the second metric.
type plainSingleBest struct{}

func (plainSingleBest) Admits(f *Frontier, c Candidate) bool { return SingleBest{}.Admits(f, c) }
func (plainSingleBest) Insert(f *Frontier, p *plan.Node)     { SingleBest{}.Insert(f, p) }
func (plainSingleBest) costOnly()                            {}

// plainPareto is Pareto behind another type: the engine does not
// recognize it, so every candidate gets its second metric from
// secondMetric and goes through Admits and Insert via the interface.
type plainPareto struct{ Pareto }

// plainTwin returns the pruner that applies pr's rule through the
// interface only.
func plainTwin(pr Pruner) Pruner {
	if p, ok := pr.(Pareto); ok {
		return plainPareto{p}
	}
	return plainSingleBest{}
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
// ordinary path. A NaN plan is never dominated, so under Pareto its
// frontiers grow exponentially: paretoMax caps the tables there. The
// parametric and robust models sum the second metric instead of taking
// its maximum.
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

// tooWide reports whether pr is a Pareto pruner and boundCases[c] caps
// its runs below n tables.
func tooWide(c int, pr Pruner, n int) bool {
	_, pareto := pr.(Pareto)
	return pareto && boundCases[c].paretoMax > 0 && n > boundCases[c].paretoMax
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

// checkPairBound runs one partition with pr — SingleBest or a Pareto —
// and with its plain twin and fails unless every memo entry — each scan
// and each admissible set, whether or not it wins at the root — holds
// the same plans, and the results and work counters agree.
func checkPairBound(t testing.TB, q *query.Query, space partition.Space, m, part int, model cost.Model, orders bool, pr Pruner) {
	t.Helper()
	cs, err := partition.ForPartition(space, q.N(), part, m)
	if err != nil {
		t.Fatal(err)
	}
	var engs [2]*Engine
	for i, p := range []Pruner{pr, plainTwin(pr)} {
		if engs[i], err = NewEngine(q, cs, Options{Model: model, InterestingOrders: orders, Pruner: p}); err != nil {
			t.Fatal(err)
		}
	}
	where := fmt.Sprintf("%v n=%d partition %d/%d orders=%v %#v", space, q.N(), part, m, orders, pr)
	sets := []bitset.Set{}
	for tb := 0; tb < q.N(); tb++ {
		sets = append(sets, bitset.Single(tb))
	}
	enum := cs.NewEnumerator()
	for k := 2; k <= q.N(); k++ {
		enum.ForEachAdmissible(k, func(u bitset.Set) bool {
			engs[0].ProcessSet(u)
			engs[1].ProcessSet(u)
			sets = append(sets, u)
			return true
		})
	}
	// Scans come first and sets in the DP's order, so a plan's operands
	// were matched before it: it is the same tree as its counterpart iff
	// the two nodes agree and their operands are matched plans. This is
	// sameTree on every memo entry in one pass over the memo.
	match := map[*plan.Node]*plan.Node{}
	for _, u := range sets {
		g, w := plansOf(engs[0], u), plansOf(engs[1], u)
		if len(g) != len(w) {
			t.Fatalf("%s: set %v: %d plans engine-applied, %d without", where, u, len(g), len(w))
		}
		for i := range g {
			if !sameNode(g[i], w[i]) || match[g[i].Left] != w[i].Left || match[g[i].Right] != w[i].Right {
				t.Fatalf("%s: set %v plan %d engine-applied\n%s\nwithout\n%s", where, u, i, g[i].Format(), w[i].Format())
			}
			match[g[i]] = w[i]
		}
	}
	got, err := engs[0].Finish()
	if err != nil {
		t.Fatal(err)
	}
	want, err := engs[1].Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats engine-applied %+v, without %+v", where, got.Stats, want.Stats)
	}
	if len(got.Plans) != len(want.Plans) {
		t.Fatalf("%s: %d plans engine-applied, %d without", where, len(got.Plans), len(want.Plans))
	}
	for i := range got.Plans {
		if !sameTree(got.Plans[i], want.Plans[i]) {
			t.Fatalf("%s: plan %d engine-applied\n%s\nwithout\n%s", where, i, got.Plans[i].Format(), want.Plans[i].Format())
		}
	}
}

// The rules the engine applies itself change no memo entry: SingleBest's
// pending record and Pareto's inline rule, each with its whole-pair
// skip, on every shape, both spaces, every partition of m ∈ {1, 2, 4, 8},
// the buffer, parametric and robust second metrics, and cost models whose
// candidates are +Inf or NaN. With interesting orders the engine must
// not skip at all.
func TestPairBoundEqualsPlainAdmits(t *testing.T) {
	ns := []int{4, 7, 10}
	if testing.Short() {
		ns = []int{4, 8}
	}
	for ci, c := range boundCases {
		for si, shape := range workload.Shapes {
			for _, n := range ns {
				q := boundQuery(n, shape, int64(10*si+n), c.huge)
				// Each α meets every model, shape and size, if not all at once.
				pruners := []Pruner{SingleBest{}, Pareto{Alpha: boundAlphas[(ci+si+n)%len(boundAlphas)]}}
				for _, space := range []partition.Space{partition.Linear, partition.Bushy} {
					for m := 1; m <= min(8, partition.MaxWorkers(space, n)); m *= 2 {
						for part := 0; part < m; part++ {
							for _, pr := range pruners {
								if tooWide(ci, pr, n) {
									continue
								}
								checkPairBound(t, q, space, m, part, c.model, false, pr)
								// Pareto frontiers with orders grow fast, and
								// both engines take the interface path there.
								if _, pareto := pr.(Pareto); !pareto || n < 10 {
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
// gives it real mutation time. rule picks SingleBest (0) or a Pareto
// factor from boundAlphas.
func FuzzPairBound(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(0), uint8(0), uint8(3), uint8(5), uint8(0), false, uint8(0))
	f.Add(int64(7), uint8(8), uint8(1), uint8(1), uint8(1), uint8(1), uint8(2), false, uint8(0))
	f.Add(int64(3), uint8(7), uint8(4), uint8(1), uint8(0), uint8(0), uint8(4), false, uint8(0))
	f.Add(int64(9), uint8(5), uint8(3), uint8(0), uint8(2), uint8(3), uint8(1), true, uint8(0))
	f.Add(int64(2), uint8(7), uint8(2), uint8(0), uint8(2), uint8(1), uint8(6), false, uint8(3))
	f.Add(int64(5), uint8(6), uint8(0), uint8(1), uint8(1), uint8(0), uint8(4), false, uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, n, shape, space, logM, part, kind uint8, orders bool, rule uint8) {
		sp := partition.Space(space % 2)
		tables := 2 + int(n)%9
		m := min(1<<(int(logM)%4), partition.MaxWorkers(sp, tables))
		ci := int(kind) % len(boundCases)
		c := boundCases[ci]
		var pr Pruner = SingleBest{}
		if r := int(rule) % (1 + len(boundAlphas)); r > 0 {
			pr = Pareto{Alpha: boundAlphas[r-1]}
		}
		if tooWide(ci, pr, tables) {
			t.Skip("NaN Pareto frontiers grow exponentially")
		}
		q := boundQuery(tables, workload.Shapes[int(shape)%len(workload.Shapes)], seed, c.huge)
		checkPairBound(t, q, sp, m, int(part)%m, c.model, orders, pr)
	})
}

// SingleBest's Admits is the rule the engine applies to its pending
// record, and the whole-pair skip's premise: against a retained plan of
// cost kept, a candidate is admitted iff c < kept — so one costing kept
// or more is rejected whatever its order and buffer — and an empty
// frontier admits every candidate, NaN included.
func TestSingleBestBoundImpliesReject(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	costs := []float64{0, 1, 5, 5 + 1e-15, 1e300, inf, nan}
	var empty Frontier
	for _, c := range costs {
		if !(SingleBest{}).Admits(&empty, Candidate{Cost: c, Order: query.NoOrder}) {
			t.Fatalf("empty frontier rejected a candidate of cost %g", c)
		}
	}
	for _, kept := range costs {
		f := FrontierOf(&plan.Node{Cost: kept, Order: query.NoOrder})
		for _, c := range costs {
			for _, order := range []int{query.NoOrder, 0, 3} {
				for _, buf := range []float64{0, 1e9, inf, nan} {
					cand := Candidate{Cost: c, Buffer: buf, Order: order}
					if got := (SingleBest{}).Admits(&f, cand); got != (c < f.At(0).Cost) {
						t.Fatalf("retained cost %g, candidate %+v: Admits = %v, want c < retained", kept, cand, got)
					}
				}
			}
		}
	}
}

// Pareto's whole-pair skip rests on monotone admission: if a frontier
// rejects the bound b, it rejects every candidate c ≥ b componentwise —
// whatever the retained plans, including NaN, ±0, +Inf and α = +Inf
// against zero costs, where Inf·0 = NaN must make the bound pass.
func TestParetoBoundImpliesReject(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	vals := []float64{0, math.Copysign(0, -1), 1, 5, 5 + 1e-15, 1e300, inf, nan}
	var frontiers []Frontier
	for _, c := range vals {
		for _, b := range vals {
			frontiers = append(frontiers, FrontierOf(vecPlan(c, b, query.NoOrder)))
		}
	}
	frontiers = append(frontiers, FrontierOf(vecPlan(10, 1, query.NoOrder), vecPlan(1, 10, query.NoOrder), vecPlan(3, 3, query.NoOrder)))
	for _, alpha := range append([]float64{0, 0.5, nan}, boundAlphas...) {
		pr := Pareto{Alpha: alpha}
		for fi := range frontiers {
			f := &frontiers[fi]
			for _, bc := range vals {
				for _, bb := range vals {
					bound := Candidate{Cost: bc, Buffer: bb, Order: query.NoOrder}
					if pr.Admits(f, bound) {
						continue
					}
					for _, cc := range vals {
						for _, cb := range vals {
							if !(cc >= bc && cb >= bb) {
								continue
							}
							if c := (Candidate{Cost: cc, Buffer: cb, Order: query.NoOrder}); pr.Admits(f, c) {
								t.Fatalf("α=%g frontier %v: bound %+v rejected, candidate %+v admitted", alpha, f.Slice(), bound, c)
							}
						}
					}
				}
			}
		}
	}
}
