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

// boundCases are the cost models × cardinality ranges the bound is
// checked under. All models pass Model.Validate. "allinf" makes every
// join +Inf (a tiny NLBlock overflows the nested loop), so after a set's
// first admitted plan every pair is skipped on +Inf ≥ +Inf; "nlinf" on
// huge cardinalities makes the nested loop Inf/Inf = NaN wherever an
// operand product overflows, so minOp is NaN and pairs take the
// ordinary path.
var boundCases = []struct {
	name  string
	model cost.Model
	huge  bool
}{
	{"default", cost.Default(), false},
	{"default-huge", cost.Default(), true},
	{"allinf", cost.Model{HashFactor: math.Inf(1), SortFactor: math.Inf(1), NLBlock: math.SmallestNonzeroFloat64}, false},
	{"nlinf", cost.Model{HashFactor: 1.2, SortFactor: 1, NLBlock: math.Inf(1)}, false},
	{"nlinf-huge", cost.Model{HashFactor: 1.2, SortFactor: 1, NLBlock: math.Inf(1)}, true},
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

// checkPairBound runs one partition with SingleBest and with
// plainSingleBest and fails unless every memo entry — each scan and each
// admissible set, whether or not it wins at the root — holds the same
// plans, and the results and work counters agree.
func checkPairBound(t testing.TB, q *query.Query, space partition.Space, m, part int, model cost.Model, orders bool) {
	t.Helper()
	cs, err := partition.ForPartition(space, q.N(), part, m)
	if err != nil {
		t.Fatal(err)
	}
	var engs [2]*Engine
	for i, pr := range []Pruner{SingleBest{}, plainSingleBest{}} {
		if engs[i], err = NewEngine(q, cs, Options{Model: model, InterestingOrders: orders, Pruner: pr}); err != nil {
			t.Fatal(err)
		}
	}
	where := fmt.Sprintf("%v n=%d partition %d/%d orders=%v", space, q.N(), part, m, orders)
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
			t.Fatalf("%s: set %v: %d plans with the pending record, %d without", where, u, len(g), len(w))
		}
		for i := range g {
			if !sameNode(g[i], w[i]) || match[g[i].Left] != w[i].Left || match[g[i].Right] != w[i].Right {
				t.Fatalf("%s: set %v plan %d with the pending record\n%s\nwithout\n%s", where, u, i, g[i].Format(), w[i].Format())
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
		t.Fatalf("%s: stats with the pending record %+v, without %+v", where, got.Stats, want.Stats)
	}
	if len(got.Plans) != len(want.Plans) {
		t.Fatalf("%s: %d plans with the pending record, %d without", where, len(got.Plans), len(want.Plans))
	}
	for i := range got.Plans {
		if !sameTree(got.Plans[i], want.Plans[i]) {
			t.Fatalf("%s: plan %d with the pending record\n%s\nwithout\n%s", where, i, got.Plans[i].Format(), want.Plans[i].Format())
		}
	}
}

// SingleBest's pending record, and skipping a pair whose cheapest
// candidate reaches its cost, change no memo entry: every shape, both
// spaces, every partition of m ∈ {1, 2, 4, 8}, and cost models whose
// candidates are +Inf or NaN. With interesting orders the engine must
// not skip at all.
func TestPairBoundEqualsPlainAdmits(t *testing.T) {
	ns := []int{4, 7, 10}
	if testing.Short() {
		ns = []int{4, 8}
	}
	for _, c := range boundCases {
		for si, shape := range workload.Shapes {
			for _, n := range ns {
				q := boundQuery(n, shape, int64(10*si+n), c.huge)
				for _, space := range []partition.Space{partition.Linear, partition.Bushy} {
					for m := 1; m <= min(8, partition.MaxWorkers(space, n)); m *= 2 {
						for part := 0; part < m; part++ {
							checkPairBound(t, q, space, m, part, c.model, false)
							checkPairBound(t, q, space, m, part, c.model, true)
						}
					}
				}
			}
		}
	}
}

// FuzzPairBound is TestPairBoundEqualsPlainAdmits on any query: a wrong
// skip or a wrongly built survivor is silent plan corruption, so CI
// gives it real mutation time.
func FuzzPairBound(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(0), uint8(0), uint8(3), uint8(5), uint8(0), false)
	f.Add(int64(7), uint8(8), uint8(1), uint8(1), uint8(1), uint8(1), uint8(2), false)
	f.Add(int64(3), uint8(7), uint8(4), uint8(1), uint8(0), uint8(0), uint8(4), false)
	f.Add(int64(9), uint8(5), uint8(3), uint8(0), uint8(2), uint8(3), uint8(1), true)
	f.Fuzz(func(t *testing.T, seed int64, n, shape, space, logM, part, kind uint8, orders bool) {
		sp := partition.Space(space % 2)
		tables := 2 + int(n)%9
		m := min(1<<(int(logM)%4), partition.MaxWorkers(sp, tables))
		c := boundCases[int(kind)%len(boundCases)]
		q := boundQuery(tables, workload.Shapes[int(shape)%len(workload.Shapes)], seed, c.huge)
		checkPairBound(t, q, sp, m, int(part)%m, c.model, orders)
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
