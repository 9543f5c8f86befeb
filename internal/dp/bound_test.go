package dp

import (
	"fmt"
	"math"
	"testing"

	"mpq/internal/cost"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/query"
	"mpq/internal/workload"
)

// plainSingleBest is SingleBest without its bound: every candidate of
// every operand pair goes through Admits, as before whole-pair pruning.
// It keeps the costOnly marker, so both engines compute the same scalars.
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

// sameTree reports whether a and b are the same plan, node for node,
// with every float annotation printed identically (NaN included).
func sameTree(a, b *plan.Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	x, y := *a, *b
	x.Left, x.Right, y.Left, y.Right = nil, nil, nil, nil
	return fmt.Sprint(x) == fmt.Sprint(y) && sameTree(a.Left, b.Left) && sameTree(a.Right, b.Right)
}

// checkPairBound runs one partition with SingleBest and with
// plainSingleBest and fails unless plans and work counters agree.
func checkPairBound(t testing.TB, q *query.Query, space partition.Space, m, part int, model cost.Model, orders bool) {
	t.Helper()
	cs, err := partition.ForPartition(space, q.N(), part, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(q, cs, Options{Model: model, InterestingOrders: orders})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(q, cs, Options{Model: model, InterestingOrders: orders, Pruner: plainSingleBest{}})
	if err != nil {
		t.Fatal(err)
	}
	where := fmt.Sprintf("%v n=%d partition %d/%d orders=%v", space, q.N(), part, m, orders)
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats with the bound %+v, without %+v", where, got.Stats, want.Stats)
	}
	if len(got.Plans) != len(want.Plans) {
		t.Fatalf("%s: %d plans with the bound, %d without", where, len(got.Plans), len(want.Plans))
	}
	for i := range got.Plans {
		if !sameTree(got.Plans[i], want.Plans[i]) {
			t.Fatalf("%s: plan %d with the bound\n%s\nwithout\n%s", where, i, got.Plans[i].Format(), want.Plans[i].Format())
		}
	}
}

// Skipping a pair whose cheapest candidate reaches SingleBest's bound
// changes nothing: every shape, both spaces, every partition of m ∈ {1,
// 2, 4, 8}, and cost models whose candidates are +Inf or NaN. With
// interesting orders the engine must not use the bound at all.
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
// skip is silent plan corruption, so CI gives it real mutation time.
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

// The bound is sound for SingleBest's Admits: a candidate costing
// bound(f) or more is rejected whatever its order and buffer, and an
// empty frontier bounds nothing.
func TestSingleBestBoundImpliesReject(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	var empty Frontier
	if b := (SingleBest{}).bound(&empty); !math.IsNaN(b) {
		t.Fatalf("bound of an empty frontier = %g, want NaN", b)
	}
	costs := []float64{0, 1, 5, 5 + 1e-15, 1e300, inf, nan}
	for _, kept := range costs {
		f := FrontierOf(&plan.Node{Cost: kept, Order: query.NoOrder})
		b := SingleBest{}.bound(&f)
		if math.Float64bits(b) != math.Float64bits(kept) {
			t.Fatalf("bound = %g, want the retained cost %g", b, kept)
		}
		for _, c := range costs {
			for _, order := range []int{query.NoOrder, 0, 3} {
				for _, buf := range []float64{0, 1e9, inf, nan} {
					cand := Candidate{Cost: c, Buffer: buf, Order: order}
					if c >= b && (SingleBest{}).Admits(&f, cand) {
						t.Fatalf("bound %g, candidate %+v: admitted at or above the bound", b, cand)
					}
				}
			}
		}
	}
}
