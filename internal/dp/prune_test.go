package dp

import (
	"math"
	"sort"
	"testing"

	"mpq/internal/plan"
)

// pruneValues are the costs and buffers FuzzPrune's plans draw from:
// few enough that ties are common, with ±Inf, NaN and extremes.
var pruneValues = [16]float64{
	0, 1, 2, 3, 4, 0.5, 1.5, 2.5, 10, 100, -1, 1e300, 5e-324,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// pruneAlphas are the factors FuzzPrune's Pareto rule applies.
var pruneAlphas = [8]float64{math.NaN(), 0, 0.5, 1, 1.25, 2, 10, math.Inf(1)}

// referencePrune is the master's final prune written out plainly: the
// first strict minimum for SingleBest, and for Pareto
// each plan through insertRootPlan with α clamped to ≥ 1, then a stable
// sort by cost.
func referencePrune(p Pruner, frontiers [][]*plan.Node) []*plan.Node {
	pa, ok := p.(Pareto)
	if !ok {
		var best *plan.Node
		for _, f := range frontiers {
			for _, n := range f {
				if best == nil || n.Cost < best.Cost {
					best = n
				}
			}
		}
		if best == nil {
			return nil
		}
		return []*plan.Node{best}
	}
	alpha := pa.Alpha
	if alpha < 1 {
		alpha = 1
	}
	var out []*plan.Node
	for _, f := range frontiers {
		for _, n := range f {
			out = insertRootPlan(out, n, alpha)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out
}

// insertRootPlan is Pareto's rule without order compatibility: p is
// rejected if a kept plan α-dominates it, and otherwise evicts the kept
// plans it dominates exactly and goes last.
func insertRootPlan(plans []*plan.Node, p *plan.Node, alpha float64) []*plan.Node {
	for _, q := range plans {
		if q.Cost <= alpha*p.Cost && q.Buffer <= alpha*p.Buffer {
			return plans
		}
	}
	out := plans[:0]
	for _, q := range plans {
		if !(p.Cost <= q.Cost && p.Buffer <= q.Buffer) {
			out = append(out, q)
		}
	}
	return append(out, p)
}

// FuzzPrune checks Prune against referencePrune. rule picks the Pruner:
// 0 or 1 SingleBest, else Pareto with one of pruneAlphas. Each
// byte of data is a plan whose cost and buffer are pruneValues[b>>4] and
// pruneValues[b&15], except 0xff, which starts the next frontier. Plans
// carry orders, which Prune must ignore.
func FuzzPrune(f *testing.F) {
	f.Add(uint8(0), []byte{0x12, 0x21, 0xff, 0x11, 0x10})
	f.Add(uint8(1), []byte{0x23, 0x13, 0xff, 0xf0, 0x0f, 0x13})
	f.Add(uint8(5), []byte{0x13, 0x22, 0x31, 0xff, 0x12, 0x21, 0x55, 0x66})
	f.Add(uint8(6), []byte{0x18, 0x81, 0x26, 0x62, 0xff, 0x44, 0x53, 0x35})
	f.Add(uint8(7), []byte{0xa1, 0x1a, 0xd0, 0x0d, 0xe3, 0xff, 0xf2, 0x2f})
	f.Add(uint8(3), []byte{0xf1, 0x1f, 0xff, 0xff, 0x11, 0x11, 0xc0})
	f.Add(uint8(7), []byte{0x13, 0x21})
	f.Add(uint8(2), []byte{})
	// At α = 1: (2.5, 1.5) evicts the middle record (3, 2) of three, and
	// (1.5, 1.5) the two middle records (2, 3) and (3, 2) of four.
	f.Add(uint8(5), []byte{0x14, 0x32, 0x41, 0x76})
	f.Add(uint8(5), []byte{0x14, 0x23, 0x32, 0x41, 0x66})
	f.Fuzz(func(t *testing.T, rule uint8, data []byte) {
		var p Pruner = SingleBest{}
		if rule%10 > 1 {
			p = Pareto{Alpha: pruneAlphas[rule%10-2]}
		}
		frontiers := [][]*plan.Node{nil}
		for i, b := range data {
			if b == 0xff {
				frontiers = append(frontiers, nil)
				continue
			}
			n := &plan.Node{Cost: pruneValues[b>>4], Buffer: pruneValues[b&15], Order: i % 3}
			frontiers[len(frontiers)-1] = append(frontiers[len(frontiers)-1], n)
		}
		PruneCheckingKeys(func(err error) { t.Fatal(err) }, p, frontiers...)
		got, want := Prune(p, frontiers...), referencePrune(p, frontiers)
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("%T%+v: Prune kept %d plans (nil %v), the reference %d (nil %v)", p, p, len(got), got == nil, len(want), want == nil)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%T%+v: survivor %d is (%g, %g), the reference's (%g, %g)", p, p, i, got[i].Cost, got[i].Buffer, want[i].Cost, want[i].Buffer)
			}
		}
	})
}
