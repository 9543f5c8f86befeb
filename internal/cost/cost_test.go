package cost

import (
	"math"
	"math/rand"
	"testing"
)

func TestDefaultValid(t *testing.T) {
	m := Default()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	bad := []Model{
		{},
		{HashFactor: 0, SortFactor: 1, NLBlock: 1},
		{HashFactor: 1, SortFactor: -1, NLBlock: 1},
		{HashFactor: 1, SortFactor: 1, NLBlock: 0},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: bad model %+v validated", i, m)
		}
	}
}

func TestJoinAlgString(t *testing.T) {
	want := map[JoinAlg]string{NestedLoop: "NLJ", Hash: "HJ", SortMerge: "SMJ"}
	for alg, s := range want {
		if alg.String() != s {
			t.Errorf("%d.String() = %q want %q", int(alg), alg.String(), s)
		}
		if !alg.Valid() {
			t.Errorf("%s not valid", s)
		}
	}
	if JoinAlg(99).Valid() {
		t.Error("JoinAlg(99) reported valid")
	}
	if JoinAlg(99).String() != "JoinAlg(99)" {
		t.Errorf("unknown alg string = %q", JoinAlg(99).String())
	}
}

func TestNestedLoopCost(t *testing.T) {
	m := Default()
	if got := m.JoinCost(NestedLoop, 10, 20, false, false); got != 200 {
		t.Fatalf("NLJ cost = %g", got)
	}
	// Sortedness is irrelevant to NLJ.
	if m.JoinCost(NestedLoop, 10, 20, true, true) != 200 {
		t.Fatal("NLJ cost depends on sortedness")
	}
	m.NLBlock = 10
	if got := m.JoinCost(NestedLoop, 10, 20, false, false); got != 20 {
		t.Fatalf("blocked NLJ cost = %g", got)
	}
}

func TestHashCost(t *testing.T) {
	m := Default()
	if got := m.JoinCost(Hash, 100, 50, false, false); math.Abs(got-1.2*150) > 1e-12 {
		t.Fatalf("HJ cost = %g", got)
	}
}

func TestSortMergeCostAndOrders(t *testing.T) {
	m := Default()
	l, r := 64.0, 256.0
	full := m.JoinCost(SortMerge, l, r, false, false)
	want := l*math.Log2(l) + r*math.Log2(r) + l + r
	if math.Abs(full-want) > 1e-9 {
		t.Fatalf("SMJ cost = %g want %g", full, want)
	}
	lSorted := m.JoinCost(SortMerge, l, r, true, false)
	if math.Abs(lSorted-(r*math.Log2(r)+l+r)) > 1e-9 {
		t.Fatalf("SMJ left-sorted cost = %g", lSorted)
	}
	both := m.JoinCost(SortMerge, l, r, true, true)
	if both != l+r {
		t.Fatalf("SMJ both-sorted cost = %g", both)
	}
	if !(both < lSorted && lSorted < full) {
		t.Fatal("sortedness should monotonically reduce SMJ cost")
	}
}

func TestSortMergeTinyInputsClamped(t *testing.T) {
	m := Default()
	got := m.JoinCost(SortMerge, 1, 1, false, false)
	if math.IsNaN(got) || got < 0 {
		t.Fatalf("SMJ cost on tiny inputs = %g", got)
	}
}

func TestScan(t *testing.T) {
	m := Default()
	if m.ScanCost(123) != 123 {
		t.Fatalf("ScanCost = %g", m.ScanCost(123))
	}
	if m.ScanBuffer(1e9) != 1 {
		t.Fatalf("ScanBuffer = %g", m.ScanBuffer(1e9))
	}
}

func TestJoinBuffer(t *testing.T) {
	m := Default()
	if m.JoinBuffer(NestedLoop, 100, 200, false, false) != 2 {
		t.Fatal("NLJ buffer")
	}
	if m.JoinBuffer(Hash, 100, 200, false, false) != 201 {
		t.Fatalf("HJ buffer = %g", m.JoinBuffer(Hash, 100, 200, false, false))
	}
	if got := m.JoinBuffer(SortMerge, 100, 200, false, false); got != 302 {
		t.Fatalf("SMJ buffer = %g", got)
	}
	if got := m.JoinBuffer(SortMerge, 100, 200, true, false); got != 202 {
		t.Fatalf("SMJ buffer left-sorted = %g", got)
	}
	if got := m.JoinBuffer(SortMerge, 100, 200, true, true); got != 2 {
		t.Fatalf("SMJ buffer both-sorted = %g", got)
	}
}

func TestUnknownAlgPanics(t *testing.T) {
	m := Default()
	for name, fn := range map[string]func(){
		"JoinCost":   func() { m.JoinCost(JoinAlg(42), 1, 1, false, false) },
		"JoinBuffer": func() { m.JoinBuffer(JoinAlg(42), 1, 1, false, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with unknown alg did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: all costs are non-negative and monotone in both input
// cardinalities, for all algorithms and sortedness combinations.
func TestCostMonotonicity(t *testing.T) {
	m := Default()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		l := rng.Float64() * 1e6
		r := rng.Float64() * 1e6
		dl := rng.Float64() * 1e5
		dr := rng.Float64() * 1e5
		for _, alg := range Algs {
			for _, ls := range []bool{false, true} {
				for _, rs := range []bool{false, true} {
					c0 := m.JoinCost(alg, l, r, ls, rs)
					if c0 < 0 || math.IsNaN(c0) {
						t.Fatalf("%v cost(%g,%g) = %g", alg, l, r, c0)
					}
					if m.JoinCost(alg, l+dl, r, ls, rs) < c0-1e-9 {
						t.Fatalf("%v cost not monotone in left", alg)
					}
					if m.JoinCost(alg, l, r+dr, ls, rs) < c0-1e-9 {
						t.Fatalf("%v cost not monotone in right", alg)
					}
					b0 := m.JoinBuffer(alg, l, r, ls, rs)
					if b0 < 0 || math.IsNaN(b0) {
						t.Fatalf("%v buffer = %g", alg, b0)
					}
				}
			}
		}
	}
}

// The sort-merge formulas over stored per-input terms are the JoinCost
// and JoinSecond formulas themselves, bit for bit: the dynamic program
// computes SortTerm/SecondSortTerm once per table set and must get, for
// every candidate, exactly the value the reference formula gives.
func TestSortMergeOverStoredTermsIsExact(t *testing.T) {
	cards := []float64{0.25, 1, 1.999, 2, 3, 7.5, 1e3, 123456.789, 3.3e11}
	flags := []bool{false, true}
	for _, m := range []Model{Default(), {HashFactor: 1.7, SortFactor: 0.37, NLBlock: 3}, Parametric(2.5), Robust(4)} {
		for _, l := range cards {
			for _, r := range cards {
				if m.NestedLoopCost(l, r) != m.JoinCost(NestedLoop, l, r, false, false) ||
					m.HashCost(l, r) != m.JoinCost(Hash, l, r, true, true) {
					t.Fatalf("NestedLoopCost/HashCost(%g, %g) differ from JoinCost", l, r)
				}
				for _, ls := range flags {
					for _, rs := range flags {
						// JoinCost(SortMerge) == l + r + [!ls]SortTerm(l) + [!rs]SortTerm(r), in that order.
						want := l + r
						if !ls {
							want += m.SortTerm(l)
						}
						if !rs {
							want += m.SortTerm(r)
						}
						if got := m.JoinCost(SortMerge, l, r, ls, rs); got != want {
							t.Fatalf("JoinCost(SMJ, %g, %g, %v, %v) = %b, terms sum to %b", l, r, ls, rs, got, want)
						}
						if got := m.SortMergeCost(l, r, m.SortTerm(l), m.SortTerm(r), ls, rs); got != want {
							t.Fatalf("SortMergeCost(%g, %g, %v, %v) = %b, want %b", l, r, ls, rs, got, want)
						}
						// Second metric: the operands' high-endpoint cardinalities
						// differ from the nominal ones only under RobustCost.
						lHi, rHi := l, r
						if m.Second == RobustCost {
							lHi, rHi = 3*l, 1.5*r
						}
						got := m.SortMergeSecond(lHi, rHi, m.SecondSortTerm(l, lHi), m.SecondSortTerm(r, rHi), ls, rs)
						if ref := m.JoinSecond(SortMerge, lHi, rHi, ls, rs); got != ref {
							t.Fatalf("second %d: SortMergeSecond(%g, %g, %v, %v) = %b, JoinSecond = %b", m.Second, lHi, rHi, ls, rs, got, ref)
						}
					}
				}
			}
		}
	}
}

func TestSortTermClamp(t *testing.T) {
	m := Model{HashFactor: 1, SortFactor: 0.5, NLBlock: 1}
	for _, c := range []float64{0.1, 1, 1.999} {
		if got := m.SortTerm(c); got != 0.5*c {
			t.Errorf("SortTerm(%g) = %g, want the log2 clamp 0.5·card·1 = %g", c, got, 0.5*c)
		}
	}
	if got, want := m.SortTerm(8), 0.5*8*3; got != want {
		t.Errorf("SortTerm(8) = %g, want %g", got, want)
	}
}
