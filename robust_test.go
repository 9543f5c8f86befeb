package mpq_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"mpq"
	"mpq/internal/brute"
	"mpq/internal/cost"
)

// TestPlanFingerprintsPinned pins the exact plans the optimizer picks
// on fixed workloads. The robust-planning machinery threads extra state
// (high-endpoint cardinalities, a second objective) through the DP; the
// pins prove the zero-noise, single-objective path still produces
// bit-identical plans — the guarantee that adding robustness changed
// nothing for everyone not using it.
func TestPlanFingerprintsPinned(t *testing.T) {
	cases := []struct {
		n       int
		shape   mpq.Shape
		seed    int64
		workers int
		want    string
	}{
		{8, mpq.Star, 1, 1, "ac75bc0f2235341e20d6df08fe04c6562e0c8c6191c5d21fd9fa4dcb824f3ed7"},
		{8, mpq.Star, 1, 4, "ac75bc0f2235341e20d6df08fe04c6562e0c8c6191c5d21fd9fa4dcb824f3ed7"},
		{9, mpq.Chain, 3, 4, "3d08d8acda1902d6618147b8373b4527282b7796904407a6bf0d2dbf57c66e8b"},
		{7, mpq.Snowflake, 5, 2, "9e7f17805cf6e7911871d93c0de0ae127ddb03f1d4618243fef57f01b307724c"},
	}
	eng := mpq.NewSerialEngine()
	ctx := context.Background()
	for _, c := range cases {
		_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(c.n, c.shape), c.seed)
		if err != nil {
			t.Fatal(err)
		}
		// Zero-magnitude noise must be a no-op on this path too.
		q2, err := mpq.PerturbQuery(q, 0, 42)
		if err != nil {
			t.Fatal(err)
		}
		if q2 != q {
			t.Fatal("PerturbQuery with magnitude 0 copied the query")
		}
		ans, err := eng.Optimize(ctx, q2, mpq.JobSpec{Space: mpq.Linear, Workers: c.workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := mpq.PlanFingerprint(ans.Best); got != c.want {
			t.Errorf("%v n=%d seed=%d w=%d: fingerprint %s, want %s",
				c.shape, c.n, c.seed, c.workers, got, c.want)
		}
	}
}

// TestRobustWorstCaseGuarantee: the one promise robust mode makes is
// that no plan — in particular not the point-optimal one — has a lower
// worst-case cost over the uncertainty band. Check it by re-costing
// both chosen plans under the band's high endpoint, and check the
// robust plan's Buffer annotation is exactly that worst-case cost.
func TestRobustWorstCaseGuarantee(t *testing.T) {
	m := mpq.DefaultCostModel()
	ctx := context.Background()
	eng := mpq.NewSerialEngine()
	for _, c := range []struct {
		n     int
		shape mpq.Shape
		seed  int64
		band  float64
	}{
		{8, mpq.Star, 1, 2},
		{9, mpq.Chain, 3, 3},
		{7, mpq.Snowflake, 5, 1.5},
		{8, mpq.Cycle, 7, 2},
	} {
		_, truth, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(c.n, c.shape), c.seed)
		if err != nil {
			t.Fatal(err)
		}
		noisy, err := mpq.PerturbQuery(truth, c.band-1, c.seed+100)
		if err != nil {
			t.Fatal(err)
		}
		point, err := eng.Optimize(ctx, noisy, mpq.JobSpec{Space: mpq.Linear, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		robust, err := eng.Optimize(ctx, noisy, mpq.JobSpec{
			Space: mpq.Linear, Workers: 2,
			Objective: mpq.RobustObjective, RobustBand: c.band,
		})
		if err != nil {
			t.Fatal(err)
		}
		hi, err := mpq.InflateQuery(noisy, c.band)
		if err != nil {
			t.Fatal(err)
		}
		pointWC, err := mpq.ReannotatePlan(point.Best, hi, m)
		if err != nil {
			t.Fatal(err)
		}
		robustWC, err := mpq.ReannotatePlan(robust.Best, hi, m)
		if err != nil {
			t.Fatal(err)
		}
		// The DP accumulates the worst-case cost per plan set while
		// Reannotate recomputes it per tree, so the two differ by float
		// association only.
		if d := math.Abs(robust.Best.Buffer - robustWC.Cost); d > 1e-6*robustWC.Cost {
			t.Errorf("%v: Buffer annotation %g != re-costed worst case %g",
				c.shape, robust.Best.Buffer, robustWC.Cost)
		}
		if robust.Best.Buffer > pointWC.Cost*(1+1e-9) {
			t.Errorf("%v band %g: robust worst case %g exceeds point plan's %g",
				c.shape, c.band, robust.Best.Buffer, pointWC.Cost)
		}
		// Every frontier plan must be annotated nominal-vs-worst-case.
		for i, p := range robust.Frontier {
			if !(p.Buffer >= p.Cost) {
				t.Errorf("%v frontier[%d]: worst case %g below nominal %g", c.shape, i, p.Buffer, p.Cost)
			}
		}
	}
}

// TestRobustEngineEquivalence: robust jobs must come back bit-identical
// from every partitioned engine, and the serial baseline must agree on
// the best worst-case cost.
func TestRobustEngineEquivalence(t *testing.T) {
	tcp, _ := startTCPEngine(t, 2)
	engines := []struct {
		name string
		eng  mpq.Engine
	}{
		{"inprocess", mpq.NewInProcessEngine()},
		{"sim", mpq.NewSimEngine()},
		{"tcp", tcp},
	}
	_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(8, mpq.Star), 1)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := mpq.PerturbQuery(q, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	spec := mpq.JobSpec{
		Space: mpq.Linear, Workers: 4,
		Objective: mpq.RobustObjective, RobustBand: 2,
	}
	ctx := context.Background()
	var wantBest string
	var wantFrontier []string
	var wantWC float64
	for _, e := range engines {
		ans, err := e.eng.Optimize(ctx, noisy, spec)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		bestFP := mpq.PlanFingerprint(ans.Best)
		var frontFP []string
		for _, p := range ans.Frontier {
			frontFP = append(frontFP, mpq.PlanFingerprint(p))
		}
		if wantBest == "" {
			wantBest, wantFrontier, wantWC = bestFP, frontFP, ans.Best.Buffer
			continue
		}
		if bestFP != wantBest {
			t.Fatalf("%s best plan differs: %s", e.name, ans.Best)
		}
		if len(frontFP) != len(wantFrontier) {
			t.Fatalf("%s frontier size %d != %d", e.name, len(frontFP), len(wantFrontier))
		}
		for i := range frontFP {
			if frontFP[i] != wantFrontier[i] {
				t.Fatalf("%s frontier plan %d differs", e.name, i)
			}
		}
	}
	serial, err := mpq.NewSerialEngine().Optimize(ctx, noisy, spec)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(serial.Best.Buffer - wantWC); d > 1e-9*wantWC {
		t.Fatalf("serial worst-case cost %g != partitioned %g", serial.Best.Buffer, wantWC)
	}
}

// TestRobustBestMatchesExhaustiveOracle is the robust half of the
// brute-force oracle: the smallest worst-case cost (Buffer) over every
// plan under Robust(2) is the Best.Buffer of a robust job with that band
// and α = 1, on the serial engine and on two in-process partitions.
func TestRobustBestMatchesExhaustiveOracle(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		n     int
		shape mpq.Shape
		seed  int64
		space mpq.Space
	}{
		{5, mpq.Chain, 3, mpq.Linear},
		{6, mpq.Star, 1, mpq.Linear},
		{5, mpq.Cycle, 7, mpq.Bushy},
	} {
		_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(c.n, c.shape), c.seed)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Inf(1)
		for _, p := range brute.AllPlans(q, c.space, brute.Options{Model: cost.Robust(2)}) {
			want = math.Min(want, p.Buffer)
		}
		spec := mpq.JobSpec{Space: c.space, Workers: 2, Objective: mpq.RobustObjective, RobustBand: 2, Alpha: 1}
		for name, eng := range map[string]mpq.Engine{"serial": mpq.NewSerialEngine(), "local": mpq.NewInProcessEngine()} {
			ans, err := eng.Optimize(ctx, q, spec)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(ans.Best.Buffer - want); d > 1e-9*want {
				t.Errorf("%v n=%d %v, %s: worst case %g, exhaustive minimum %g", c.shape, c.n, c.space, name, ans.Best.Buffer, want)
			}
		}
	}
}

// TestRobustSpecValidation: bad robust parameters are rejected before
// any work happens.
func TestRobustSpecValidation(t *testing.T) {
	_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(6, mpq.Star), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eng := mpq.NewSerialEngine()
	if _, err := eng.Optimize(ctx, q, mpq.JobSpec{
		Space: mpq.Linear, Workers: 1,
		Objective: mpq.RobustObjective, RobustBand: 0.5,
	}); err == nil {
		t.Fatal("robust band below 1 accepted")
	}
	bad := mpq.JobSpec{Space: mpq.Linear, Workers: 1, Objective: mpq.RobustObjective}
	bad.CostModel = mpq.DefaultCostModel()
	bad.CostModel.Second = cost.ParametricCost
	if _, err := eng.Optimize(ctx, q, bad); err == nil {
		t.Fatal("robust job with an explicit second metric accepted")
	}
	// Only robust jobs read the band: setting it on a single-objective
	// job must not change the chosen plan.
	a, err := eng.Optimize(ctx, q, mpq.JobSpec{Space: mpq.Linear, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Optimize(ctx, q, mpq.JobSpec{Space: mpq.Linear, Workers: 1, RobustBand: 4})
	if err != nil {
		t.Fatal(err)
	}
	if mpq.PlanFingerprint(a.Best) != mpq.PlanFingerprint(b.Best) {
		t.Fatal("RobustBand changed a single-objective plan")
	}
}

// TestRobustCostModelIsNotAJobSetting: a job asks for robust search one
// way, RobustObjective with RobustBand. A spec that sets the RobustCost
// metric itself is refused with a pointer to that way — by Validate, by
// the in-process engine and by the TCP engine alike, since the job frame
// carries only the spec's band.
func TestRobustCostModelIsNotAJobSetting(t *testing.T) {
	_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(6, mpq.Star), 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := mpq.JobSpec{Space: mpq.Linear, Workers: 2, Objective: mpq.MultiObjective, CostModel: cost.Robust(2)}
	check := func(who string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "RobustObjective") {
			t.Errorf("%s: error %v, want one that points to RobustObjective", who, err)
		}
	}
	check("Validate", spec.Validate(q.N()))
	tcp, _ := startTCPEngine(t, 2)
	for _, e := range []struct {
		name string
		eng  mpq.Engine
	}{{"inprocess", mpq.NewInProcessEngine()}, {"tcp", tcp}} {
		_, err := e.eng.Optimize(context.Background(), q, spec)
		check(e.name, err)
	}
}
