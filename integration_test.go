package mpq_test

import (
	"context"
	"math"
	"testing"
	"time"

	"mpq"
	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/sma"
)

// TestAllEnginesAgree is the repository's capstone integration test: the
// goroutine engine, the cluster simulator, the SMA baseline, the TCP
// runtime, and the serial dynamic program must all find a plan with the
// same cost for the same query — across plan spaces, objectives and
// worker counts — and the chosen plans must execute to the same result
// on the reference executor.
func TestAllEnginesAgree(t *testing.T) {
	params := mpq.NewWorkloadParams(6, mpq.Star)
	params.MinCard, params.MaxCard = 20, 150
	params.MinDomain, params.MaxDomain = 4, 40
	cat, q, err := mpq.GenerateWorkload(params, 123)
	if err != nil {
		t.Fatal(err)
	}
	db, err := mpq.GenerateData(cat, 7, mpq.ExecLimits{})
	if err != nil {
		t.Fatal(err)
	}

	w, err := mpq.ListenWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tcp, err := mpq.NewTCPEngine([]string{w.Addr()},
		mpq.WithMasterOptions(mpq.MasterOptions{Timeout: 30 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for _, space := range []mpq.Space{mpq.Linear, mpq.Bushy} {
		workers := 4
		spec := mpq.JobSpec{Space: space, Workers: workers}

		serial := serialBest(t, q, space, false)
		local, err := mpq.NewInProcessEngine().Optimize(ctx, q, spec)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := mpq.NewSimEngine().Optimize(ctx, q, spec)
		if err != nil {
			t.Fatal(err)
		}
		smaRes, err := sma.Run(ctx, mpq.DefaultClusterModel(), q, core.JobSpec{Space: partition.Space(space), Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		dist, err := tcp.Optimize(ctx, q, spec)
		if err != nil {
			t.Fatal(err)
		}

		costs := map[string]float64{
			"serial":      serial.Cost,
			"goroutines":  local.Best.Cost,
			"cluster-sim": sim.Best.Cost,
			"sma":         smaRes.Best.Cost,
			"tcp":         dist.Best.Cost,
		}
		for name, c := range costs {
			if math.Abs(c-serial.Cost) > 1e-9*serial.Cost {
				t.Fatalf("%v %s cost %g != serial %g", space, name, c, serial.Cost)
			}
		}

		// All plans compute the same result when actually executed.
		want := ""
		for name, p := range map[string]*mpq.Plan{
			"serial": serial, "goroutines": local.Best, "tcp": dist.Best, "sma": smaRes.Best,
		} {
			res, err := mpq.ExecutePlan(p, q, db, mpq.ExecLimits{})
			if err != nil {
				t.Fatalf("%v %s: execute: %v", space, name, err)
			}
			if want == "" {
				want = res.Fingerprint()
			} else if res.Fingerprint() != want {
				t.Fatalf("%v %s executed to a different result", space, name)
			}
		}
	}
}

// TestMultiObjectiveEnginesAgree extends the capstone to Pareto mode.
func TestMultiObjectiveEnginesAgree(t *testing.T) {
	_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(7, mpq.Chain), 9)
	if err != nil {
		t.Fatal(err)
	}
	spec := mpq.JobSpec{
		Space: mpq.Linear, Workers: 4,
		Objective: mpq.MultiObjective, Alpha: 1,
	}
	local, err := mpq.NewInProcessEngine().Optimize(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := mpq.NewSimEngine().Optimize(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(local.Frontier) != len(sim.Frontier) {
		t.Fatalf("frontier sizes differ: %d vs %d", len(local.Frontier), len(sim.Frontier))
	}
	for i := range local.Frontier {
		a, b := local.Frontier[i], sim.Frontier[i]
		if math.Abs(a.Cost-b.Cost) > 1e-9*a.Cost || math.Abs(a.Buffer-b.Buffer) > 1e-9*a.Buffer {
			t.Fatalf("frontier[%d] differs between engines", i)
		}
	}
}

// TestParametricThroughPublicAPI closes the loop on the PQO extension.
func TestParametricThroughPublicAPI(t *testing.T) {
	_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(8, mpq.Star), 31)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := mpq.NewInProcessEngine().Optimize(context.Background(), q, mpq.ParametricSpec(mpq.Linear, 4, 20))
	if err != nil {
		t.Fatal(err)
	}
	frontier := ans.Frontier
	bps, err := mpq.ParametricBreakpoints(frontier)
	if err != nil {
		t.Fatal(err)
	}
	if bps[0] != 0 || bps[len(bps)-1] != 1 {
		t.Fatalf("breakpoints %v must span [0,1]", bps)
	}
	// The envelope is non-decreasing in θ (hash joins only get pricier).
	prev := -1.0
	for theta := 0.0; theta <= 1.0; theta += 0.125 {
		best, err := mpq.ParametricBest(frontier, theta)
		if err != nil {
			t.Fatal(err)
		}
		c := mpq.ParametricCostAt(best, theta)
		if c < prev {
			t.Fatalf("envelope decreased at θ=%g", theta)
		}
		prev = c
	}
}
