package mpq_test

import (
	"context"
	"fmt"
	"testing"

	"mpq"
	"mpq/internal/core"
	"mpq/internal/dp"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/wire"
)

// freshRuntimeReference computes the answer with nothing pooled: one DP
// run per partition on a fresh dp.Runtime, aggregated in partition-ID
// order by the shared FinalPrune. Every engine — all of which run
// pooled workers whose runtimes carry earlier queries' slabs — must
// return bit-identical wire fingerprints.
func freshRuntimeReference(t *testing.T, q *mpq.Query, spec mpq.JobSpec) (best string, frontier []string) {
	t.Helper()
	workers := spec.Workers
	frontiers := make([][]*plan.Node, 0, workers)
	for partID := 0; partID < workers; partID++ {
		cs, err := partition.ForPartition(spec.Space, q.N(), partID, workers)
		if err != nil {
			t.Fatal(err)
		}
		opts := spec.DPOptions()
		opts.Runtime = dp.NewRuntime()
		res, err := dp.RunContext(context.Background(), q, cs, opts)
		if err != nil {
			t.Fatal(err)
		}
		frontiers = append(frontiers, res.Plans)
	}
	b, f, err := core.FinalPrune(spec, frontiers)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(f))
	for i, p := range f {
		out[i] = wire.PlanFingerprint(p)
	}
	return wire.PlanFingerprint(b), out
}

// TestArenaOnOffBitIdenticalAcrossEngines pins the pooling safety claim
// end to end: pooled execution must be bit-identical (wire
// fingerprints) to the fresh-runtime reference on every workload family
// and through all four engines. (The name predates the removal of the
// heap-allocating DP path the reference used to run.) The engines run
// in sequence against the same worker pool, so later rows also exercise
// pooled runtimes with stale capacity left by earlier (larger) rows.
func TestArenaOnOffBitIdenticalAcrossEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-engine sweep; run without -short")
	}
	tcp, _ := startTCPEngine(t, 2)
	engines := []struct {
		name string
		eng  mpq.Engine
	}{
		{"inprocess", mpq.NewInProcessEngine()},
		{"sim", mpq.NewSimEngine()},
		{"tcp", tcp},
	}
	serial := mpq.NewSerialEngine()
	ctx := context.Background()
	for _, row := range engineWorkloads(t) {
		t.Run(row.name, func(t *testing.T) {
			wantBest, wantFrontier := freshRuntimeReference(t, row.q, row.spec)
			for _, e := range engines {
				ans, err := e.eng.Optimize(ctx, row.q, row.spec)
				if err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
				if got := mpq.PlanFingerprint(ans.Best); got != wantBest {
					t.Fatalf("%s: pooled best plan differs from fresh-runtime reference: %s", e.name, ans.Best)
				}
				if len(ans.Frontier) != len(wantFrontier) {
					t.Fatalf("%s: frontier size %d != %d", e.name, len(ans.Frontier), len(wantFrontier))
				}
				for i, p := range ans.Frontier {
					if mpq.PlanFingerprint(p) != wantFrontier[i] {
						t.Fatalf("%s: frontier plan %d differs from fresh-runtime reference", e.name, i)
					}
				}
			}
			// The serial engine searches the unpartitioned space: compare
			// against the reference of the same (workers=1) search.
			serialSpec := row.spec
			serialSpec.Workers = 1
			serialWant, _ := freshRuntimeReference(t, row.q, serialSpec)
			ans, err := serial.Optimize(ctx, row.q, row.spec)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			if got := mpq.PlanFingerprint(ans.Best); got != serialWant {
				t.Fatalf("serial: pooled best plan differs from fresh-runtime reference: %s", ans.Best)
			}
		})
	}
}

// The serial engine with interesting orders in both plan spaces: the
// cross-engine sweep above has an order-aware row only in the linear
// space, and skips under -short. (The name predates the Engine API: the
// test used to drive the removed OptimizeSerial wrapper.)
func TestArenaOnOffBitIdenticalLegacySerial(t *testing.T) {
	for _, space := range []mpq.Space{mpq.Linear, mpq.Bushy} {
		t.Run(fmt.Sprint(space), func(t *testing.T) {
			_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(8, mpq.Cycle), 11)
			if err != nil {
				t.Fatal(err)
			}
			spec := mpq.JobSpec{Space: space, Workers: 1, InterestingOrders: true}
			wantBest, _ := freshRuntimeReference(t, q, spec)
			got, err := mpq.NewSerialEngine().Optimize(context.Background(), q, spec)
			if err != nil {
				t.Fatal(err)
			}
			if mpq.PlanFingerprint(got.Best) != wantBest {
				t.Fatalf("%v: serial plan differs from fresh-runtime reference", space)
			}
		})
	}
}
