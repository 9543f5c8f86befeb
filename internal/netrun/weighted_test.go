package netrun

import (
	"math"
	"testing"
	"time"

	"mpq/internal/core"
	"mpq/internal/partition"
)

func TestWeightedMasterValidation(t *testing.T) {
	if _, err := NewWeightedMaster([]string{"a:1"}, []float64{1, 2}, 0); err == nil {
		t.Fatal("mismatched weight count accepted")
	}
	if _, err := NewWeightedMaster([]string{"a:1", "b:1"}, []float64{1, 0}, 0); err == nil {
		t.Fatal("zero weight accepted")
	}
	if _, err := NewWeightedMaster([]string{"a:1", "b:1"}, []float64{1, -2}, 0); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := NewWeightedMaster([]string{"a:1", "b:1"}, nil, 0); err != nil {
		t.Fatalf("nil weights rejected: %v", err)
	}
}

// End-to-end: a weighted master returns the same optimum.
func TestWeightedMasterEndToEnd(t *testing.T) {
	addrs := startWorkers(t, 2)
	ms, err := NewWeightedMaster(addrs, []float64{3, 1}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	q := gen(t, 8, 3)
	spec := core.JobSpec{Space: partition.Linear, Workers: 16}
	dist, err := ms.Optimize(q, spec)
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.Optimize(q, spec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dist.Best.Cost-local.Best.Cost) > 1e-9*local.Best.Cost {
		t.Fatal("weighted master returned a different optimum")
	}
	if len(dist.PerWorker) != 16 {
		t.Fatalf("reports for %d partitions", len(dist.PerWorker))
	}
}
