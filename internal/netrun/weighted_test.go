package netrun

import (
	"context"
	"math"
	"testing"
	"time"

	"mpq/internal/core"
	"mpq/internal/partition"
)

func TestWeightedMasterValidation(t *testing.T) {
	if _, err := NewMaster([]string{"a:1"}, Options{Weights: []float64{1, 2}, Timeout: 0}); err == nil {
		t.Fatal("mismatched weight count accepted")
	}
	if _, err := NewMaster([]string{"a:1", "b:1"}, Options{Weights: []float64{1, 0}, Timeout: 0}); err == nil {
		t.Fatal("zero weight accepted")
	}
	if _, err := NewMaster([]string{"a:1", "b:1"}, Options{Weights: []float64{1, -2}, Timeout: 0}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := NewMaster([]string{"a:1", "b:1"}, Options{Weights: nil, Timeout: 0}); err != nil {
		t.Fatalf("nil weights rejected: %v", err)
	}
}

// End-to-end: a weighted master returns the same optimum.
func TestWeightedMasterEndToEnd(t *testing.T) {
	addrs := startWorkers(t, 2)
	ms, err := NewMaster(addrs, Options{Weights: []float64{3, 1}, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	q := gen(t, 8, 3)
	spec := core.JobSpec{Space: partition.Linear, Workers: 16}
	dist, err := ms.Optimize(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.OptimizeContext(context.Background(), q, spec)
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
