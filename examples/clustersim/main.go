// Cluster simulation: run MPQ on a simulated 100-node shared-nothing
// cluster through the SimEngine and watch the paper's scaling
// behaviour — worker time and memory shrink as workers double, network
// traffic stays tiny because only (query, partition ID) and one plan
// per worker ever cross the network. Every answer carries the
// simulator's measurement record in Answer.Cluster.
//
// Run with: go run ./examples/clustersim
package main

import (
	"context"
	"fmt"
	"log"

	"mpq"
)

func main() {
	ctx := context.Background()
	// A 16-table star query: 2^16 table sets — expensive enough that
	// parallelization pays (the paper's Figure 2 regime).
	_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(16, mpq.Star), 3)
	if err != nil {
		log.Fatal(err)
	}
	eng := mpq.NewSimEngine(mpq.WithClusterModel(mpq.DefaultClusterModel()))

	fmt.Println("MPQ on a simulated shared-nothing cluster (Linear-16, single objective)")
	fmt.Printf("%-8s %-12s %-12s %-12s %-16s %-10s\n",
		"workers", "time", "w-time", "net(bytes)", "memo(relations)", "speedup")
	var serial float64
	for m := 1; m <= mpq.MaxWorkers(mpq.Linear, q.N()) && m <= 128; m *= 2 {
		ans, err := eng.Optimize(ctx, q, mpq.JobSpec{Space: mpq.Linear, Workers: m})
		if err != nil {
			log.Fatal(err)
		}
		t := ans.Cluster.VirtualTime
		if m == 1 {
			serial = float64(ans.MaxWorkerElapsed)
		}
		fmt.Printf("%-8d %-12v %-12v %-12d %-16d %-10.2f\n",
			m, t.Round(100_000), ans.MaxWorkerElapsed.Round(100_000),
			ans.Cluster.Bytes, ans.Stats.MemoEntries, serial/float64(t))
	}

	fmt.Println("\nEvery simulated run returns the exact same optimal plan:")
	ans, err := eng.Optimize(ctx, q, mpq.JobSpec{Space: mpq.Linear, Workers: 64})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ans.Best)
}
