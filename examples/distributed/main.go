// Distributed MPQ over real TCP: this example starts four worker
// servers on loopback sockets (in production they would be separate
// machines — see cmd/mpqnode), points a TCPEngine at them, and
// optimizes a query with one job frame per worker and one response
// frame back — the paper's one-round protocol on an actual network.
//
// It then demonstrates the two things the unified Engine API adds:
//
//   - OptimizeBatch pipelines several queries through one pool of
//     keep-alive connections, and the engine keeps them warm across
//     calls: the batch after the first query dials nothing — watch
//     Answer.Net.Dials.
//   - A re-run while killing one worker mid-query: the fault-tolerant
//     master notices the dead node (per-job deadlines), moves its
//     partitions to the three survivors, and returns the identical
//     plan.
//
// Run with: go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"mpq"
)

func main() {
	ctx := context.Background()

	// Start four workers. Each is a stateless TCP server; the same
	// binary could run on four cluster nodes.
	var addrs []string
	var workers []*mpq.TCPWorker
	for i := 0; i < 4; i++ {
		w, err := mpq.ListenWorker("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer w.Close()
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
		fmt.Printf("worker %d listening on %s\n", i, w.Addr())
	}

	eng, err := mpq.NewTCPEngine(addrs,
		mpq.WithMasterOptions(mpq.MasterOptions{Timeout: 30 * time.Second}))
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// A 12-table chain query; 16 partitions over 4 workers means each
	// worker optimizes 4 partitions back to back.
	_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(12, mpq.Chain), 5)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	ans, err := eng.Optimize(ctx, q, mpq.JobSpec{Space: mpq.Linear, Workers: 16})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noptimized 12-table query across %d TCP workers in %v\n",
		len(addrs), time.Since(start).Round(time.Millisecond))
	fmt.Printf("network: %d bytes sent, %d bytes received, %d messages over %d new connections\n",
		ans.Net.BytesSent, ans.Net.BytesReceived, ans.Net.Messages, ans.Net.Dials)

	// The distributed answer matches the local engine bit for bit.
	local, err := mpq.NewInProcessEngine().Optimize(ctx, q, mpq.JobSpec{Space: mpq.Linear, Workers: 16})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed plan: %s (cost %.4g)\n", ans.Best, ans.Best.Cost)
	fmt.Printf("local plan      : %s (cost %.4g)\n", local.Best, local.Best.Cost)

	// --- Batch walkthrough: three queries, one connection pool. ---
	var jobs []mpq.Job
	for seed := int64(6); seed <= 8; seed++ {
		_, bq, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(10, mpq.Star), seed)
		if err != nil {
			log.Fatal(err)
		}
		jobs = append(jobs, mpq.Job{Query: bq, Spec: mpq.JobSpec{Space: mpq.Linear, Workers: 8}})
	}
	answers, err := eng.OptimizeBatch(ctx, jobs)
	if err != nil {
		log.Fatal(err)
	}
	dials := 0
	for i, a := range answers {
		fmt.Printf("batch query %d: %s (cost %.4g)\n", i, a.Best, a.Best.Cost)
		dials += a.Net.Dials
	}
	fmt.Printf("batch of %d queries dialed %d new connections (the first query's are still warm)\n",
		len(jobs), dials)

	// --- Failure walkthrough: kill a worker mid-query. ---
	//
	// A short per-job deadline makes detection fast; the retry budget and
	// worker-exclusion threshold are the defaults. Worker 0 is shot a few
	// milliseconds after the query starts, so some of its partitions die
	// with it and are re-dispatched to the survivors.
	fmt.Println("\nkilling worker 0 mid-query...")
	tolerant, err := mpq.NewTCPEngine(addrs,
		mpq.WithMasterOptions(mpq.MasterOptions{Timeout: 2 * time.Second}))
	if err != nil {
		log.Fatal(err)
	}
	defer tolerant.Close()
	timer := time.AfterFunc(2*time.Millisecond, func() { workers[0].Close() })
	defer timer.Stop()
	survived, err := tolerant.Optimize(ctx, q, mpq.JobSpec{Space: mpq.Linear, Workers: 16})
	if err != nil {
		log.Fatal(err)
	}
	if survived.Net.Redispatched == 0 {
		// The kill races the query on purpose; on a machine fast enough to
		// finish first there is simply nothing to recover from.
		fmt.Println("the query finished before the kill landed — nothing needed recovery")
	} else {
		fmt.Printf("survived: %d job(s) re-dispatched to the remaining %d workers\n",
			survived.Net.Redispatched, len(addrs)-1)
	}
	fmt.Printf("plan after failure: %s (cost %.4g)\n", survived.Best, survived.Best.Cost)
	if survived.Best.String() == ans.Best.String() {
		fmt.Println("identical to the failure-free plan — recovery changed nothing but the clock")
	}
}
