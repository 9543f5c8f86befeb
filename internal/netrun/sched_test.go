package netrun

import (
	"context"
	"net"
	"testing"
	"time"

	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/wire"
	"mpq/internal/workload"
)

// A worker that stalls mid-partition must not hold the batch hostage
// for the full attempt timeout: with speculation on, an idle peer
// clones the straggling partition, the clone's answer wins, and the
// plan stays bit-identical to the fault-free run. The stalled original
// is canceled (the cancel frame is what breaks the proxy's hold), and
// nothing is ever re-dispatched through the retry path.
func TestStallSpeculativeCloneWins(t *testing.T) {
	q := gen(t, 8, 7)
	spec := core.JobSpec{Space: partition.Linear, Workers: 4}
	local, err := core.OptimizeContext(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	cleanAddrs := startWorkers(t, 2)
	cleanMaster, err := NewMaster(cleanAddrs, Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := cleanMaster.Optimize(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}

	addrs, proxies := startChaosWorkers(t, 2, []FaultPlan{{0: Stall}, nil})
	ms, err := NewMaster(addrs, Options{
		// Without speculation the stalled partition would sit for the full
		// attempt timeout before the ordinary retry path touched it; the
		// wall-clock bound below is an order of magnitude tighter.
		Timeout:          30 * time.Second,
		Speculate:        true,
		SpeculationFloor: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ans, err := ms.Optimize(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("speculation did not rescue the stall: took %v", elapsed)
	}
	assertBitIdentical(t, ans.Best, clean.Best, local.Best)
	if ans.Net.Speculations == 0 {
		t.Fatal("no speculative re-dispatch recorded under a stall")
	}
	if ans.Net.Redispatched != 0 {
		t.Fatalf("Redispatched = %d: speculation must pre-empt the timeout retry path", ans.Net.Redispatched)
	}
	// The stalled worker saw exactly its first job; its queued share was
	// stolen, not dispatched into the stall.
	if got := proxies[0].Jobs(); got != 1 {
		t.Fatalf("stalled worker saw %d jobs, want 1", got)
	}
}

// The race's loser can finish anyway: its response arrives late, on its
// own connection, with a sequence number that matches its own request —
// so the Seq echo accepts the frame, and it is the aggregation's
// partition bookkeeping that discards it as stale. Staggered drip rates
// arrange the full sequence deterministically: partition 0's original
// (slow drip on worker 0) loses to a fast clone but still delivers
// while partition 2's race — whose clone drips too — is in flight, so
// the coordinator is provably still running when the late frame lands.
func TestSpeculativeLoserLateFrameDiscarded(t *testing.T) {
	q := gen(t, 8, 7)
	spec := core.JobSpec{Space: partition.Linear, Workers: 4}
	local, err := core.OptimizeContext(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	cleanAddrs := startWorkers(t, 3)
	cleanMaster, err := NewMaster(cleanAddrs, Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := cleanMaster.Optimize(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Worker 0 drips its first job (partition 0, ~270ms: the late loser).
	// Worker 1 serves p1, steals p3, then receives both clones; only its
	// fourth job — the clone of p2 — drips (~340ms), keeping the batch
	// alive past worker 0's late frame. Worker 2 drips p2 very slowly
	// (~1.3s): the straggler whose race outlives everything else.
	addrs, proxies := startChaosWorkers(t, 3, []FaultPlan{
		{0: SlowDrip}, {3: SlowDrip}, {0: SlowDrip},
	})
	proxies[0].SetDrip(8*time.Millisecond, 16)
	proxies[1].SetDrip(10*time.Millisecond, 16)
	proxies[2].SetDrip(40*time.Millisecond, 16)
	ms, err := NewMaster(addrs, Options{
		Timeout:          30 * time.Second,
		Speculate:        true,
		SpeculationFloor: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := ms.Optimize(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, ans.Best, clean.Best, local.Best)
	if ans.Net.Speculations != 2 {
		t.Fatalf("Speculations = %d, want 2 (partitions 0 and 2 each raced)", ans.Net.Speculations)
	}
	// Exactly one loser delivered a late frame: worker 0's dripped
	// response for the already-aggregated partition 0. Worker 2's loser
	// was still dripping when the batch completed and was torn down.
	if ans.Net.SpeculationWasted != 1 {
		t.Fatalf("SpeculationWasted = %d, want 1 (the late loser frame)", ans.Net.SpeculationWasted)
	}
	if ans.Net.IgnoredFrames != 0 {
		t.Fatalf("IgnoredFrames = %d: the loser's frame matches its own request's Seq", ans.Net.IgnoredFrames)
	}
	if ans.Net.Redispatched != 0 {
		t.Fatalf("Redispatched = %d: races are not failures", ans.Net.Redispatched)
	}
}

// An excluded worker gets a low-priority probe after the re-admission
// backoff; answering it correctly returns the worker to the pool, and
// the readmitted worker then carries real work. Worker 1 drips every
// response so the batch is still pending when the probe fires.
func TestProbeReadmitsExcludedWorker(t *testing.T) {
	q := gen(t, 8, 9)
	spec := core.JobSpec{Space: partition.Linear, Workers: 8}
	local, err := core.OptimizeContext(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	drip := FaultPlan{}
	for i := 0; i < 16; i++ {
		drip[i] = SlowDrip
	}
	addrs, proxies := startChaosWorkers(t, 2, []FaultPlan{
		{0: KillBeforeResponse, 1: KillBeforeResponse}, drip,
	})
	proxies[1].SetDrip(5*time.Millisecond, 16)
	ms, err := NewMaster(addrs, Options{
		Timeout:           5 * time.Second,
		MaxWorkerFailures: 2,
		ReadmitAfter:      120 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := ms.Optimize(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	if wire.PlanFingerprint(ans.Best) != wire.PlanFingerprint(local.Best) {
		t.Fatal("plan differs after exclusion and re-admission")
	}
	if ans.Net.Probes == 0 {
		t.Fatal("no re-admission probe recorded")
	}
	if ans.Net.Readmitted != 1 {
		t.Fatalf("Readmitted = %d, want 1", ans.Net.Readmitted)
	}
	if ans.Net.Redispatched != 2 {
		t.Fatalf("Redispatched = %d, want 2 (the two killed attempts)", ans.Net.Redispatched)
	}
	// The worker saw its two scripted kills, the probe, and then real
	// work again after rejoining the pool.
	if got := proxies[0].Jobs(); got < 3 {
		t.Fatalf("excluded worker saw %d jobs, want >= 3 (2 kills + probe + work)", got)
	}
}

// Probes are off by default: without ReadmitAfter an excluded worker
// stays excluded for the rest of the batch (the pre-adaptive behavior).
func TestNoProbesWithoutReadmitAfter(t *testing.T) {
	q := gen(t, 8, 5)
	spec := core.JobSpec{Space: partition.Linear, Workers: 8}
	killAll := FaultPlan{}
	for i := 0; i < 16; i++ {
		killAll[i] = KillBeforeResponse
	}
	addrs, proxies := startChaosWorkers(t, 2, []FaultPlan{killAll, nil})
	ms, err := NewMaster(addrs, Options{
		Timeout:           2 * time.Second,
		MaxAttempts:       3,
		MaxWorkerFailures: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := ms.Optimize(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Net.Probes != 0 || ans.Net.Readmitted != 0 {
		t.Fatalf("probes ran without ReadmitAfter: %d probes, %d readmissions",
			ans.Net.Probes, ans.Net.Readmitted)
	}
	if got := proxies[0].Jobs(); got != 2 {
		t.Fatalf("excluded worker saw %d jobs, want exactly its failure budget of 2", got)
	}
}

// Regression test for the worker side of speculative cancellation: a
// CancelRequest for the in-flight sequence number aborts the dynamic
// program long before it would finish, the worker acknowledges with an
// explicit ErrCanceled frame, and the connection keeps serving.
func TestWorkerCancelAbortsInFlightJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a multi-second optimization to observe its abort")
	}
	w, err := ListenWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// ~10s of single-partition bushy-clique DP when left alone on a
	// 2-vCPU Xeon VM (same workload as the disconnect test). It must
	// outlast the 300ms head start below by far, or the answer beats the
	// cancel; the cancel must cut it to roughly one cardinality level.
	big := workload.MustGenerate(workload.NewParams(18, workload.Clique), 1)
	conn, err := net.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := wire.EncodeJobRequest(&wire.JobRequest{
		Seq:   1,
		Spec:  core.JobSpec{Space: partition.Bushy, Workers: 1},
		Query: big,
	})
	if err := wire.WriteFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // let the DP get going
	if err := wire.WriteFrame(conn, wire.EncodeCancelRequest(&wire.CancelRequest{Seq: 1})); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	respB, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancel acknowledged only after %v; the DP was not aborted", elapsed)
	}
	we, err := wire.DecodeWorkerError(respB)
	if err != nil {
		t.Fatalf("expected a WorkerError acknowledgment, got: %v", err)
	}
	if we.Seq != 1 || we.Code != wire.ErrCanceled {
		t.Fatalf("ack = seq %d code %d, want seq 1 code ErrCanceled", we.Seq, we.Code)
	}

	// The connection must remain usable: the loser's goroutine exited
	// cleanly rather than poisoning the stream.
	small := workload.MustGenerate(workload.NewParams(6, workload.Star), 2)
	req2 := wire.EncodeJobRequest(&wire.JobRequest{
		Seq:   2,
		Spec:  core.JobSpec{Space: partition.Linear, Workers: 2},
		Query: small,
	})
	if err := wire.WriteFrame(conn, req2); err != nil {
		t.Fatal(err)
	}
	respB, err = wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeJobResponse(respB)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 2 || len(resp.Plans) == 0 {
		t.Fatalf("post-cancel resp seq=%d plans=%d, want seq=2 with plans", resp.Seq, len(resp.Plans))
	}
}

// A cancel can overtake its own request: the reader goroutine processes
// frames the job loop has not dequeued yet. The worker must remember it
// and pre-cancel the job the moment it starts.
func TestWorkerCancelRacesAheadOfRequest(t *testing.T) {
	w, err := ListenWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	conn, err := net.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Cancel for seq 1 lands before the request it targets.
	if err := wire.WriteFrame(conn, wire.EncodeCancelRequest(&wire.CancelRequest{Seq: 1})); err != nil {
		t.Fatal(err)
	}
	q := gen(t, 10, 3)
	req := wire.EncodeJobRequest(&wire.JobRequest{
		Seq:   1,
		Spec:  core.JobSpec{Space: partition.Linear, Workers: 2},
		Query: q,
	})
	if err := wire.WriteFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	respB, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	we, err := wire.DecodeWorkerError(respB)
	if err != nil {
		t.Fatalf("expected a pre-canceled WorkerError, got: %v", err)
	}
	if we.Seq != 1 || we.Code != wire.ErrCanceled {
		t.Fatalf("ack = seq %d code %d, want seq 1 code ErrCanceled", we.Seq, we.Code)
	}

	// A stale cancel (for the already-answered seq 1) must not leak onto
	// the next request.
	if err := wire.WriteFrame(conn, wire.EncodeCancelRequest(&wire.CancelRequest{Seq: 1})); err != nil {
		t.Fatal(err)
	}
	req2 := wire.EncodeJobRequest(&wire.JobRequest{
		Seq:   2,
		Spec:  core.JobSpec{Space: partition.Linear, Workers: 2},
		Query: q,
	})
	if err := wire.WriteFrame(conn, req2); err != nil {
		t.Fatal(err)
	}
	respB, err = wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeJobResponse(respB)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 2 || len(resp.Plans) == 0 {
		t.Fatalf("resp seq=%d plans=%d, want seq=2 with plans", resp.Seq, len(resp.Plans))
	}
}
