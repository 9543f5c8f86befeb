package mpq_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mpq"
)

// startTCPEngine launches k loopback workers and returns a TCP engine
// over them (plus the addresses, for tests that build more engines).
func startTCPEngine(t *testing.T, k int, opts ...mpq.EngineOption) (*mpq.TCPEngine, []string) {
	t.Helper()
	addrs := make([]string, k)
	for i := range addrs {
		w, err := mpq.ListenWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		addrs[i] = w.Addr()
	}
	eng, err := mpq.NewTCPEngine(addrs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng, addrs
}

// engineWorkloads is the table the equivalence test sweeps: every
// workload family the generator knows, plus the TPC-style schemas and
// a correlated-selectivity stress, across plan spaces and objectives.
func engineWorkloads(t *testing.T) []struct {
	name string
	q    *mpq.Query
	spec mpq.JobSpec
} {
	t.Helper()
	var rows []struct {
		name string
		q    *mpq.Query
		spec mpq.JobSpec
	}
	add := func(name string, q *mpq.Query, spec mpq.JobSpec) {
		rows = append(rows, struct {
			name string
			q    *mpq.Query
			spec mpq.JobSpec
		}{name, q, spec})
	}
	for i, shape := range []mpq.Shape{mpq.Star, mpq.Chain, mpq.Cycle, mpq.Clique, mpq.Snowflake} {
		params := mpq.NewWorkloadParams(7+i%2, shape)
		_, q, err := mpq.GenerateWorkload(params, int64(40+i))
		if err != nil {
			t.Fatal(err)
		}
		space := mpq.Linear
		if i%2 == 1 {
			space = mpq.Bushy
		}
		add(fmt.Sprintf("%v-%v", shape, space), q, mpq.JobSpec{Space: space, Workers: 4})
	}
	// Correlated selectivities warp the cost surface; the engines must
	// still agree plan for plan.
	params := mpq.NewWorkloadParams(8, mpq.Star)
	params.Correlation = 0.7
	_, q, err := mpq.GenerateWorkload(params, 77)
	if err != nil {
		t.Fatal(err)
	}
	add("Star-correlated", q, mpq.JobSpec{Space: mpq.Linear, Workers: 8})
	// TPC-style schema queries: realistic statistics, canonical FK joins.
	for _, sch := range []*mpq.Schema{mpq.TPCHSchema(), mpq.TPCDSSchema()} {
		_, q, err := mpq.SchemaWorkload(sch, 1)
		if err != nil {
			t.Fatal(err)
		}
		add("schema-"+sch.Name, q, mpq.JobSpec{Space: mpq.Linear, Workers: 4})
	}
	// Multi-objective: the merged frontier must match too.
	_, q, err = mpq.GenerateWorkload(mpq.NewWorkloadParams(7, mpq.Chain), 9)
	if err != nil {
		t.Fatal(err)
	}
	add("Chain-multiobjective", q, mpq.JobSpec{
		Space: mpq.Linear, Workers: 4,
		Objective: mpq.MultiObjective, Alpha: 1,
	})
	// Interesting orders: the order-aware pruner keeps several plans per
	// table set, exercising the frontier store beyond its inline slots.
	_, q, err = mpq.GenerateWorkload(mpq.NewWorkloadParams(8, mpq.Cycle), 13)
	if err != nil {
		t.Fatal(err)
	}
	add("Cycle-orders", q, mpq.JobSpec{
		Space: mpq.Linear, Workers: 4, InterestingOrders: true,
	})
	// Parametric: exact pruning over (cost(θ=0), cost(θ=1)) under a
	// non-default JobSpec.CostModel — a spec like the others.
	_, q, err = mpq.GenerateWorkload(mpq.NewWorkloadParams(8, mpq.Star), 31)
	if err != nil {
		t.Fatal(err)
	}
	add("Star-parametric", q, mpq.ParametricSpec(mpq.Linear, 4, 20))
	return rows
}

// TestEngineEquivalence is the unified-API capstone, one table-driven
// test instead of per-engine comparisons: on every workload family the
// three partitioned engines — goroutine workers, cluster simulator,
// TCP runtime — must return bit-identical best plans and frontiers
// (wire encoding: same partitioning, same enumeration, same bytes),
// and the serial baseline must agree on the optimal cost (plan ties
// may break differently between the unpartitioned and the partitioned
// enumeration, so serial equivalence is per cost, not per byte).
func TestEngineEquivalence(t *testing.T) {
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
			var wantBest string
			var wantFrontier []string
			var wantCost float64
			for _, e := range engines {
				ans, err := e.eng.Optimize(ctx, row.q, row.spec)
				if err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
				bestFP := mpq.PlanFingerprint(ans.Best)
				var frontFP []string
				for _, p := range ans.Frontier {
					frontFP = append(frontFP, mpq.PlanFingerprint(p))
				}
				if wantBest == "" {
					wantBest, wantFrontier, wantCost = bestFP, frontFP, ans.Best.Cost
					continue
				}
				if bestFP != wantBest {
					t.Fatalf("%s best plan differs from %s: %s", e.name, engines[0].name, ans.Best)
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
			ans, err := serial.Optimize(ctx, row.q, row.spec)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			if diff := ans.Best.Cost - wantCost; diff > 1e-9*wantCost || diff < -1e-9*wantCost {
				t.Fatalf("serial cost %g != partitioned cost %g", ans.Best.Cost, wantCost)
			}
		})
	}
}

// TestEngineAnswerMetrics checks each engine attaches its
// substrate-specific measurements to the engine-agnostic Answer.
func TestEngineAnswerMetrics(t *testing.T) {
	_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(7, mpq.Star), 5)
	if err != nil {
		t.Fatal(err)
	}
	spec := mpq.JobSpec{Space: mpq.Linear, Workers: 4}
	ctx := context.Background()

	sim, err := mpq.NewSimEngine().Optimize(ctx, q, spec)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Cluster == nil || sim.Cluster.Bytes == 0 || sim.Cluster.VirtualTime <= 0 {
		t.Fatalf("sim answer metrics: %+v", sim.Cluster)
	}
	if sim.Net != nil {
		t.Fatal("sim answer must not carry TCP stats")
	}

	tcp, _ := startTCPEngine(t, 2)
	dist, err := tcp.Optimize(ctx, q, spec)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Net == nil || dist.Net.BytesSent == 0 || dist.Net.Messages != 8 || dist.Net.Dials != 2 {
		t.Fatalf("tcp answer net stats: %+v", dist.Net)
	}
	if dist.Cluster != nil {
		t.Fatal("tcp answer must not carry cluster metrics")
	}

	local, err := mpq.NewInProcessEngine().Optimize(ctx, q, spec)
	if err != nil {
		t.Fatal(err)
	}
	if local.Net != nil || local.Cluster != nil {
		t.Fatal("in-process answer must not carry transport metrics")
	}
}

// TestTCPEngineBatchBitIdentical is the batch acceptance criterion:
// OptimizeBatch of N queries returns answers bit-identical to N
// sequential Optimize calls, while dialing each worker once for the
// whole batch instead of once per query — asserted via the master's
// message/byte/dial accounting. The sequential calls run on the
// connections the batch left warm, so they dial nothing.
func TestTCPEngineBatchBitIdentical(t *testing.T) {
	const k = 2
	eng, _ := startTCPEngine(t, k)
	ctx := context.Background()

	var jobs []mpq.Job
	for i, shape := range []mpq.Shape{mpq.Star, mpq.Chain, mpq.Snowflake} {
		_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(7+i, shape), int64(60+i))
		if err != nil {
			t.Fatal(err)
		}
		space := mpq.Linear
		workers := 8
		if i == 1 {
			space, workers = mpq.Bushy, 4
		}
		jobs = append(jobs, mpq.Job{Query: q, Spec: mpq.JobSpec{Space: space, Workers: workers}})
	}

	batch, err := eng.OptimizeBatch(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(jobs) {
		t.Fatalf("got %d answers for %d jobs", len(batch), len(jobs))
	}

	var seqBytesSent, seqBytesRcvd uint64
	var seqMsgs, seqDials, batchDials int
	var batchBytesSent, batchBytesRcvd uint64
	var batchMsgs int
	for i, job := range jobs {
		one, err := eng.Optimize(ctx, job.Query, job.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if mpq.PlanFingerprint(batch[i].Best) != mpq.PlanFingerprint(one.Best) {
			t.Fatalf("job %d: batch plan differs from sequential plan", i)
		}
		if batch[i].Stats != one.Stats {
			t.Fatalf("job %d: batch stats %+v != sequential %+v", i, batch[i].Stats, one.Stats)
		}
		if len(batch[i].PerWorker) != len(one.PerWorker) {
			t.Fatalf("job %d: per-worker report counts differ", i)
		}
		// The per-query traffic is identical: the same requests and
		// responses cross the wire whether or not the queries share a
		// batch.
		if batch[i].Net.BytesSent != one.Net.BytesSent ||
			batch[i].Net.BytesReceived != one.Net.BytesReceived ||
			batch[i].Net.Messages != one.Net.Messages {
			t.Fatalf("job %d: batch traffic %+v != sequential %+v", i, batch[i].Net, one.Net)
		}
		seqBytesSent += one.Net.BytesSent
		seqBytesRcvd += one.Net.BytesReceived
		seqMsgs += one.Net.Messages
		seqDials += one.Net.Dials
		batchBytesSent += batch[i].Net.BytesSent
		batchBytesRcvd += batch[i].Net.BytesReceived
		batchMsgs += batch[i].Net.Messages
		batchDials += batch[i].Net.Dials
	}
	if batchBytesSent != seqBytesSent || batchBytesRcvd != seqBytesRcvd || batchMsgs != seqMsgs {
		t.Fatalf("batch totals (%d/%d bytes, %d msgs) != sequential totals (%d/%d bytes, %d msgs)",
			batchBytesSent, batchBytesRcvd, batchMsgs, seqBytesSent, seqBytesRcvd, seqMsgs)
	}
	// Connection reuse: the batch dialed each worker once; the three
	// sequential calls reused the connections it left warm.
	if batchDials != k {
		t.Fatalf("batch dials = %d, want %d (one per worker)", batchDials, k)
	}
	if seqDials != 0 {
		t.Fatalf("sequential dials = %d, want 0 (the batch's connections are warm)", seqDials)
	}
}

// listenWorkers starts k loopback workers; the caller closes them.
func listenWorkers(t *testing.T, k int) ([]*mpq.TCPWorker, []string) {
	t.Helper()
	workers, addrs := make([]*mpq.TCPWorker, k), make([]string, k)
	for i := range workers {
		w, err := mpq.ListenWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		workers[i], addrs[i] = w, w.Addr()
	}
	return workers, addrs
}

// TestTCPEngineKeepsConnectionsWarm: a second call runs on the
// connections the first one dialed — the same traffic, and no dial.
// Close ends them: once it returns, and once the workers close too, no
// goroutine of either is left.
func TestTCPEngineKeepsConnectionsWarm(t *testing.T) {
	const k = 3
	baseline := runtime.NumGoroutine()
	workers, addrs := listenWorkers(t, k)
	listening := runtime.NumGoroutine()
	eng, err := mpq.NewTCPEngine(addrs)
	if err != nil {
		t.Fatal(err)
	}
	_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(8, mpq.Star), 6)
	if err != nil {
		t.Fatal(err)
	}
	spec := mpq.JobSpec{Space: mpq.Linear, Workers: 8}
	first, err := eng.Optimize(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Optimize(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Net.Dials != k || second.Net.Dials != 0 {
		t.Fatalf("dials = %d then %d, want %d then 0", first.Net.Dials, second.Net.Dials, k)
	}
	if mpq.PlanFingerprint(first.Best) != mpq.PlanFingerprint(second.Best) {
		t.Fatal("the warm call's plan differs")
	}
	a, b := first.Net, second.Net
	if a.BytesSent != b.BytesSent || a.BytesReceived != b.BytesReceived || a.Messages != b.Messages {
		t.Fatalf("traffic %d/%d bytes, %d messages, then %d/%d bytes, %d messages",
			a.BytesSent, a.BytesReceived, a.Messages, b.BytesSent, b.BytesReceived, b.Messages)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, listening) // the clients and the workers' ends of them
	for _, w := range workers {
		w.Close()
	}
	waitGoroutines(t, baseline)
}

// TestTCPEngineRedialsRestartedWorker: a worker that restarts between
// two calls costs the second call one dial, not a failed attempt. The
// connection the first call left warm failed in its read loop when the
// worker hung up, and is never handed out. The test waits for that read
// loop to end: a call that starts in the moment before it sees the
// hang-up still takes the dead connection and loses one attempt.
func TestTCPEngineRedialsRestartedWorker(t *testing.T) {
	workers, addrs := listenWorkers(t, 2)
	t.Cleanup(func() { workers[1].Close() })
	eng, err := mpq.NewTCPEngine(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(7, mpq.Chain), 8)
	if err != nil {
		t.Fatal(err)
	}
	spec := mpq.JobSpec{Space: mpq.Linear, Workers: 4}
	first, err := eng.Optimize(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	workers[0].Close()
	waitReadLoops(t, 1) // worker 1's client; worker 0's saw the hang-up
	restarted, err := mpq.ListenWorker(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restarted.Close() })
	second, err := eng.Optimize(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Net.Redispatched != 0 || second.Net.Dials != 1 {
		t.Fatalf("after a restart: %d re-dispatched, %d dials; want 0 and 1", second.Net.Redispatched, second.Net.Dials)
	}
	if mpq.PlanFingerprint(first.Best) != mpq.PlanFingerprint(second.Best) {
		t.Fatal("the plan differs after the restart")
	}
}

// waitReadLoops polls until at most n wire clients' read loops run.
func waitReadLoops(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	buf := make([]byte, 1<<20)
	for {
		loops := strings.Count(string(buf[:runtime.Stack(buf, true)]), "netrun.(*Client).readLoop(")
		if loops <= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d client read loops still run, want %d", loops, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline (background runtimes can lag a few scheduler ticks behind
// the function return that logically released them).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", baseline, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelMidDP cancels an in-process optimization of a 16-table
// clique partway through the dynamic program: the engine must return
// promptly with an error wrapping context.Canceled and leave no worker
// goroutine behind.
func TestCancelMidDP(t *testing.T) {
	_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(16, mpq.Clique), 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := mpq.NewInProcessEngine()
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	// A 16-table clique takes orders of magnitude longer than 5ms; the
	// cancel lands mid-DP.
	timer := time.AfterFunc(5*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	_, err = eng.Optimize(ctx, q, mpq.JobSpec{Space: mpq.Linear, Workers: 4})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Detection granularity is a few hundred table sets; well under a
	// second even on a slow machine (the full run takes far longer).
	if elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	cancel()
	waitGoroutines(t, baseline)
}

// TestCancelBeforeStart: an already-canceled context never starts the
// search, on every engine and for every kind of job, parametric
// included.
func TestCancelBeforeStart(t *testing.T) {
	_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(8, mpq.Star), 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tcp, _ := startTCPEngine(t, 1)
	for _, e := range []struct {
		name string
		eng  mpq.Engine
	}{
		{"serial", mpq.NewSerialEngine()},
		{"inprocess", mpq.NewInProcessEngine()},
		{"sim", mpq.NewSimEngine()},
		{"tcp", tcp},
		{"cached", mpq.WithCache(mpq.NewInProcessEngine(), mpq.CacheConfig{})},
	} {
		for _, spec := range []mpq.JobSpec{
			{Space: mpq.Linear, Workers: 4},
			mpq.ParametricSpec(mpq.Linear, 4, 20),
		} {
			if _, err := e.eng.Optimize(ctx, q, spec); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s, %v: err = %v, want context.Canceled", e.name, spec.Objective, err)
			}
		}
	}
}

// TestCancelMidFlightTCP cancels while a TCP job is in flight against
// a worker that never answers: the master must abort its reads, close
// every connection, and return context.Canceled without waiting for
// the transport deadline — and without leaking goroutines.
func TestCancelMidFlightTCP(t *testing.T) {
	// A mute "worker": accepts connections, reads everything, never
	// replies — the hardest case for unblocking, since the master is
	// parked in ReadFrame.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				io.Copy(io.Discard, conn)
			}(conn)
		}
	}()

	eng, err := mpq.NewTCPEngine([]string{ln.Addr().String()},
		mpq.WithMasterOptions(mpq.MasterOptions{Timeout: 30 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(8, mpq.Star), 3)
	if err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(50*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	_, err = eng.Optimize(ctx, q, mpq.JobSpec{Space: mpq.Linear, Workers: 4})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v (the 30s transport deadline must not gate it)", elapsed)
	}
	cancel()
	waitGoroutines(t, baseline)
}

// TestTCPEngineDeadline: a context deadline tightens the per-attempt
// transport deadline and aborts the dispatcher, so per-job deadlines
// flow from context.WithDeadline instead of a bespoke timeout field.
func TestTCPEngineDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				io.Copy(io.Discard, conn)
			}(conn)
		}
	}()
	eng, err := mpq.NewTCPEngine([]string{ln.Addr().String()},
		mpq.WithMasterOptions(mpq.MasterOptions{Timeout: 30 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(7, mpq.Star), 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = eng.Optimize(ctx, q, mpq.JobSpec{Space: mpq.Linear, Workers: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline abort took %v", elapsed)
	}
}

// TestSequentialEnginesBatch: serial, in-process and sim batches run
// their jobs at once on the shared runtime slots, and every answer
// equals the one-at-a-time answer — plan, work counters and, for the
// simulator, the whole cluster record, since its virtual clock still
// models each query alone.
func TestSequentialEnginesBatch(t *testing.T) {
	var jobs []mpq.Job
	for i, shape := range []mpq.Shape{mpq.Star, mpq.Chain} {
		_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(7, shape), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, mpq.Job{Query: q, Spec: mpq.JobSpec{Space: mpq.Linear, Workers: 4}})
	}
	ctx := context.Background()
	for _, e := range []struct {
		name string
		eng  mpq.Engine
	}{
		{"serial", mpq.NewSerialEngine()},
		{"inprocess", mpq.NewInProcessEngine()},
		{"sim", mpq.NewSimEngine()},
	} {
		batch, err := e.eng.OptimizeBatch(ctx, jobs)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		for i, job := range jobs {
			one, err := e.eng.Optimize(ctx, job.Query, job.Spec)
			if err != nil {
				t.Fatal(err)
			}
			if mpq.PlanFingerprint(batch[i].Best) != mpq.PlanFingerprint(one.Best) || batch[i].Stats != one.Stats {
				t.Fatalf("%s job %d: batch differs from single", e.name, i)
			}
			if (batch[i].Cluster == nil) != (one.Cluster == nil) ||
				one.Cluster != nil && !reflect.DeepEqual(*batch[i].Cluster, *one.Cluster) {
				t.Fatalf("%s job %d: batch cluster record %+v, single %+v", e.name, i, batch[i].Cluster, one.Cluster)
			}
		}
	}
}

// An empty batch is no error on any engine: each returns an empty
// slice.
func TestEmptyBatch(t *testing.T) {
	tcp, _ := startTCPEngine(t, 1)
	for _, e := range []struct {
		name string
		eng  mpq.Engine
	}{
		{"serial", mpq.NewSerialEngine()},
		{"inprocess", mpq.NewInProcessEngine()},
		{"sim", mpq.NewSimEngine()},
		{"tcp", tcp},
		{"cached-tcp", mpq.WithCache(tcp, mpq.CacheConfig{})},
	} {
		for _, jobs := range [][]mpq.Job{nil, {}} {
			got, err := e.eng.OptimizeBatch(context.Background(), jobs)
			if err != nil || got == nil || len(got) != 0 {
				t.Errorf("%s: OptimizeBatch(%#v) = %v, %v; want an empty slice and nil", e.name, jobs, got, err)
			}
		}
	}
}

// TestBatchFirstFailureCancelsTheRest: an in-process batch whose second
// job is invalid returns that job's error at once, canceling the
// first job's multi-second dynamic program instead of finishing it, and
// leaves no goroutine behind.
func TestBatchFirstFailureCancelsTheRest(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("on one core the batch reaches its second job only after the first")
	}
	_, big, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(17, mpq.Clique), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, small, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(6, mpq.Star), 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []mpq.Job{
		{Query: big, Spec: mpq.JobSpec{Space: mpq.Bushy, Workers: 1}},
		{Query: small, Spec: mpq.JobSpec{Space: mpq.Linear, Workers: 3}},
	}
	baseline := runtime.NumGoroutine()
	start := time.Now()
	_, err = mpq.NewInProcessEngine().OptimizeBatch(context.Background(), jobs)
	if err == nil || !strings.HasPrefix(err.Error(), "batch job 1: ") {
		t.Fatalf("batch error %v, want job 1's failure", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("batch failed after %v; job 0 was not canceled", elapsed)
	}
	waitGoroutines(t, baseline)
}
