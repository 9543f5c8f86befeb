package netrun

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"mpq/internal/core"
	"mpq/internal/dp"
	"mpq/internal/partition"
	"mpq/internal/query"
	"mpq/internal/wire"
	"mpq/internal/workload"
)

func gen(t testing.TB, n int, seed int64) *query.Query {
	t.Helper()
	return workload.MustGenerate(workload.NewParams(n, workload.Star), seed)
}

func approx(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// startWorkers launches k loopback workers and returns their addresses
// plus a cleanup function.
func startWorkers(t *testing.T, k int) []string {
	t.Helper()
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		w, err := ListenWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		addrs[i] = w.Addr()
	}
	return addrs
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frames")
	if err := wire.WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := wire.ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("got %q", got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := wire.ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := wire.ReadFrame(&buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 10, 1, 2}) // claims 10 bytes, has 2
	if _, err := wire.ReadFrame(&buf); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// End-to-end: distributed MPQ over loopback TCP returns the same optimum
// as the in-process engine.
func TestDistributedMatchesInProcess(t *testing.T) {
	addrs := startWorkers(t, 4)
	ms, err := NewMaster(addrs, Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 3; seed++ {
		q := gen(t, 8, seed)
		spec := core.JobSpec{Space: partition.Linear, Workers: 4}
		dist, err := ms.Optimize(context.Background(), q, spec)
		if err != nil {
			t.Fatal(err)
		}
		local, err := core.OptimizeContext(context.Background(), q, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(dist.Best.Cost, local.Best.Cost) {
			t.Fatalf("seed=%d: distributed %g != local %g", seed, dist.Best.Cost, local.Best.Cost)
		}
		if dist.Best.String() != local.Best.String() {
			t.Fatalf("plan structure differs: %s vs %s", dist.Best, local.Best)
		}
		if dist.Net.BytesSent == 0 || dist.Net.BytesReceived == 0 || dist.Net.Messages != 8 {
			t.Fatalf("net stats %+v", dist.Net)
		}
	}
}

// More partitions than workers: round-robin assignment still covers the
// whole plan space.
func TestMorePartitionsThanWorkers(t *testing.T) {
	addrs := startWorkers(t, 3)
	ms, err := NewMaster(addrs, Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	q := gen(t, 8, 7)
	spec := core.JobSpec{Space: partition.Linear, Workers: 16}
	dist, err := ms.Optimize(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.OptimizeContext(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(dist.Best.Cost, local.Best.Cost) {
		t.Fatal("cost mismatch with partition multiplexing")
	}
	if len(dist.PerWorker) != 16 {
		t.Fatalf("reports for %d partitions", len(dist.PerWorker))
	}
}

func TestDistributedMultiObjective(t *testing.T) {
	addrs := startWorkers(t, 2)
	ms, err := NewMaster(addrs, Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	q := gen(t, 7, 1)
	spec := core.JobSpec{
		Space: partition.Linear, Workers: 4,
		Objective: core.MultiObjective, Alpha: 1,
	}
	dist, err := ms.Optimize(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.OptimizeContext(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.Frontier) != len(local.Frontier) {
		t.Fatalf("frontier size %d != %d", len(dist.Frontier), len(local.Frontier))
	}
}

func TestWorkerReportsJobErrorsInBand(t *testing.T) {
	addrs := startWorkers(t, 1)
	ms, err := NewMaster(addrs, Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	q := gen(t, 4, 0)
	// 64 workers exceeds max for 4 tables; the spec is refused with an
	// error, as a worker's decoder would refuse it in a WorkerError frame.
	_, err = ms.Optimize(context.Background(), q, core.JobSpec{Space: partition.Linear, Workers: 64})
	if err == nil {
		t.Fatal("invalid job accepted")
	}
}

// A legal query can be too large for any memo (q.Validate admits 63
// tables): the worker answers with the dynamic program's typed error
// instead of dying in make, and the connection serves the next job.
func TestWorkerRejectsOversizedJobAndKeepsServing(t *testing.T) {
	addrs := startWorkers(t, 1)
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	spec := core.JobSpec{Space: partition.Linear, Workers: 1}
	roundTrip := func(seq uint32, q *query.Query) []byte {
		t.Helper()
		if err := wire.WriteFrame(conn, wire.EncodeJobRequest(&wire.JobRequest{Seq: seq, Spec: spec, Query: q})); err != nil {
			t.Fatal(err)
		}
		resp, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for i, n := range []int{48, 63} {
		big := workload.MustGenerate(workload.NewParams(n, workload.Chain), 1)
		we, err := wire.DecodeWorkerError(roundTrip(uint32(i+1), big))
		if err != nil {
			t.Fatalf("%d-table job: no error frame: %v", n, err)
		}
		if we.Code != wire.ErrJobFailed || !strings.Contains(we.Msg, dp.ErrMemoTooLarge.Error()) {
			t.Fatalf("%d-table job: %+v, want a failed job saying %q", n, we, dp.ErrMemoTooLarge)
		}
	}
	resp, err := wire.DecodeJobResponse(roundTrip(3, gen(t, 6, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Plans) == 0 {
		t.Fatalf("job after the oversized ones failed: %+v", resp)
	}
}

func TestWorkerSurvivesGarbageFrame(t *testing.T) {
	addrs := startWorkers(t, 1)
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, []byte("not a job request")); err != nil {
		t.Fatal(err)
	}
	respB, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	we, err := wire.DecodeWorkerError(respB)
	if err != nil {
		t.Fatal(err)
	}
	if we.Code != wire.ErrBadRequest || !strings.Contains(we.Msg, "decode") {
		t.Fatalf("expected bad-request decode error, got %+v", we)
	}
	// The worker must still serve valid requests on the same connection.
	q := gen(t, 6, 0)
	req := wire.EncodeJobRequest(&wire.JobRequest{
		Spec:   core.JobSpec{Space: partition.Linear, Workers: 2},
		PartID: 0, Query: q,
	})
	if err := wire.WriteFrame(conn, req); err != nil {
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
	if len(resp.Plans) == 0 {
		t.Fatalf("valid request after garbage failed: %+v", resp)
	}

	// A header announcing 512 MiB — under wire.MaxFrameSize, far over
	// wire.MaxRequestFrame — costs the worker four bytes: it hangs up on
	// the header instead of buffering whatever follows, ...
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := conn.Write([]byte{0x20, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	// ... so payload bytes are never read (a worker waiting for them would
	// sit in read until the deadline), ...
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := wire.ReadFrame(conn); !errors.Is(err, io.EOF) {
		t.Fatalf("after a 512 MiB length prefix: %v, want the connection closed", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a lying length prefix made the process allocate %d bytes", grew)
	}
	// ... and the worker goes on serving other connections.
	conn2, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := wire.WriteFrame(conn2, req); err != nil {
		t.Fatal(err)
	}
	if respB, err = wire.ReadFrame(conn2); err != nil {
		t.Fatal(err)
	}
	if resp, err = wire.DecodeJobResponse(respB); err != nil || len(resp.Plans) == 0 {
		t.Fatalf("second connection after the oversized header: %+v, %v", resp, err)
	}
}

func TestMasterFailsOnDeadWorker(t *testing.T) {
	// Grab an address and close it immediately.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ms, err := NewMaster([]string{addr}, Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	q := gen(t, 6, 0)
	if _, err := ms.Optimize(context.Background(), q, core.JobSpec{Space: partition.Linear, Workers: 2}); err == nil {
		t.Fatal("dead worker not reported")
	}
}

func TestNewMasterValidation(t *testing.T) {
	if _, err := NewMaster(nil, Options{Timeout: 0}); err == nil {
		t.Fatal("empty address list accepted")
	}
}

func TestWorkerCloseIdempotentEnough(t *testing.T) {
	w, err := ListenWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Connecting after close must fail.
	if _, err := net.DialTimeout("tcp", w.Addr(), 200*time.Millisecond); err == nil {
		t.Fatal("connected to closed worker")
	}
}

func TestSequentialQueriesReuseConnections(t *testing.T) {
	addrs := startWorkers(t, 2)
	ms, err := NewMaster(addrs, Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Several queries back to back through the same master.
	for seed := int64(0); seed < 3; seed++ {
		q := gen(t, 6, seed)
		if _, err := ms.Optimize(context.Background(), q, core.JobSpec{Space: partition.Bushy, Workers: 2}); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}
