package netrun

import (
	"net"
	"testing"
	"time"

	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/wire"
	"mpq/internal/workload"
)

// TestWorkerCancelsOnDisconnect: a worker whose master disconnects
// mid-compute must abort the dynamic program instead of finishing a job
// nobody will read. Observable through Close(): it waits for the
// connection handler, so if the in-flight job kept running, Close would
// block for the job's full duration (~10s for this query); with
// cancel-on-disconnect it returns as soon as the DP notices the
// canceled context.
func TestWorkerCancelsOnDisconnect(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a multi-second optimization to observe its abort")
	}
	w, err := ListenWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// ~10s of single-partition bushy-clique DP on a 2-vCPU Xeon VM (the
	// exact figure only needs to dwarf the shutdown bound asserted below).
	q := workload.MustGenerate(workload.NewParams(18, workload.Clique), 1)
	req := wire.EncodeJobRequest(&wire.JobRequest{
		Seq:   1,
		Spec:  core.JobSpec{Space: partition.Bushy, Workers: 1},
		Query: q,
	})

	conn, err := net.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // let the worker start computing
	conn.Close()                       // master gone

	start := time.Now()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Close took %v after a disconnect mid-compute; the job was not canceled", elapsed)
	}
}

// TestWorkerStillAnswersAfterDisconnectOfOtherConn: canceling one
// connection's work must not disturb another connection's job.
func TestWorkerStillAnswersAfterDisconnectOfOtherConn(t *testing.T) {
	w, err := ListenWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// A connection that sends nothing and drops.
	ghost, err := net.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ghost.Close()

	q := workload.MustGenerate(workload.NewParams(6, workload.Star), 2)
	conn, err := net.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := wire.EncodeJobRequest(&wire.JobRequest{
		Seq:   7,
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
	resp, err := wire.DecodeJobResponse(respB)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 7 || len(resp.Plans) == 0 {
		t.Fatalf("resp seq=%d plans=%d, want seq=7 with plans", resp.Seq, len(resp.Plans))
	}
}
