package wire

import (
	"bytes"
	"context"
	"math"
	"testing"

	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/plan"
)

// TestFrameEncodersAreExact: each *Frame encoder makes its frame in one
// allocation of exactly the frame's size, writes the length prefix, and
// carries the bytes its Encode* twin returns — so WriteFramed of the
// frame puts on the wire what WriteFrame of the payload does.
func TestFrameEncodersAreExact(t *testing.T) {
	q := genQuery(t, 9, 4)
	res, err := core.RunWorkerContext(context.Background(), q, core.JobSpec{Space: partition.Linear, Workers: 2, Objective: core.MultiObjective}, 1)
	if err != nil {
		t.Fatal(err)
	}
	req := &JobRequest{Seq: 3, Spec: core.JobSpec{Space: partition.Bushy, Workers: 4, Alpha: 2}, PartID: 2, Query: q}
	resp := &JobResponse{Seq: 4, Plans: res.Plans, Stats: res.Stats}
	we := &WorkerError{Seq: 5, Code: ErrJobFailed, Msg: "boom"}
	cr := &CancelRequest{Seq: 6}
	for _, c := range []struct {
		name    string
		frame   func() []byte
		payload []byte
	}{
		{"JobRequest", func() []byte { return JobRequestFrame(req) }, EncodeJobRequest(req)},
		{"JobResponse", func() []byte { return JobResponseFrame(resp) }, EncodeJobResponse(resp)},
		{"Answer", func() []byte { return AnswerFrame(4, res.Plans[0], res.Plans[1:], res.Stats) }, EncodeJobResponse(resp)},
		{"WorkerError", func() []byte { return WorkerErrorFrame(we) }, EncodeWorkerError(we)},
		{"CancelRequest", func() []byte { return CancelRequestFrame(cr) }, EncodeCancelRequest(cr)},
	} {
		f := c.frame()
		if len(f) != cap(f) {
			t.Errorf("%s: frame of %d bytes in a %d-byte buffer", c.name, len(f), cap(f))
		}
		var want bytes.Buffer
		if err := WriteFrame(&want, c.payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f, want.Bytes()) {
			t.Errorf("%s: frame\n%x\nWriteFrame of the payload\n%x", c.name, f, want.Bytes())
		}
		if allocs := testing.AllocsPerRun(50, func() { allocSink = c.frame() }); allocs != 1 {
			t.Errorf("%s: %.1f allocations per frame, want 1", c.name, allocs)
		}
	}
}

// TestWriteFramedSendsTheBufferItself: a whole frame goes out in one
// Write of the caller's own buffer, copying nothing; a buffer whose
// length prefix does not match its length is refused before any write.
func TestWriteFramedSendsTheBufferItself(t *testing.T) {
	frame := CancelRequestFrame(&CancelRequest{Seq: 1})
	var got [][]byte
	w := writerFunc(func(p []byte) (int, error) { got = append(got, p); return len(p), nil })
	if err := WriteFramed(w, frame); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || &got[0][0] != &frame[0] || len(got[0]) != len(frame) {
		t.Fatal("WriteFramed did not hand the frame itself to one Write")
	}
	for _, bad := range [][]byte{nil, {0, 0}, EncodeCancelRequest(&CancelRequest{Seq: 1})} {
		if err := WriteFramed(w, bad); err == nil {
			t.Fatalf("WriteFramed accepted %x", bad)
		}
	}
	if len(got) != 1 {
		t.Fatal("a refused frame was written")
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestSetFrameSeq: re-addressing a stored reply frame changes its Seq
// and nothing else.
func TestSetFrameSeq(t *testing.T) {
	q := genQuery(t, 5, 2)
	res, err := core.RunWorkerContext(context.Background(), q, core.JobSpec{Space: partition.Linear, Workers: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := AnswerFrame(0, res.Plans[0], nil, res.Stats)
	SetFrameSeq(f, 0xDEADBEEF)
	if want := AnswerFrame(0xDEADBEEF, res.Plans[0], nil, res.Stats); !bytes.Equal(f, want) {
		t.Fatalf("re-addressed frame\n%x\nwant\n%x", f, want)
	}
	e := WorkerErrorFrame(&WorkerError{Code: ErrOverloaded, Msg: "x"})
	SetFrameSeq(e, 9)
	if got, err := DecodeWorkerError(e[prefixLen:]); err != nil || got.Seq != 9 {
		t.Fatalf("re-addressed error frame: %+v, %v", got, err)
	}
}

// TestCanonicalJobKeyRewritesOnlyTheUnreadFields: the key zeroes Seq
// and PartID, writes α and the band as the objective reads them, and
// leaves every other byte of the request alone.
func TestCanonicalJobKeyRewritesOnlyTheUnreadFields(t *testing.T) {
	q := genQuery(t, 6, 1)
	for _, c := range []struct {
		spec        core.JobSpec
		alpha, band float64
	}{
		{core.JobSpec{Space: partition.Linear, Workers: 2, Alpha: 3, RobustBand: 4}, 0, 0},
		{core.JobSpec{Space: partition.Linear, Workers: 2, Objective: core.MultiObjective, RobustBand: 4}, 1, 0},
		{core.JobSpec{Space: partition.Linear, Workers: 2, Objective: core.MultiObjective, Alpha: 1.5}, 1.5, 0},
		{core.JobSpec{Space: partition.Linear, Workers: 2, Objective: core.RobustObjective, Alpha: math.Copysign(0, -1)}, 1, core.DefaultRobustBand},
		{core.JobSpec{Space: partition.Linear, Workers: 2, Objective: core.RobustObjective, RobustBand: 3}, 1, 3},
	} {
		b := EncodeJobRequest(&JobRequest{Seq: 7, Spec: c.spec, PartID: 1, Query: q})
		orig := append([]byte(nil), b...)
		if !CanonicalJobKey(b) {
			t.Fatalf("%+v: no key", c.spec)
		}
		got, err := DecodeJobRequest(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Seq != 0 || got.PartID != 0 || got.Spec.Alpha != c.alpha || got.Spec.RobustBand != c.band {
			t.Fatalf("%+v keyed to Seq %d, PartID %d, α %g, band %g; want 0, 0, %g, %g",
				c.spec, got.Seq, got.PartID, got.Spec.Alpha, got.Spec.RobustBand, c.alpha, c.band)
		}
		for i := range b {
			inField := (i >= jobSeqOff && i < jobSeqOff+4) || (i >= jobAlphaOff && i < jobBandOff+8) || (i >= jobPartOff && i < jobFixedLen)
			if !inField && b[i] != orig[i] {
				t.Fatalf("%+v: byte %d changed", c.spec, i)
			}
		}
	}
	for _, b := range [][]byte{nil, EncodeQuery(q), EncodeJobRequest(&JobRequest{Spec: core.JobSpec{Workers: 1}, Query: q})[:jobFixedLen-1]} {
		orig := append([]byte(nil), b...)
		if CanonicalJobKey(b) || !bytes.Equal(b, orig) {
			t.Fatalf("%x: keyed, or changed without a key", orig)
		}
	}
}

// TestDecodedPlansShareOneSlab: a response's plan nodes are one
// allocation, whatever the number of plans.
func TestDecodedPlansShareOneSlab(t *testing.T) {
	q := genQuery(t, 10, 3)
	res, err := core.RunWorkerContext(context.Background(), q, core.JobSpec{Space: partition.Linear, Workers: 2, Objective: core.MultiObjective}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plans) < 2 {
		t.Fatalf("want a frontier, got %d plans", len(res.Plans))
	}
	b := EncodeJobResponse(&JobResponse{Plans: res.Plans, Stats: res.Stats})
	var got *JobResponse
	allocs := testing.AllocsPerRun(50, func() {
		got, err = DecodeJobResponse(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	// The response, its Plans slice and the node slab.
	if allocs > 3 {
		t.Fatalf("decoding %d plans allocates %.1f objects, want at most 3", len(got.Plans), allocs)
	}
	for i, p := range got.Plans {
		if PlanFingerprint(p) != PlanFingerprint(res.Plans[i]) {
			t.Fatalf("plan %d changed in the round trip", i)
		}
	}
	var nodes int
	var count func(*plan.Node)
	count = func(p *plan.Node) {
		nodes++
		if !p.IsScan {
			count(p.Left)
			count(p.Right)
		}
	}
	for _, p := range got.Plans {
		count(p)
	}
	if want := len(got.Plans) * (2*q.N() - 1); nodes != want {
		t.Fatalf("%d nodes, want %d", nodes, want)
	}
}
