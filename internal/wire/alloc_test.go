package wire

import (
	"context"
	"strings"
	"testing"

	"mpq/internal/core"
	"mpq/internal/partition"
)

// Allocation regression tests for the encode hot paths. The encoders
// run once per master↔worker message; their only allocations should be
// the geometric growth of the output buffer. The old encoder.bool built
// a map[bool]uint8 literal on every call (one map allocation per
// boolean field), which these bounds would catch immediately.

var allocSink []byte

func TestEncodeJobRequestAllocs(t *testing.T) {
	q := genQuery(t, 12, 3)
	req := &JobRequest{
		Spec:   core.JobSpec{Space: partition.Linear, Workers: 8, InterestingOrders: true},
		PartID: 3,
		Query:  q,
	}
	allocs := testing.AllocsPerRun(200, func() {
		allocSink = EncodeJobRequest(req)
	})
	// Buffer growth for a ~400-byte message needs at most ~7 appends;
	// anything above that means a per-field allocation crept in.
	if allocs > 8 {
		t.Errorf("EncodeJobRequest: %.1f allocs/op, want <= 8", allocs)
	}
}

func TestEncodeJobResponseAllocs(t *testing.T) {
	q := genQuery(t, 10, 1)
	res, err := core.RunWorkerContext(context.Background(), q, core.JobSpec{Space: partition.Linear, Workers: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	resp := &JobResponse{Plans: res.Plans, Stats: res.Stats}
	allocs := testing.AllocsPerRun(200, func() {
		allocSink = EncodeJobResponse(resp)
	})
	if allocs > 10 {
		t.Errorf("EncodeJobResponse: %.1f allocs/op, want <= 10", allocs)
	}
}

func TestEncodeQueryAllocs(t *testing.T) {
	q := genQuery(t, 16, 0)
	allocs := testing.AllocsPerRun(200, func() {
		allocSink = EncodeQuery(q)
	})
	if allocs > 8 {
		t.Errorf("EncodeQuery: %.1f allocs/op, want <= 8", allocs)
	}
}

func TestWorkerErrorRoundTrip(t *testing.T) {
	for _, we := range []*WorkerError{
		{Code: ErrBadRequest, Msg: "decode: bad magic 0xdead"},
		{Code: ErrJobFailed, Msg: "partition 3 out of range"},
		{Code: ErrBadRequest, Msg: ""},
	} {
		b := EncodeWorkerError(we)
		got, err := DecodeWorkerError(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Code != we.Code || got.Msg != we.Msg {
			t.Fatalf("round trip changed %+v to %+v", we, got)
		}
		if !strings.Contains(got.Error(), we.Code.String()) {
			t.Fatalf("Error() = %q misses the code", got.Error())
		}
	}
}

func TestWorkerErrorRejectsCorruption(t *testing.T) {
	good := EncodeWorkerError(&WorkerError{Code: ErrJobFailed, Msg: "boom"})
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeWorkerError(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	bad := append([]byte{}, good...)
	bad[8] = 77 // unknown code (header is 4 bytes, Seq another 4)
	if _, err := DecodeWorkerError(bad); err == nil {
		t.Fatal("unknown error code accepted")
	}
}

func TestMessageTag(t *testing.T) {
	q := genQuery(t, 5, 0)
	cases := []struct {
		b    []byte
		want Tag
	}{
		{EncodeQuery(q), TagQuery},
		{EncodeJobRequest(&JobRequest{Spec: core.JobSpec{Space: partition.Linear, Workers: 2}, Query: q}), TagJobRequest},
		{EncodeJobResponse(&JobResponse{}), TagJobResponse},
		{EncodeWorkerError(&WorkerError{Code: ErrBadRequest}), TagWorkerError},
	}
	for _, c := range cases {
		tag, err := MessageTag(c.b)
		if err != nil || tag != c.want {
			t.Fatalf("MessageTag = %d, %v; want %d", tag, err, c.want)
		}
	}
	if _, err := MessageTag([]byte{1, 2}); err == nil {
		t.Fatal("short header accepted")
	}
	if _, err := MessageTag([]byte{0, 0, 1, 1}); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := MessageTag([]byte{0x50, 0x4D, 99, 1}); err == nil {
		t.Fatal("bad version accepted")
	}
}
