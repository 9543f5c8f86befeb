package wire

import (
	"context"
	"testing"

	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/workload"
)

// Native fuzz targets: the seed corpus runs on every `go test`; run with
// `go test -fuzz FuzzDecodeQuery ./internal/wire` to explore further.
// Decoders must never panic and every accepted message must re-encode.

func seedCorpus(f *testing.F) {
	q := workload.MustGenerate(workload.NewParams(6, workload.Star), 1)
	f.Add(EncodeQuery(q))
	f.Add(EncodeJobRequest(&JobRequest{
		Spec:  core.JobSpec{Space: partition.Linear, Workers: 4},
		Query: q,
	}))
	res, err := core.RunWorkerContext(context.Background(), q, core.JobSpec{Space: partition.Linear, Workers: 2}, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(EncodePlan(res.Plans[0]))
	f.Add(EncodeJobResponse(&JobResponse{Plans: res.Plans, Stats: res.Stats}))
	f.Add(EncodeWorkerError(&WorkerError{Code: ErrBadRequest, Msg: "decode: bad magic"}))
	f.Add([]byte{})
	f.Add([]byte{0x50, 0x4d, 1, 1})
}

func FuzzDecodeQuery(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		q, err := DecodeQuery(b)
		if err != nil {
			return
		}
		// Accepted queries must be valid and re-encodable.
		if err := q.Validate(); err != nil {
			t.Fatalf("decoder accepted invalid query: %v", err)
		}
		if _, err := DecodeQuery(EncodeQuery(q)); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
	})
}

func FuzzDecodePlan(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodePlan(b)
		if err != nil {
			return
		}
		if _, err := DecodePlan(EncodePlan(p)); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
	})
}

func FuzzDecodeJobRequest(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeJobRequest(b)
		if err != nil {
			return
		}
		if err := r.Spec.Validate(r.Query.N()); err != nil {
			t.Fatalf("decoder accepted invalid spec: %v", err)
		}
	})
}

func FuzzDecodeWorkerError(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		w, err := DecodeWorkerError(b)
		if err != nil {
			return
		}
		got, err := DecodeWorkerError(EncodeWorkerError(w))
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if got.Code != w.Code || got.Msg != w.Msg {
			t.Fatal("re-encode changed the message")
		}
	})
}

func FuzzDecodeJobResponse(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeJobResponse(b)
		if err != nil {
			return
		}
		if _, err := DecodeJobResponse(EncodeJobResponse(r)); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
	})
}
