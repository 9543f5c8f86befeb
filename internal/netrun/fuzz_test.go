package netrun

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"

	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/wire"
	"mpq/internal/workload"
)

// frame returns payload wrapped in one length-prefixed frame.
func frame(tb testing.TB, payload []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, payload); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// frameSeeds is a corpus of real job frames plus adversarial shapes:
// truncated payloads, oversized length prefixes, and garbage.
func frameSeeds(f *testing.F) {
	q := workload.MustGenerate(workload.NewParams(6, workload.Star), 1)
	req := wire.EncodeJobRequest(&wire.JobRequest{
		Spec:  core.JobSpec{Space: partition.Linear, Workers: 4},
		Query: q,
	})
	f.Add(frame(f, req))
	res, err := core.RunWorkerContext(context.Background(), q, core.JobSpec{Space: partition.Linear, Workers: 2}, 1)
	if err != nil {
		f.Fatal(err)
	}
	resp := wire.EncodeJobResponse(&wire.JobResponse{Plans: res.Plans, Stats: res.Stats})
	f.Add(frame(f, resp))
	f.Add(frame(f, wire.EncodeWorkerError(&wire.WorkerError{Code: wire.ErrBadRequest, Msg: "x"})))
	f.Add(frame(f, nil))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 10, 1, 2})                 // claims 10 bytes, has 2
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})            // 4 GB length prefix
	f.Add([]byte{0x40, 0, 0, 1, 0})                  // just above wire.MaxFrameSize
	f.Add(append(frame(f, req), 0xDE, 0xAD))         // trailing bytes beyond the frame
	f.Add(frame(f, bytes.Repeat([]byte{7}, 70<<10))) // spans multiple read chunks
}

// FuzzReadFrame: the framing decoder must never panic, never
// over-allocate on a lying length prefix, and every accepted frame must
// re-encode to exactly the bytes it was parsed from.
func FuzzReadFrame(f *testing.F) {
	frameSeeds(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		payload, err := wire.ReadFrame(bytes.NewReader(b))
		if err != nil {
			return
		}
		if len(b) < 4 {
			t.Fatalf("accepted a %d-byte input with no header", len(b))
		}
		if want := int(binary.BigEndian.Uint32(b)); len(payload) != want {
			t.Fatalf("payload length %d, header says %d", len(payload), want)
		}
		var buf bytes.Buffer
		if err := wire.WriteFrame(&buf, payload); err != nil {
			t.Fatalf("re-frame failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), b[:4+len(payload)]) {
			t.Fatal("re-framed bytes differ from input")
		}
	})
}

// FuzzFrameRoundTrip: any payload survives write-then-read unchanged.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("hello frames"))
	f.Add(bytes.Repeat([]byte{0xAB}, 3*(64<<10)+17)) // spans several of wire's 64 KiB read-ahead chunks
	f.Fuzz(func(t *testing.T, payload []byte) {
		var buf bytes.Buffer
		if err := wire.WriteFrame(&buf, payload); err != nil {
			t.Fatal(err)
		}
		got, err := wire.ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip changed %d bytes to %d", len(payload), len(got))
		}
	})
}

// FuzzSeqCancels drives one connection's cancel registry with fuzzed
// begin, end and cancel sequences, several requests in flight at once,
// and compares it after every step with a plain model: a cancel for a
// request in flight cancels exactly that request, a cancel ahead of its
// request pre-cancels it, and a stale cancel touches nothing and is not
// remembered. The remembered set never exceeds maxEarlyCancels. Each
// op is two bytes: the kind (begin, end, cancel, or a flood of cancels
// ahead of every request) and a Seq in 1..64.
func FuzzSeqCancels(f *testing.F) {
	const begin, end, cancel, flood = 0, 1, 2, 3
	f.Add([]byte{begin, 1, end, 1, cancel, 1})                     // a stale cancel is dropped
	f.Add([]byte{cancel, 1, begin, 1, end, 1})                     // a cancel ahead of its request
	f.Add([]byte{begin, 1, begin, 2, begin, 3, cancel, 2, end, 2}) // one of three in flight
	f.Add([]byte{begin, 2, cancel, 5, cancel, 9, begin, 9, begin, 7})
	f.Add([]byte{flood, 0, begin, 1, cancel, 1, flood, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		type request struct {
			ctx      context.Context
			stop     context.CancelFunc
			canceled bool
		}
		s := seqCancels{live: map[uint32]context.CancelCauseFunc{}, canceled: map[uint32]bool{}}
		live := map[uint32]*request{}
		early := map[uint32]bool{}
		var last uint32
		modelCancel := func(seq uint32) {
			if r := live[seq]; r != nil {
				r.canceled = true
			} else if seq > last && len(early) < maxEarlyCancels {
				early[seq] = true
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			seq := uint32(ops[i+1])%64 + 1
			switch ops[i] % 4 {
			case begin:
				if live[seq] != nil {
					continue // a peer does not reuse a Seq in flight
				}
				ctx, stop := s.begin(context.Background(), seq)
				last = max(last, seq)
				r := &request{ctx: ctx, stop: stop, canceled: early[seq]}
				for k := range early {
					if k <= last {
						delete(early, k)
					}
				}
				live[seq] = r
			case end:
				if r := live[seq]; r != nil {
					s.end(seq)
					r.stop()
					delete(live, seq)
				}
			case cancel:
				s.cancel(seq)
				modelCancel(seq)
			case flood:
				for k := range uint32(maxEarlyCancels + 100) {
					s.cancel(last + seq + k)
					modelCancel(last + seq + k)
				}
			}
			for seq, r := range live {
				if got := r.ctx.Err() != nil; got != r.canceled {
					t.Fatalf("op %d: request %d canceled %v, want %v", i/2, seq, got, r.canceled)
				}
				if r.canceled && context.Cause(r.ctx) != ErrCanceled {
					t.Fatalf("op %d: request %d canceled by %v, want ErrCanceled", i/2, seq, context.Cause(r.ctx))
				}
			}
			if len(s.canceled) != len(early) {
				t.Fatalf("op %d: %d cancels remembered, want %d", i/2, len(s.canceled), len(early))
			}
			for seq := range early {
				if !s.canceled[seq] {
					t.Fatalf("op %d: the cancel ahead of request %d is lost", i/2, seq)
				}
			}
		}
		for _, r := range live {
			r.stop()
		}
	})
}
