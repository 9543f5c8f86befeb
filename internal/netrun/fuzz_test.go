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
