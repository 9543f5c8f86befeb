package cache

import (
	"bytes"
	"context"
	"hash/fnv"
	"math"
	"testing"

	"mpq/internal/core"
	"mpq/internal/cost"
	"mpq/internal/partition"
	"mpq/internal/query"
	"mpq/internal/wire"
)

// FuzzFrameKey checks the key that a wire request frame is looked up
// by (wire.CanonicalJobKey, the second half of KeyOf) from both sides.
//
// Completeness: a valid job's request frame keys to KeyOf whatever its
// Seq and PartID, and whatever α and robust band it carries where the
// objective ignores them (or reads 0 as a default), so every repeat of
// a stored job can hit.
//
// Soundness: if a fuzzed frame's key decodes to a valid job that keys
// to itself — and every stored key is such a fixed point — then the
// frame decodes too, to a job with that key. A frame that
// DecodeJobRequest would refuse can never hit; a frame that is not
// canonical (a bool byte of 2, say) misses and takes the decode path.
func FuzzFrameKey(f *testing.F) {
	q := genQuery(f, 5, 1)
	for _, spec := range []core.JobSpec{
		{Space: partition.Linear, Workers: 2},
		{Space: partition.Bushy, Workers: 4, InterestingOrders: true},
		{Space: partition.Linear, Workers: 2, Objective: core.MultiObjective, Alpha: 1.5},
		{Space: partition.Linear, Workers: 1, Objective: core.RobustObjective},
		{Space: partition.Linear, Workers: 2, CostModel: cost.Model{HashFactor: 2, SortFactor: 1, NLBlock: 4, HashSpillFactor: 1}},
	} {
		f.Add(wire.EncodeJobRequest(&wire.JobRequest{Seq: 9, Spec: spec, PartID: 1, Query: q}), uint32(3), uint32(5), 2.5, 3.0)
	}
	notCanonical := wire.EncodeJobRequest(&wire.JobRequest{Spec: core.JobSpec{Space: partition.Linear, Workers: 2, InterestingOrders: true}, Query: q})
	notCanonical[30] = 2 // InterestingOrders
	f.Add(notCanonical, uint32(0), uint32(0), 0.0, 0.0)
	f.Add([]byte{}, uint32(0), uint32(0), math.NaN(), math.Inf(1))

	c := New(Config{})
	f.Fuzz(func(t *testing.T, frame []byte, seq, part uint32, alpha, band float64) {
		key := append([]byte(nil), frame...)
		if !wire.CanonicalJobKey(key) {
			if _, err := wire.DecodeJobRequest(frame); err == nil {
				t.Fatal("a frame that decodes has no key")
			}
			return
		}

		// Soundness.
		if job, err := wire.DecodeJobRequest(key); err == nil && c.KeyOf(job.Query, job.Spec).Bytes == string(key) {
			got, err := wire.DecodeJobRequest(frame)
			if err != nil {
				t.Fatalf("the key is a stored job's, but the frame does not decode: %v", err)
			}
			if k := c.KeyOf(got.Query, got.Spec); k.Bytes != string(key) {
				t.Fatal("the frame decodes to a job of another key")
			}
		}

		// Completeness, for the job the frame holds.
		job, err := wire.DecodeJobRequest(frame)
		if err != nil {
			return
		}
		want := c.KeyOf(job.Query, job.Spec)
		job.Seq, job.PartID = seq, int(part)
		switch {
		case !job.Spec.Objective.HasFrontier():
			job.Spec.Alpha = alpha
		case job.Spec.Alpha == 0 || job.Spec.Alpha == 1:
			job.Spec.Alpha = []float64{0, 1, math.Copysign(0, -1)}[seq%3]
		}
		switch {
		case job.Spec.Objective != core.RobustObjective:
			job.Spec.RobustBand = band
		case job.Spec.RobustBand == 0 || job.Spec.RobustBand == core.DefaultRobustBand:
			job.Spec.RobustBand = []float64{0, core.DefaultRobustBand}[part%2]
		}
		b := wire.EncodeJobRequest(job)
		if !wire.CanonicalJobKey(b) || string(b) != want.Bytes || c.fingerprint(b) != want.FP {
			t.Fatalf("request frame keys to\n%x\nKeyOf gives\n%x", b, want.Bytes)
		}
	})
}

// TestFingerprintIsFNV1a: the written-out hash is hash/fnv's 64-bit
// FNV-1a, so fingerprints did not move when it replaced the package.
func TestFingerprintIsFNV1a(t *testing.T) {
	c := New(Config{})
	for _, b := range [][]byte{nil, {0}, []byte("mpq"), bytes.Repeat([]byte{0xA5, 3}, 300)} {
		h := fnv.New64a()
		h.Write(b)
		if got, want := c.fingerprint(b), h.Sum64(); got != want {
			t.Fatalf("fingerprint(%x) = %x, FNV-1a %x", b, got, want)
		}
	}
}

// TestWireHitServesTheStoredReply: a request frame for a stored job is
// answered with the reply frame the answer encodes to, Seq patched in,
// counted as a hit; any other frame is a miss that leaves dst alone and
// counts nothing.
func TestWireHitServesTheStoredReply(t *testing.T) {
	c := New(Config{})
	q := genQuery(t, 6, 3)
	spec := core.JobSpec{Space: partition.Linear, Workers: 2, Objective: core.MultiObjective}
	req := wire.EncodeJobRequest(&wire.JobRequest{Seq: 77, Spec: spec, PartID: 1, Query: q})
	dst := []byte("prefix")
	if got, ans, ok := c.AppendWireHit(dst, req); ok || ans != nil || string(got) != "prefix" {
		t.Fatal("an empty cache served a hit")
	}
	ans, err := c.Optimize(context.Background(), q, spec, func(ctx context.Context, q2 *query.Query, s core.JobSpec) (*core.Answer, error) {
		return mustAnswer(t, q2, s), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, stored, ok := c.AppendWireHit(dst, req)
	if !ok || stored == nil || stored.Best != ans.Best {
		t.Fatal("a stored job did not hit")
	}
	want := wire.AnswerFrame(77, ans.Best, ans.Frontier, ans.Stats)
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("hit appended\n%x\nwant\n%x", got, want)
	}
	if tot := c.Totals(); tot.Hits != 1 || tot.Misses != 1 {
		t.Fatalf("totals %+v, want one miss and one hit", tot)
	}
	other := wire.EncodeJobRequest(&wire.JobRequest{Spec: core.JobSpec{Space: partition.Linear, Workers: 1}, Query: q})
	for _, miss := range [][]byte{other, req[:40], wire.EncodeQuery(q)} {
		if got, _, ok := c.AppendWireHit(dst, miss); ok || string(got) != "prefix" {
			t.Fatalf("frame %x hit", miss)
		}
	}
	if tot := c.Totals(); tot.Hits != 1 {
		t.Fatalf("misses counted as hits: %+v", tot)
	}
	allocs := testing.AllocsPerRun(100, func() {
		dst, _, _ = c.AppendWireHit(dst[:0], req)
	})
	if allocs != 0 {
		t.Fatalf("a wire hit into a large enough buffer allocates %.0f objects", allocs)
	}
}
