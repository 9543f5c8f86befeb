package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mpq"
	"mpq/internal/partition"
	"mpq/internal/wire"
)

// wireConn dials the daemon's wire front for a raw-frame test.
func wireConn(t *testing.T, s *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", s.WireAddr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn, bufio.NewReader(conn)
}

// roundTrip sends one job request and returns the reply payload.
func roundTrip(t *testing.T, conn net.Conn, br *bufio.Reader, req *wire.JobRequest) []byte {
	t.Helper()
	if err := wire.WriteFramed(conn, wire.JobRequestFrame(req)); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// withoutSeq is a reply payload with its Seq field zeroed.
func withoutSeq(payload []byte) []byte {
	b := append([]byte(nil), payload...)
	copy(b[4:8], make([]byte, 4))
	return b
}

// TestWireHitReplyIsTheMissReply: a request the cache stores is answered
// from the stored reply frame, and that frame is, Seq aside, the very
// bytes the engine's answer was sent as — for a single-best job and for
// a frontier job. The hit needs no canonical form from the client: a
// different Seq, PartID and an α the objective ignores key alike.
func TestWireHitReplyIsTheMissReply(t *testing.T) {
	cached := mpq.WithCache(mpq.NewSerialEngine(), mpq.CacheConfig{})
	s := startServer(t, Config{Engine: cached})
	conn, br := wireConn(t, s)
	q := testQuery(t, 6, 11)
	for i, c := range []struct {
		first, again mpq.JobSpec
	}{
		{mpq.JobSpec{Space: partition.Linear, Workers: 2}, mpq.JobSpec{Space: partition.Linear, Workers: 2, Alpha: 7}},
		{mpq.JobSpec{Space: partition.Linear, Workers: 2, Objective: mpq.MultiObjective}, mpq.JobSpec{Space: partition.Linear, Workers: 2, Objective: mpq.MultiObjective, Alpha: 1}},
	} {
		before := cached.CacheTotals()
		seq := uint32(10 * (i + 1))
		miss := roundTrip(t, conn, br, &wire.JobRequest{Seq: seq, Spec: c.first, Query: q})
		hit := roundTrip(t, conn, br, &wire.JobRequest{Seq: seq + 1, Spec: c.again, PartID: 1, Query: q})
		after := cached.CacheTotals()
		if after.Misses != before.Misses+1 || after.Hits != before.Hits+1 {
			t.Fatalf("case %d: cache went from %+v to %+v, want one miss then one hit", i, before, after)
		}
		if !bytes.Equal(withoutSeq(miss), withoutSeq(hit)) {
			t.Fatalf("case %d: the hit's reply differs from the miss's beyond Seq:\nmiss %x\nhit  %x", i, miss, hit)
		}
		resp, err := wire.DecodeJobResponse(hit)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Seq != seq+1 {
			t.Fatalf("case %d: decoded hit Seq %d, want %d", i, resp.Seq, seq+1)
		}
		if c.first.Objective.HasFrontier() != (len(resp.Plans) > 1) {
			t.Fatalf("case %d: %d plans in the reply", i, len(resp.Plans))
		}
	}
}

// TestWireHitCountsAndLogs: a wire cache hit is a served request in
// /metrics and in the cache's totals, and writes one plan-log record
// with its own ID, CacheHit and the plan the miss was logged with.
func TestWireHitCountsAndLogs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.jsonl")
	cached := mpq.WithCache(mpq.NewSerialEngine(), mpq.CacheConfig{})
	s := startServer(t, Config{Engine: cached, PlanLog: PlanLogConfig{Path: path}})
	conn, br := wireConn(t, s)
	q := testQuery(t, 5, 12)
	js := mpq.JobSpec{Space: partition.Linear, Workers: 2}
	roundTrip(t, conn, br, &wire.JobRequest{Seq: 1, Spec: js, Query: q})
	roundTrip(t, conn, br, &wire.JobRequest{Seq: 2, Spec: js, Query: q})

	resp, err := http.Get("http://" + s.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`mpqd_requests_total{tenant="127.0.0.1",source="wire",outcome="served"} 2`,
		"mpqd_cache_hits_total 1",
		"mpqd_cache_misses_total 1",
		"mpqd_request_seconds_count 2",
	} {
		if !strings.Contains(string(body), want+"\n") {
			t.Errorf("/metrics lacks %q:\n%s", want, body)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil { // flushes the plan log
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var r Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	if len(recs) != 2 {
		t.Fatalf("%d plan-log records, want 2:\n%s", len(recs), raw)
	}
	miss, hit := recs[0], recs[1]
	if miss.CacheHit || !hit.CacheHit {
		t.Fatalf("CacheHit %v then %v, want false then true", miss.CacheHit, hit.CacheHit)
	}
	if hit.ID == "" || hit.ID == miss.ID {
		t.Fatalf("hit logged with ID %q, miss with %q", hit.ID, miss.ID)
	}
	if hit.Fingerprint == "" || hit.Fingerprint != miss.Fingerprint || hit.Cost != miss.Cost {
		t.Fatalf("hit logged plan %s (cost %g), miss %s (cost %g)", hit.Fingerprint, hit.Cost, miss.Fingerprint, miss.Cost)
	}
	if hit.Tables != q.N() || hit.Predicates != len(q.Preds) || hit.Source != "wire" || hit.Space != miss.Space || hit.Workers != 2 || hit.Objective != miss.Objective {
		t.Fatalf("hit record %+v does not describe the request (miss record %+v)", hit, miss)
	}
}

// TestWireHitRefusedWhileDraining: once a drain began, a request the
// cache could answer is refused exactly as a miss is — ErrOverloaded,
// then the connection closes — and is not counted as a hit.
func TestWireHitRefusedWhileDraining(t *testing.T) {
	cached := mpq.WithCache(mpq.NewSerialEngine(), mpq.CacheConfig{})
	s := startServer(t, Config{Engine: cached})
	conn, br := wireConn(t, s)
	q := testQuery(t, 5, 13)
	req := &wire.JobRequest{Seq: 1, Spec: mpq.JobSpec{Space: partition.Linear, Workers: 2}, Query: q}
	roundTrip(t, conn, br, req)

	// The state Shutdown enters first. Shutdown itself would also
	// half-close this connection, so that no frame sent later is read.
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	req.Seq = 2
	payload := roundTrip(t, conn, br, req)
	we, err := wire.DecodeWorkerError(payload)
	if err != nil {
		t.Fatalf("reply during drain is not an error frame: %v", err)
	}
	if we.Seq != 2 || we.Code != wire.ErrOverloaded || !strings.Contains(we.Msg, ErrDraining.Error()) {
		t.Fatalf("reply during drain: %+v, want ErrOverloaded for Seq 2", we)
	}
	if _, err := wire.ReadFrame(br); err != io.EOF {
		t.Fatalf("connection after the refusal: %v, want EOF", err)
	}
	if h := cached.CacheTotals().Hits; h != 0 {
		t.Fatalf("%d hits counted for a refused request", h)
	}
}

// TestWireHitsAndMissesPipelined: hits, answered on the connection's
// reader, and misses, answered by dispatchers, share one pipelined
// connection; every reply still finds its request by Seq.
func TestWireHitsAndMissesPipelined(t *testing.T) {
	cached := mpq.WithCache(mpq.NewSerialEngine(), mpq.CacheConfig{})
	s := startServer(t, Config{Engine: cached, Dispatchers: 2})
	conn, br := wireConn(t, s)
	js := mpq.JobSpec{Space: partition.Linear, Workers: 2}
	warm := testQuery(t, 6, 14)
	roundTrip(t, conn, br, &wire.JobRequest{Seq: 100, Spec: js, Query: warm})

	want := map[uint32]string{} // Seq → fingerprint
	var batch bytes.Buffer
	for seq := uint32(1); seq <= 8; seq++ {
		q := warm
		if seq%2 == 0 {
			q = testQuery(t, 7, int64(seq))
		}
		ans, err := mpq.NewSerialEngine().Optimize(context.Background(), q, js)
		if err != nil {
			t.Fatal(err)
		}
		want[seq] = mpq.PlanFingerprint(ans.Best)
		batch.Write(wire.JobRequestFrame(&wire.JobRequest{Seq: seq, Spec: js, Query: q}))
	}
	if _, err := conn.Write(batch.Bytes()); err != nil {
		t.Fatal(err)
	}
	for range len(want) {
		payload, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := wire.DecodeJobResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		fp, ok := want[resp.Seq]
		if !ok {
			t.Fatalf("reply for Seq %d, unknown or answered twice", resp.Seq)
		}
		if got := mpq.PlanFingerprint(resp.Plans[0]); got != fp {
			t.Fatalf("Seq %d answered with plan %s, want %s", resp.Seq, got, fp)
		}
		delete(want, resp.Seq)
	}
	if tot := cached.CacheTotals(); tot.Hits != 4 || tot.Misses != 5 {
		t.Fatalf("cache totals %+v, want 4 hits and 5 misses", tot)
	}
}

// TestWireHitAllocs: a cache hit's round trip through a Client — both
// ends, the daemon's lookup and its stored reply included — stays
// within 30 allocations; the decode-and-dispatch path took 90.
func TestWireHitAllocs(t *testing.T) {
	cached := mpq.WithCache(mpq.NewSerialEngine(), mpq.CacheConfig{})
	s := startServer(t, Config{Engine: cached})
	c, err := Dial(s.WireAddr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := testQuery(t, 8, 1)
	js := mpq.JobSpec{Space: partition.Linear, Workers: 2}
	ctx := context.Background()
	if _, err := c.Optimize(ctx, q, js); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.Optimize(ctx, q, js); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 30 {
		t.Fatalf("a wire hit round trip allocates %.1f objects, want at most 30", allocs)
	}
	if tot := cached.CacheTotals(); tot.Hits < 200 {
		t.Fatalf("%d hits: the round trips did not all hit", tot.Hits)
	}
}

// BenchmarkWireHit is one cache hit's round trip through a Client: the
// request encoded, the daemon's lookup on the frame's bytes and its
// stored reply, the reply decoded. Allocations count both sides.
func BenchmarkWireHit(b *testing.B) {
	cached := mpq.WithCache(mpq.NewInProcessEngine(), mpq.CacheConfig{})
	s, err := New(Config{Engine: cached, WireAddr: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Start(); err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	c, err := Dial(s.WireAddr(), time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	q := testQuery(b, 8, 1)
	js := mpq.JobSpec{Space: partition.Linear, Workers: 2}
	ctx := context.Background()
	if _, err := c.Optimize(ctx, q, js); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := c.Optimize(ctx, q, js); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if tot := cached.CacheTotals(); tot.Hits < uint64(b.N) {
		b.Fatal(fmt.Sprintf("%d hits for %d round trips", tot.Hits, b.N))
	}
}
