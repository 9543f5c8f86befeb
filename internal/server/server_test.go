package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"mpq"
	"mpq/internal/core"
	"mpq/internal/dp"
	"mpq/internal/partition"
	"mpq/internal/spec"
	"mpq/internal/wire"
	"mpq/internal/workload"
)

// gatedEngine wraps a real engine behind a token gate so tests control
// exactly when each request executes. started (if set) signals the
// moment a dispatcher picks a request up.
type gatedEngine struct {
	inner   mpq.Engine
	gate    chan struct{} // nil = ungated; else one token per serve
	started chan struct{} // nil = silent
}

func (e *gatedEngine) Optimize(ctx context.Context, q *mpq.Query, js mpq.JobSpec) (*mpq.Answer, error) {
	if e.started != nil {
		e.started <- struct{}{}
	}
	if e.gate != nil {
		select {
		case <-e.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return e.inner.Optimize(ctx, q, js)
}

func (e *gatedEngine) OptimizeBatch(ctx context.Context, jobs []mpq.Job) ([]*mpq.Answer, error) {
	answers := make([]*mpq.Answer, len(jobs))
	for i, job := range jobs {
		ans, err := e.Optimize(ctx, job.Query, job.Spec)
		if err != nil {
			return nil, err
		}
		answers[i] = ans
	}
	return answers, nil
}

// startServer builds, starts and auto-drains a server for a test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = mpq.NewSerialEngine()
	}
	if cfg.HTTPAddr == "" && cfg.WireAddr == "" {
		cfg.HTTPAddr = "127.0.0.1:0"
		cfg.WireAddr = "127.0.0.1:0"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func testQuery(tb testing.TB, n int, seed int64) *mpq.Query {
	tb.Helper()
	return workload.MustGenerate(workload.NewParams(n, workload.Star), seed)
}

// postOptimize submits one HTTP request; goroutine-safe (no testing.T).
func postOptimize(s *Server, body OptimizeRequest) (*http.Response, []byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.Post("http://"+s.HTTPAddr()+"/v1/optimize", "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes(), nil
}

// mustPost is postOptimize for direct (non-goroutine) call sites.
func mustPost(t *testing.T, s *Server, body OptimizeRequest) (*http.Response, []byte) {
	t.Helper()
	resp, b, err := postOptimize(s, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestFingerprintParityAcrossFronts: the same query optimized directly,
// over HTTP and over the wire protocol must carry identical plan
// fingerprints — the daemon is a transport, not a different optimizer.
func TestFingerprintParityAcrossFronts(t *testing.T) {
	s := startServer(t, Config{})
	q := testQuery(t, 6, 1)
	js := mpq.JobSpec{Space: partition.Linear, Workers: 2}

	direct, err := mpq.NewSerialEngine().Optimize(context.Background(), q, js)
	if err != nil {
		t.Fatal(err)
	}
	want := mpq.PlanFingerprint(direct.Best)

	// HTTP front.
	resp, body := mustPost(t, s, OptimizeRequest{Query: *spec.FromQuery(q), Workers: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP status %d: %s", resp.StatusCode, body)
	}
	var or OptimizeResponse
	if err := json.Unmarshal(body, &or); err != nil {
		t.Fatal(err)
	}
	if or.Fingerprint != want {
		t.Errorf("HTTP fingerprint %s, want %s", or.Fingerprint, want)
	}
	if or.Cost != direct.Best.Cost {
		t.Errorf("HTTP cost %g, want %g", or.Cost, direct.Best.Cost)
	}

	// Wire front.
	c, err := Dial(s.WireAddr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ans, err := c.Optimize(context.Background(), q, js)
	if err != nil {
		t.Fatal(err)
	}
	if got := mpq.PlanFingerprint(ans.Best); got != want {
		t.Errorf("wire fingerprint %s, want %s", got, want)
	}
}

// TestMultiObjectiveOverWire: frontiers survive the wire round trip —
// the multi-objective one and the parametric one, which is the same
// kind of job under another cost model.
func TestMultiObjectiveOverWire(t *testing.T) {
	s := startServer(t, Config{Engine: mpq.NewInProcessEngine()})
	q := testQuery(t, 8, 31)
	c, err := Dial(s.WireAddr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for name, js := range map[string]mpq.JobSpec{
		"multi-objective": {Space: partition.Linear, Workers: 1, Objective: core.MultiObjective, Alpha: 10},
		"parametric":      mpq.ParametricSpec(partition.Linear, 4, 20),
	} {
		direct, err := mpq.NewInProcessEngine().Optimize(context.Background(), q, js)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := c.Optimize(context.Background(), q, js)
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Frontier) != len(direct.Frontier) {
			t.Fatalf("%s: frontier size %d over wire, %d direct", name, len(ans.Frontier), len(direct.Frontier))
		}
		for i := range ans.Frontier {
			if mpq.PlanFingerprint(ans.Frontier[i]) != mpq.PlanFingerprint(direct.Frontier[i]) {
				t.Errorf("%s: frontier[%d] fingerprint diverges", name, i)
			}
		}
		if mpq.PlanFingerprint(ans.Best) != mpq.PlanFingerprint(direct.Best) {
			t.Errorf("%s: best plan diverges", name)
		}
	}
}

// TestOverloadRejection: once QueueDepth requests wait, the HTTP front
// answers 429 with Retry-After and the wire front answers a retryable
// ErrOverloaded — load sheds at admission instead of queueing without
// bound.
func TestOverloadRejection(t *testing.T) {
	gate := make(chan struct{})
	eng := &gatedEngine{inner: mpq.NewSerialEngine(), gate: gate, started: make(chan struct{}, 16)}
	s := startServer(t, Config{Engine: eng, QueueDepth: 1, Dispatchers: 1})
	q := testQuery(t, 4, 3)
	qs := *spec.FromQuery(q)

	// Occupy the single dispatcher, then the single queue slot. The
	// posts are sequenced — second only after the first reached the
	// engine — else they race for the lone queue slot and one gets a
	// 429 here instead of below.
	var wg sync.WaitGroup
	post := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			postOptimize(s, OptimizeRequest{Query: qs})
		}()
	}
	post()
	<-eng.started // dispatcher is now blocked on the gate
	post()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queued == 1
	})

	// Third request: no room.
	resp, body := mustPost(t, s, OptimizeRequest{Query: qs})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Wire front sheds the same way.
	c, err := Dial(s.WireAddr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Optimize(context.Background(), q, mpq.JobSpec{Space: partition.Linear, Workers: 1}); err == nil {
		t.Fatal("wire submit succeeded past a full queue")
	} else if !strings.Contains(err.Error(), ErrOverloaded.Error()) {
		t.Fatalf("wire error %v does not wrap ErrOverloaded", err)
	}

	close(gate) // release everything
	wg.Wait()
	for len(eng.started) > 0 {
		<-eng.started
	}
}

// TestWeightedFairness: with tenants queued back-to-back, stride
// scheduling serves them proportionally to their weights. Weight 3 vs
// weight 1 over 8 dispatches must give the heavy tenant 6 and the
// light one 2.
func TestWeightedFairness(t *testing.T) {
	gate := make(chan struct{})
	eng := &gatedEngine{inner: mpq.NewSerialEngine(), gate: gate, started: make(chan struct{}, 32)}
	s := startServer(t, Config{
		Engine:        eng,
		QueueDepth:    32,
		Dispatchers:   1,
		TenantWeights: map[string]float64{"heavy": 3, "light": 1},
	})
	q := testQuery(t, 4, 4)
	qs := *spec.FromQuery(q)

	// Stall the dispatcher with a throwaway request so both tenants'
	// queues fill before any fairness decision happens.
	// Each client reports its tenant when its answer arrives: with one
	// dispatcher and one gate token at a time, answers arrive in
	// dispatch order.
	finished := make(chan string, 13)
	var wg sync.WaitGroup
	post := func(tenant string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			postOptimize(s, OptimizeRequest{Query: qs, Tenant: tenant})
			finished <- tenant
		}()
	}
	post("warmup")
	<-eng.started
	for i := 0; i < 6; i++ {
		post("light")
		post("heavy")
	}
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queued == 12
	})

	// Release the 13 requests one at a time; each token finishes the
	// running request and lets the dispatcher pick the next queued one.
	// The first answer is the warmup's; the next eight are the first
	// eight fairness decisions.
	served := []string{}
	for i := 0; i < 13; i++ {
		gate <- struct{}{}
		if tn := <-finished; 1 <= i && i <= 8 {
			served = append(served, tn)
		}
		if i < 12 {
			<-eng.started
		}
	}
	wg.Wait()

	heavy := 0
	for _, tn := range served {
		if tn == "heavy" {
			heavy++
		}
	}
	if heavy != 6 {
		t.Fatalf("heavy tenant served %d of the first 8 (order %v), want 6", heavy, served)
	}
}

// TestCompletionOrderOverWire: a fast query pipelined behind a slow one
// on the same connection returns first.
func TestCompletionOrderOverWire(t *testing.T) {
	gate := make(chan struct{}, 2)
	eng := &gatedEngine{inner: mpq.NewSerialEngine(), gate: gate, started: make(chan struct{}, 2)}
	s := startServer(t, Config{Engine: eng, Dispatchers: 2})
	q := testQuery(t, 4, 5)
	js := mpq.JobSpec{Space: partition.Linear, Workers: 1}

	c, err := Dial(s.WireAddr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	results := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Optimize(context.Background(), q, js); err != nil {
				t.Errorf("job %d: %v", i, err)
			}
			results <- i
		}(i)
		<-eng.started // both jobs reach the gate in submission order
	}
	// Release one job; its reply must come back while the other is still
	// gated — proving the connection does not serialize replies in
	// submission order. (Gate tokens are anonymous, so either job may be
	// the one released; liveness is the property under test.)
	gate <- struct{}{}
	first := <-results
	gate <- struct{}{}
	second := <-results
	wg.Wait()
	if first == second {
		t.Fatalf("duplicate completion %d", first)
	}
}

// TestDrainGraceful: Shutdown waits for queued and in-flight work, then
// returns nil; later submissions fail with ErrDraining.
func TestDrainGraceful(t *testing.T) {
	gate := make(chan struct{}, 8)
	eng := &gatedEngine{inner: mpq.NewSerialEngine(), gate: gate, started: make(chan struct{}, 8)}
	s := startServer(t, Config{Engine: eng, Dispatchers: 1})
	q := testQuery(t, 4, 6)
	qs := *spec.FromQuery(q)

	done := make(chan struct {
		code int
		body []byte
	}, 1)
	go func() {
		resp, body := mustPost(t, s, OptimizeRequest{Query: qs})
		done <- struct {
			code int
			body []byte
		}{resp.StatusCode, body}
	}()
	<-eng.started

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.draining
	})

	// New work is refused while draining.
	req := &request{ctx: context.Background(), cancel: func() {}, tenant: "x", source: "http"}
	if err := s.submit(req); err != ErrDraining {
		t.Fatalf("submit during drain: %v, want ErrDraining", err)
	}

	gate <- struct{}{} // let the in-flight request finish
	r := <-done
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request got %d during graceful drain: %s", r.code, r.body)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("graceful Shutdown: %v", err)
	}
}

// TestDrainDeadlineForcesCancel: when the drain deadline passes,
// in-flight requests are canceled rather than awaited forever.
func TestDrainDeadlineForcesCancel(t *testing.T) {
	eng := &gatedEngine{inner: mpq.NewSerialEngine(), gate: make(chan struct{}), started: make(chan struct{}, 1)}
	s := startServer(t, Config{Engine: eng, Dispatchers: 1})
	q := testQuery(t, 4, 7)
	qs := *spec.FromQuery(q)

	go postOptimize(s, OptimizeRequest{Query: qs}) // never released
	<-eng.started

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Shutdown(ctx)
	if err == nil {
		t.Fatal("forced drain returned nil, want deadline error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("forced drain took %v; in-flight work was not canceled", elapsed)
	}
}

// TestStuckWirePeerDoesNotStallDispatchers: a peer that pipelines more
// requests than there are dispatchers and then never reads a byte must
// not wedge the dispatcher pool — the reply write's deadline tears the
// connection down and service continues for everyone else. net.Pipe has
// no buffering, so the very first unread reply blocks its write, which
// is the exact pathology under test.
func TestStuckWirePeerDoesNotStallDispatchers(t *testing.T) {
	s := startServer(t, Config{WireWriteTimeout: 200 * time.Millisecond})
	q := testQuery(t, 4, 11)
	js := mpq.JobSpec{Space: partition.Linear, Workers: 1}

	peer, srv := net.Pipe()
	defer peer.Close()
	s.wire.ServeConn(srv)

	// 80 pipelined requests, far more than the dispatchers (4): once
	// replies stop draining, the first dispatcher to reply blocks in its
	// write and the others queue behind it in reply() until the write
	// deadline cancels the connection. A write error just means the
	// teardown already happened — also a pass.
	for i := 1; i <= 80; i++ {
		frame := wire.EncodeJobRequest(&wire.JobRequest{Seq: uint32(i), Spec: js, Query: q})
		if err := wire.WriteFrame(peer, frame); err != nil {
			break
		}
	}

	done := make(chan error, 1)
	go func() {
		resp, body, err := postOptimize(s, OptimizeRequest{Query: *spec.FromQuery(q)})
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("HTTP request after wire peer stalled: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("HTTP service stalled behind a wire peer that stopped reading")
	}
}

// TestStuckTCPWirePeerHoldsDispatchersOneDeadline: the same stuck peer
// over a real TCP connection, whose socket buffers absorb replies until
// they fill. Once they do, every dispatcher that replies to the peer
// waits on the blocked write, and the write deadline frees them all at
// once: another tenant is served within about one WireWriteTimeout,
// and the daemon has torn the stuck connection down.
func TestStuckTCPWirePeerHoldsDispatchersOneDeadline(t *testing.T) {
	const deadline = 300 * time.Millisecond
	s := startServer(t, Config{WireWriteTimeout: deadline})
	q := testQuery(t, 6, 11)
	js := mpq.JobSpec{Space: partition.Linear, Workers: 1, Objective: core.MultiObjective, Alpha: 10}

	// The daemon's side of the conn gets a small send buffer, so the
	// burst's replies fill it without megabytes of them.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	srv, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	peer.(*net.TCPConn).SetReadBuffer(4 << 10)
	srv.(*net.TCPConn).SetWriteBuffer(4 << 10)
	s.wire.ServeConn(srv)
	// 200 frontier replies, within the queue depth, far more than the
	// peer's receive window and the daemon's send buffer hold.
	var burst bytes.Buffer
	for seq := uint32(1); seq <= 200; seq++ {
		if err := wire.WriteFrame(&burst, wire.EncodeJobRequest(&wire.JobRequest{Seq: seq, Spec: js, Query: q})); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := peer.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(deadline / 2) // let the replies back up

	done := make(chan error, 1)
	go func() {
		resp, body, err := postOptimize(s, OptimizeRequest{Query: *spec.FromQuery(q)})
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("HTTP request after wire peer stalled: %v", err)
		}
	case <-time.After(2*deadline + 2*time.Second):
		t.Fatalf("HTTP service stalled longer than its bound behind a stuck wire peer; write deadline %v", deadline)
	}

	// Drain what the buffers hold: the stream must end in a teardown,
	// not in the read timeout of a connection still open.
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = io.Copy(io.Discard, peer)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("the daemon kept the stuck connection open; its replies never filled the socket buffers")
	}
}

// closeRecorder is a wire conn whose CloseRead is a no-op — like a real
// *net.TCPConn half-close against a peer that keeps its socket open —
// and whose full Close is observable.
type closeRecorder struct {
	net.Conn
	once   sync.Once
	closed chan struct{}
}

func (c *closeRecorder) CloseRead() error { return nil }
func (c *closeRecorder) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestForcedDrainClosesStuckWireConns: when the drain deadline forces
// cancellation, wire connections must be fully closed — not just
// read-half-closed — so a peer that is not draining its responses
// cannot hold reply(), pending.Wait and wg.Wait open past the bounded
// -drain-timeout guarantee.
func TestForcedDrainClosesStuckWireConns(t *testing.T) {
	eng := &gatedEngine{inner: mpq.NewSerialEngine(), gate: make(chan struct{}), started: make(chan struct{}, 1)}
	s := startServer(t, Config{Engine: eng, Dispatchers: 1})
	q := testQuery(t, 4, 12)

	_, inner := net.Pipe()
	rec := &closeRecorder{Conn: inner, closed: make(chan struct{})}
	s.wire.ServeConn(rec)

	go postOptimize(s, OptimizeRequest{Query: *spec.FromQuery(q)}) // never released
	<-eng.started

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("forced drain returned nil, want deadline error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("forced drain took %v", elapsed)
	}
	select {
	case <-rec.closed:
	default:
		t.Error("forced drain left a wire conn read-half-closed only; a peer not draining responses would hang Shutdown")
	}
}

// TestHealthz reports ok when serving.
func TestHealthz(t *testing.T) {
	s := startServer(t, Config{})
	resp, err := http.Get("http://" + s.HTTPAddr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d, want 200", resp.StatusCode)
	}
}

// TestMetricsExposition: served requests show up in /metrics with
// tenant labels, and the histogram counts match.
func TestMetricsExposition(t *testing.T) {
	s := startServer(t, Config{Engine: mpq.WithCache(mpq.NewSerialEngine(), mpq.CacheConfig{})})
	q := testQuery(t, 4, 8)
	qs := *spec.FromQuery(q)
	for i := 0; i < 3; i++ {
		resp, body := mustPost(t, s, OptimizeRequest{Query: qs, Tenant: "acme"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("optimize %d: %s", resp.StatusCode, body)
		}
	}
	resp, err := http.Get("http://" + s.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		`mpqd_requests_total{tenant="acme",source="http",outcome="served"} 3`,
		"mpqd_request_seconds_count 3",
		"mpqd_queue_depth 0",
		"mpqd_cache_hits_total 2",
		"mpqd_cache_misses_total 1",
		"mpqd_speculations_total 0",
		"mpqd_probes_total 0",
		"mpqd_redispatched_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

// TestSimEngineFeedsSchedulingMetrics: a daemon backed by the simulator
// reports its master's probes and re-dispatches in /metrics, from the
// same counters the TCP engine's answers carry. Node 0 is dead; it is
// excluded after one failure and probed ReadmitAfter later.
func TestSimEngineFeedsSchedulingMetrics(t *testing.T) {
	model := mpq.DefaultClusterModel()
	model.Nodes = 2
	faults := mpq.ClusterFaults{Dead: []int{0}, Policy: mpq.MasterOptions{
		Timeout: 100 * time.Millisecond, MaxWorkerFailures: 1, ReadmitAfter: 10 * time.Millisecond,
	}}
	s := startServer(t, Config{Engine: mpq.NewSimEngine(mpq.WithClusterModel(model), mpq.WithClusterFaults(faults))})
	resp, body := mustPost(t, s, OptimizeRequest{Query: *spec.FromQuery(testQuery(t, 10, 5)), Workers: 8})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize %d: %s", resp.StatusCode, body)
	}
	mresp, err := http.Get("http://" + s.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	for _, name := range []string{"mpqd_probes_total", "mpqd_redispatched_total"} {
		if !regexp.MustCompile(`(?m)^` + name + ` [1-9][0-9]*$`).MatchString(buf.String()) {
			t.Errorf("%s is not at least 1\n%s", name, buf.String())
		}
	}
}

// TestCacheHitsKeepSchedulingCountersOnce: an answer the plan cache
// hands back carries the scheduler counters of the computation that
// made it. /metrics counts them once, when that computation is served:
// three identical requests to a cached simulator with a dead node
// re-dispatch one partition, not three, and hit the cache twice.
func TestCacheHitsKeepSchedulingCountersOnce(t *testing.T) {
	model := mpq.DefaultClusterModel()
	model.Nodes = 2
	faults := mpq.ClusterFaults{Dead: []int{0}, Policy: mpq.MasterOptions{
		Timeout: 100 * time.Millisecond, MaxWorkerFailures: 1,
	}}
	sim := mpq.NewSimEngine(mpq.WithClusterModel(model), mpq.WithClusterFaults(faults))
	s := startServer(t, Config{Engine: mpq.WithCache(sim, mpq.CacheConfig{})})
	for range 3 {
		resp, body := mustPost(t, s, OptimizeRequest{Query: *spec.FromQuery(testQuery(t, 10, 5)), Workers: 8})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("optimize %d: %s", resp.StatusCode, body)
		}
	}
	mresp, err := http.Get("http://" + s.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	for _, want := range []string{"mpqd_redispatched_total 1", "mpqd_cache_hits_total 2"} {
		if !regexp.MustCompile(`(?m)^` + want + `$`).MatchString(buf.String()) {
			t.Errorf("metrics lack %q\n%s", want, buf.String())
		}
	}
}

// TestBatchStreamsCompletionOrder: /v1/batch answers lines as jobs
// finish, tagged with their input index.
func TestBatchStreamsCompletionOrder(t *testing.T) {
	s := startServer(t, Config{Dispatchers: 2})
	q := testQuery(t, 4, 9)
	body, _ := json.Marshal(BatchRequest{Jobs: []OptimizeRequest{
		{Query: *spec.FromQuery(q)},
		{Query: *spec.FromQuery(q), Workers: 2},
	}})
	resp, err := http.Post("http://"+s.HTTPAddr()+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	seen := map[int]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line BatchLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Error != "" {
			t.Fatalf("job %d failed: %s", line.Index, line.Error)
		}
		if line.Fingerprint == "" {
			t.Fatalf("job %d missing fingerprint", line.Index)
		}
		seen[line.Index] = true
	}
	if !seen[0] || !seen[1] || len(seen) != 2 {
		t.Fatalf("batch indices %v, want {0,1}", seen)
	}
}

// TestClientBatchFailsFast: a wire client's batch fails as soon as one
// job does — job 0 is rejected at decode while job 1 waits on a gate
// that never opens — reporting that job's error instead of waiting for
// its siblings.
func TestClientBatchFailsFast(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	eng := &gatedEngine{inner: mpq.NewSerialEngine(), gate: gate}
	s := startServer(t, Config{Engine: eng})
	c, err := Dial(s.WireAddr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := testQuery(t, 4, 12)
	jobs := []mpq.Job{
		{Query: q, Spec: mpq.JobSpec{Space: partition.Linear, Workers: 3}},
		{Query: q, Spec: mpq.JobSpec{Space: partition.Linear, Workers: 1}},
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.OptimizeBatch(context.Background(), jobs)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.HasPrefix(err.Error(), "batch job 0: ") {
			t.Fatalf("batch error %v, want job 0's failure", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("batch still waiting on a sibling 2s after job 0 failed")
	}
}

// TestPlanLogRotation: records land in the log as JSON lines and the
// file rotates at its size cap.
func TestPlanLogRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plans.log")
	s := startServer(t, Config{PlanLog: PlanLogConfig{Path: path, MaxBytes: 256, MaxFiles: 2}})
	q := testQuery(t, 4, 10)
	qs := *spec.FromQuery(q)
	for i := 0; i < 6; i++ {
		resp, body := mustPost(t, s, OptimizeRequest{Query: qs, Tenant: fmt.Sprintf("t%d", i)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("optimize: %d %s", resp.StatusCode, body)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil { // flushes the log
		t.Fatal(err)
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad plan-log line %q: %v", line, err)
		}
		if rec.Fingerprint == "" || rec.Tenant == "" {
			t.Fatalf("incomplete record: %+v", rec)
		}
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Errorf("expected rotated file %s.1: %v", path, err)
	}
	if _, err := os.Stat(path + ".3"); err == nil {
		t.Errorf("rotation kept more than MaxFiles files")
	}
}

// TestHTTPTimesAreTheRequestsOwn: queueMicros and serveMicros describe
// the request that carries them. A cache hit copies Answer.Elapsed from
// the computation that filled the entry, so deriving the reply's times
// from it reported the miss's DP time on every hit; they are the times
// Server.serve measures, the same two the plan log records.
func TestHTTPTimesAreTheRequestsOwn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.log")
	s := startServer(t, Config{
		Engine:  mpq.WithCache(mpq.NewSerialEngine(), mpq.CacheConfig{}),
		PlanLog: PlanLogConfig{Path: path},
	})
	qs := *spec.FromQuery(testQuery(t, 14, 11)) // milliseconds of DP on a miss
	post := func() (or OptimizeResponse, roundTrip time.Duration) {
		start := time.Now()
		resp, body := mustPost(t, s, OptimizeRequest{Query: qs})
		roundTrip = time.Since(start)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &or); err != nil {
			t.Fatal(err)
		}
		return or, roundTrip
	}
	miss, _ := post()
	hit, roundTrip := post()
	if hit.Cache == nil || !hit.Cache.Hit {
		t.Fatalf("second request not served from the cache: %+v", hit.Cache)
	}
	if hit.QueueMicros+hit.ServeMicros > roundTrip.Microseconds() {
		t.Errorf("hit reports %d µs queued + %d µs served inside a %d µs round trip",
			hit.QueueMicros, hit.ServeMicros, roundTrip.Microseconds())
	}
	if hit.ServeMicros >= miss.ServeMicros {
		t.Errorf("hit serveMicros %d is not below the miss's %d", hit.ServeMicros, miss.ServeMicros)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil { // flushes the log
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	logged := map[string]Record{}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad plan-log line %q: %v", line, err)
		}
		logged[rec.ID] = rec
	}
	for _, or := range []OptimizeResponse{miss, hit} {
		rec, ok := logged[or.ID]
		if !ok || rec.QueueMicros != or.QueueMicros || rec.ServeMicros != or.ServeMicros {
			t.Errorf("request %s: HTTP says queued %d served %d, plan log says %+v",
				or.ID, or.QueueMicros, or.ServeMicros, rec)
		}
	}
}

// TestParseJobNames feeds one list of names to both of parseJob's
// string fields: partition.ParseSpace and core.ParseObjective accept
// their own names in any case and the empty string as the default,
// and nothing else (cmd/mpqopt's -space test feeds the same list).
func TestParseJobNames(t *testing.T) {
	qs := *spec.FromQuery(testQuery(t, 6, 1))
	for _, tc := range []struct {
		name      string
		space     partition.Space
		spaceOK   bool
		objective core.Objective
		objOK     bool
	}{
		{"Bushy", partition.Bushy, true, 0, false},
		{"LINEAR", partition.Linear, true, 0, false},
		{"multi", 0, false, core.MultiObjective, true},
		{"bogus", 0, false, 0, false},
		{"", partition.Linear, true, core.SingleObjective, true},
	} {
		_, js, err := parseJob(&OptimizeRequest{Query: qs, Space: tc.name})
		if (err == nil) != tc.spaceOK || (err == nil && js.Space != tc.space) {
			t.Errorf("space %q: spec %+v, err %v", tc.name, js, err)
		}
		_, js, err = parseJob(&OptimizeRequest{Query: qs, Objective: tc.name})
		if (err == nil) != tc.objOK || (err == nil && js.Objective != tc.objective) {
			t.Errorf("objective %q: spec %+v, err %v", tc.name, js, err)
		}
	}
}

// TestBadRequests: malformed input gets a 400, not a hang or a 500.
func TestBadRequests(t *testing.T) {
	s := startServer(t, Config{})
	for name, body := range map[string]string{
		"not json":    "{",
		"empty query": `{"query":{"tables":[]}}`,
		"bad space":   `{"query":{"tables":[{"name":"a","cardinality":10},{"name":"b","cardinality":10}],"predicates":[{"left":0,"right":1,"selectivity":0.1}]},"space":"galactic"}`,
	} {
		resp, err := http.Post("http://"+s.HTTPAddr()+"/v1/optimize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestNewRejectsBadConfig: every configuration New refuses. A negative
// DefaultTimeout used to be accepted and expire every request on
// arrival.
func TestNewRejectsBadConfig(t *testing.T) {
	eng := mpq.NewSerialEngine()
	for name, cfg := range map[string]Config{
		"nil engine":               {HTTPAddr: "127.0.0.1:0"},
		"no listen address":        {Engine: eng},
		"negative queue depth":     {Engine: eng, HTTPAddr: "127.0.0.1:0", QueueDepth: -1},
		"negative dispatchers":     {Engine: eng, HTTPAddr: "127.0.0.1:0", Dispatchers: -1},
		"negative default timeout": {Engine: eng, HTTPAddr: "127.0.0.1:0", DefaultTimeout: -time.Second},
		"negative write timeout":   {Engine: eng, WireAddr: "127.0.0.1:0", WireWriteTimeout: -time.Second},
		"zero tenant weight":       {Engine: eng, HTTPAddr: "127.0.0.1:0", TenantWeights: map[string]float64{"a": 0}},
		"negative tenant weight":   {Engine: eng, HTTPAddr: "127.0.0.1:0", TenantWeights: map[string]float64{"a": -1}},
	} {
		if s, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted %+v", name, s.cfg)
		}
	}
}

// TestOversizedJobGetsAnErrorReply: a valid query with more tables than
// any memo can hold (q.Validate admits 63) is answered with the dynamic
// program's typed error — the daemon does not die in make — and the same
// connection serves the next job.
func TestOversizedJobGetsAnErrorReply(t *testing.T) {
	s := startServer(t, Config{Engine: mpq.NewInProcessEngine()})
	c, err := Dial(s.WireAddr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	js := mpq.JobSpec{Space: partition.Linear, Workers: 1}
	for _, n := range []int{48, 63} {
		big := workload.MustGenerate(workload.NewParams(n, workload.Chain), 1)
		if _, err := c.Optimize(context.Background(), big, js); err == nil || !strings.Contains(err.Error(), dp.ErrMemoTooLarge.Error()) {
			t.Fatalf("%d-table job: error %v, want %q", n, err, dp.ErrMemoTooLarge)
		}
	}
	if _, err := c.Optimize(context.Background(), testQuery(t, 6, 1), js); err != nil {
		t.Fatalf("job after the oversized ones: %v", err)
	}
}

// TestWireRejectsNonRequestTags: a well-framed message whose tag is
// neither TagJobRequest nor TagCancelRequest gets a classified
// ErrBadRequest reply (the endpoint's tag dispatch), and the rejection
// is per-frame — the same connection still serves a valid request
// afterward. A cancel frame for a Seq the daemon never saw is stale:
// it is accepted without a reply, and the connection keeps serving.
func TestWireRejectsNonRequestTags(t *testing.T) {
	s := startServer(t, Config{})
	q := testQuery(t, 5, 1)

	conn, err := net.DialTimeout("tcp", s.WireAddr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	readWorkerError := func(frameName string) *wire.WorkerError {
		t.Helper()
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("%s: reading reply: %v", frameName, err)
		}
		we, err := wire.DecodeWorkerError(payload)
		if err != nil {
			t.Fatalf("%s: reply is not a WorkerError: %v", frameName, err)
		}
		if we.Code != wire.ErrBadRequest {
			t.Fatalf("%s: code %v, want ErrBadRequest", frameName, we.Code)
		}
		return we
	}

	// A bare Query frame is a serialization record, not a request.
	if err := wire.WriteFrame(conn, wire.EncodeQuery(q)); err != nil {
		t.Fatal(err)
	}
	if we := readWorkerError("query frame"); !strings.Contains(we.Msg, "serialization records") {
		t.Errorf("query frame: message %q does not classify the tag", we.Msg)
	}

	// A cancel frame for an unknown Seq is dropped silently: the next
	// frame on the connection is the reply to the request below.
	if err := wire.WriteFrame(conn, wire.EncodeCancelRequest(&wire.CancelRequest{Seq: 7})); err != nil {
		t.Fatal(err)
	}

	// The connection survives both frames: a valid JobRequest on the
	// same conn gets a real JobResponse.
	req := &wire.JobRequest{Seq: 42, Spec: mpq.JobSpec{Space: partition.Linear, Workers: 1}, Query: q}
	if err := wire.WriteFrame(conn, wire.EncodeJobRequest(req)); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatalf("job request after rejections: %v", err)
	}
	resp, err := wire.DecodeJobResponse(payload)
	if err != nil {
		t.Fatalf("job request after rejections: reply is not a JobResponse: %v", err)
	}
	if resp.Seq != 42 {
		t.Errorf("response Seq %d, want 42", resp.Seq)
	}
	if len(resp.Plans) == 0 || resp.Plans[0] == nil {
		t.Fatal("response carries no plan")
	}
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestPipelinedFramesInOneWrite: three requests that reach the wire
// front in one segment are all answered. The front reads through one
// buffer for the connection's life; a reader rebuilt per frame would
// lose the two frames read ahead with the first and never answer them.
func TestPipelinedFramesInOneWrite(t *testing.T) {
	s := startServer(t, Config{})
	q := testQuery(t, 5, 3)
	conn, err := net.DialTimeout("tcp", s.WireAddr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	var batch bytes.Buffer
	for seq := uint32(1); seq <= 3; seq++ {
		req := &wire.JobRequest{Seq: seq, Spec: mpq.JobSpec{Space: partition.Linear, Workers: 1}, Query: q}
		if err := wire.WriteFrame(&batch, wire.EncodeJobRequest(req)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(batch.Bytes()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	seen := map[uint32]bool{}
	for range 3 {
		payload, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatalf("after %d of 3 replies: %v", len(seen), err)
		}
		resp, err := wire.DecodeJobResponse(payload)
		if err != nil {
			t.Fatalf("reply is not a JobResponse: %v", err)
		}
		seen[resp.Seq] = true
	}
	for seq := uint32(1); seq <= 3; seq++ {
		if !seen[seq] {
			t.Fatalf("replies carry Seqs %v, want 1, 2 and 3", seen)
		}
	}
}

// TestClientReadsRepliesBackToBack: two replies that reach a Client in
// one segment both find their callers. The client reads through one
// buffer for the connection's life; a reader rebuilt per frame would
// drop the second reply with the first one's read-ahead.
func TestClientReadsRepliesBackToBack(t *testing.T) {
	q := testQuery(t, 4, 6)
	js := mpq.JobSpec{Space: partition.Linear, Workers: 1}
	ans, err := mpq.NewSerialEngine().Optimize(context.Background(), q, js)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() { // a daemon that answers both requests in one write
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		var replies bytes.Buffer
		for range 2 {
			payload, err := wire.ReadFrame(br)
			if err != nil {
				return
			}
			resp := &wire.JobResponse{Seq: wire.PeekJobRequestSeq(payload), Plans: []*mpq.Plan{ans.Best}}
			wire.WriteFrame(&replies, wire.EncodeJobResponse(resp))
		}
		conn.Write(replies.Bytes())
		io.Copy(io.Discard, conn) // hold the conn open until the client closes it
	}()

	c, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { c.Close(); <-served }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.OptimizeBatch(ctx, []mpq.Job{{Query: q, Spec: js}, {Query: q, Spec: js}}); err != nil {
		t.Fatalf("two replies in one segment: %v", err)
	}
}

// TestExpiredCallKeepsConnection: a call whose deadline passed before
// it was sent fails alone, and the next call on the same Client is
// answered. The deadline is the caller's, not the connection's.
func TestExpiredCallKeepsConnection(t *testing.T) {
	s := startServer(t, Config{})
	c, err := Dial(s.WireAddr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q, js := testQuery(t, 5, 1), mpq.JobSpec{Space: partition.Linear, Workers: 1}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := c.Optimize(expired, q, js); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired call: %v, want context.DeadlineExceeded", err)
	}
	if _, err := c.Optimize(context.Background(), q, js); err != nil {
		t.Fatalf("the call after an expired one: %v", err)
	}
}

// TestFullQueueDropsCanceledRequests: a request canceled while it waits
// holds no queue slot. On a one-dispatcher daemon with a one-request
// queue, a job runs and a second request waits behind it, until a
// CancelRequest cancels it. A third request is then admitted, not
// refused ErrOverloaded, and the canceled one is answered ErrCanceled.
func TestFullQueueDropsCanceledRequests(t *testing.T) {
	eng := &gatedEngine{inner: mpq.NewSerialEngine(), gate: make(chan struct{}), started: make(chan struct{}, 4)}
	s := startServer(t, Config{Engine: eng, Dispatchers: 1, QueueDepth: 1})
	conn, br := wireConn(t, s)
	q, js := testQuery(t, 5, 1), mpq.JobSpec{Space: partition.Linear, Workers: 1}
	send := func(frame []byte) {
		t.Helper()
		if err := wire.WriteFramed(conn, frame); err != nil {
			t.Fatal(err)
		}
	}
	read := func() []byte {
		t.Helper()
		payload, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}

	send(wire.JobRequestFrame(&wire.JobRequest{Seq: 1, Spec: js, Query: q}))
	<-eng.started // seq 1 runs, held at the gate
	send(wire.JobRequestFrame(&wire.JobRequest{Seq: 2, Spec: js, Query: q}))
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queued == 1
	})
	// The connection's reader takes its frames in order: the cancel has
	// acted when the third request meets the full queue.
	send(wire.CancelRequestFrame(&wire.CancelRequest{Seq: 2}))
	send(wire.JobRequestFrame(&wire.JobRequest{Seq: 3, Spec: js, Query: q}))
	we, err := wire.DecodeWorkerError(read())
	if err != nil || we.Seq != 2 || we.Code != wire.ErrCanceled {
		t.Fatalf("first reply %+v (%v), want seq 2 ErrCanceled", we, err)
	}
	close(eng.gate)
	for _, want := range []uint32{1, 3} {
		resp, err := wire.DecodeJobResponse(read())
		if err != nil {
			t.Fatalf("reply to seq %d: %v", want, err)
		}
		if resp.Seq != want {
			t.Fatalf("reply seq %d, want %d", resp.Seq, want)
		}
	}
	if n := len(eng.started); n != 1 {
		t.Fatalf("the engine was called %d more times, want 1 (seq 3 alone)", n)
	}
}
