package wire

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mpq/internal/catalog"
	"mpq/internal/core"
	"mpq/internal/cost"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/query"
	"mpq/internal/workload"
)

func genQuery(t testing.TB, n int, seed int64) *query.Query {
	t.Helper()
	return workload.MustGenerate(workload.NewParams(n, workload.Star), seed)
}

func TestQueryRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		q := genQuery(t, 8, seed)
		b := EncodeQuery(q)
		got, err := DecodeQuery(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.N() != q.N() || len(got.Preds) != len(q.Preds) {
			t.Fatal("shape mismatch after round trip")
		}
		for i := range q.Tables {
			if got.Tables[i] != q.Tables[i] {
				t.Fatalf("table %d: %+v != %+v", i, got.Tables[i], q.Tables[i])
			}
		}
		for i := range q.Preds {
			if got.Preds[i] != q.Preds[i] {
				t.Fatalf("pred %d: %+v != %+v", i, got.Preds[i], q.Preds[i])
			}
		}
	}
}

// The wire extract of the catalog (names, cardinalities, attribute
// ordinals, selectivities) must round-trip for the new workload
// families too: snowflake graphs, correlated selectivities, and the
// fixed TPC-style schema queries with their named tables.
func TestQueryRoundTripNewWorkloads(t *testing.T) {
	var queries []*query.Query
	params := workload.NewParams(10, workload.Snowflake)
	queries = append(queries, workload.MustGenerate(params, 4))
	params.Correlation = -0.5
	queries = append(queries, workload.MustGenerate(params, 4))
	for _, name := range catalog.SchemaNames() {
		sch, err := catalog.BuiltinSchema(name)
		if err != nil {
			t.Fatal(err)
		}
		_, q, err := workload.FromSchema(sch, 1)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	for qi, q := range queries {
		got, err := DecodeQuery(EncodeQuery(q))
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if got.N() != q.N() || len(got.Preds) != len(q.Preds) {
			t.Fatalf("query %d: shape mismatch after round trip", qi)
		}
		for i := range q.Tables {
			if got.Tables[i] != q.Tables[i] {
				t.Fatalf("query %d table %d: %+v != %+v", qi, i, got.Tables[i], q.Tables[i])
			}
		}
		for i := range q.Preds {
			if got.Preds[i] != q.Preds[i] {
				t.Fatalf("query %d pred %d: %+v != %+v", qi, i, got.Preds[i], q.Preds[i])
			}
		}
	}
}

func TestQueryDecodeRejectsCorruption(t *testing.T) {
	q := genQuery(t, 6, 1)
	good := EncodeQuery(q)

	// Truncations at every prefix length must error, never panic.
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeQuery(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage.
	if _, err := DecodeQuery(append(append([]byte{}, good...), 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Bad magic / version / tag.
	bad := append([]byte{}, good...)
	bad[0] ^= 0xFF
	if _, err := DecodeQuery(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte{}, good...)
	bad[2] = 99
	if _, err := DecodeQuery(bad); err == nil {
		t.Fatal("bad version accepted")
	}
	bad = append([]byte{}, good...)
	bad[3] = byte(TagPlan)
	if _, err := DecodeQuery(bad); err == nil {
		t.Fatal("wrong tag accepted")
	}
}

// Fuzz-style: random byte strings never panic the decoders.
func TestDecodersNeverPanicOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(200))
		rng.Read(b)
		_, _ = DecodeQuery(b)
		_, _ = DecodePlan(b)
		_, _ = DecodeJobRequest(b)
		_, _ = DecodeJobResponse(b)
	}
}

func bestPlan(t testing.TB, q *query.Query, space partition.Space) *plan.Node {
	t.Helper()
	ans, err := core.OptimizeContext(context.Background(), q, core.JobSpec{Space: space, Workers: 1, InterestingOrders: true})
	if err != nil {
		t.Fatal(err)
	}
	return ans.Best
}

func TestPlanRoundTrip(t *testing.T) {
	for _, space := range []partition.Space{partition.Linear, partition.Bushy} {
		q := genQuery(t, 7, 3)
		p := bestPlan(t, q, space)
		b := EncodePlan(p)
		got, err := DecodePlan(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != p.String() {
			t.Fatalf("structure changed: %s != %s", got, p)
		}
		if got.Cost != p.Cost || got.Card != p.Card || got.Buffer != p.Buffer || got.Order != p.Order {
			t.Fatal("annotations changed")
		}
		// The decoded plan must still validate against the query.
		if err := got.Validate(q, cost.Default()); err != nil {
			t.Fatalf("decoded plan invalid: %v", err)
		}
	}
}

// TestPlanFingerprint: fingerprints agree exactly when the encodings
// agree — the equivalence contract the engine and cache tests rely on.
func TestPlanFingerprint(t *testing.T) {
	q := genQuery(t, 7, 3)
	p := bestPlan(t, q, partition.Linear)
	if PlanFingerprint(p) != PlanFingerprint(p) {
		t.Fatal("fingerprint is not deterministic")
	}
	decoded, err := DecodePlan(EncodePlan(p))
	if err != nil {
		t.Fatal(err)
	}
	if PlanFingerprint(decoded) != PlanFingerprint(p) {
		t.Fatal("round-tripped plan has a different fingerprint")
	}
	other := bestPlan(t, genQuery(t, 7, 4), partition.Linear)
	if PlanFingerprint(other) == PlanFingerprint(p) {
		t.Fatal("different plans share a fingerprint")
	}
	// An annotation-only change (same structure) must change it too.
	cp := *p
	cp.Cost = p.Cost + 1
	if PlanFingerprint(&cp) == PlanFingerprint(p) {
		t.Fatal("cost annotation change did not change the fingerprint")
	}
}

// TestPlanFingerprintIgnoresTheFrameVersion: a fingerprint hashes the
// plan body under the version-2 plan header whatever Version the frames
// carry, so no version bump moves a pinned fingerprint, and it still
// sees every annotation bit.
func TestPlanFingerprintIgnoresTheFrameVersion(t *testing.T) {
	q := genQuery(t, 7, 3)
	var plans []*plan.Node
	for _, spec := range []core.JobSpec{
		{Space: partition.Bushy, Workers: 1},
		{Space: partition.Bushy, Workers: 1, InterestingOrders: true},
		{Space: partition.Bushy, Workers: 1, Objective: core.MultiObjective, Alpha: 1},
	} {
		ans, err := core.OptimizeContext(context.Background(), q, spec)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, ans.Best)
	}
	scan := plans[0]
	for !scan.IsScan {
		scan = scan.Left
	}
	plans = append(plans, scan)
	for i, p := range plans {
		frame := EncodePlan(p)
		frame[2] = 2
		sum := sha256.Sum256(frame)
		if got, want := PlanFingerprint(p), hex.EncodeToString(sum[:]); got != want {
			t.Errorf("plan %d: fingerprint %s, want the version-2 frame's %s", i, got, want)
		}
		moved := *p
		moved.Cost = math.Nextafter(p.Cost, math.Inf(1))
		if PlanFingerprint(&moved) == PlanFingerprint(p) {
			t.Errorf("plan %d: a one-ulp cost change kept the fingerprint", i)
		}
	}
}

func TestPlanDecodeRejectsCorruption(t *testing.T) {
	q := genQuery(t, 5, 0)
	p := bestPlan(t, q, partition.Linear)
	good := EncodePlan(p)
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodePlan(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestJobRequestRoundTrip(t *testing.T) {
	q := genQuery(t, 8, 5)
	req := &JobRequest{
		Spec: core.JobSpec{
			Space:             partition.Linear,
			Workers:           8,
			Objective:         core.MultiObjective,
			Alpha:             2.5,
			InterestingOrders: true,
		},
		PartID: 5,
		Query:  q,
	}
	b := EncodeJobRequest(req)
	got, err := DecodeJobRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec != req.Spec || got.PartID != req.PartID {
		t.Fatalf("spec mismatch: %+v vs %+v", got.Spec, req.Spec)
	}
	if got.Query.N() != q.N() {
		t.Fatal("query mismatch")
	}
}

// TestJobRequestRoundTripRobust: the robust job's uncertainty band must
// survive the wire, or remote workers would silently optimize a
// different problem than the master asked for.
func TestJobRequestRoundTripRobust(t *testing.T) {
	q := genQuery(t, 7, 3)
	req := &JobRequest{
		Spec: core.JobSpec{
			Space:      partition.Linear,
			Workers:    4,
			Objective:  core.RobustObjective,
			RobustBand: 3.5,
		},
		PartID: 2,
		Query:  q,
	}
	got, err := DecodeJobRequest(EncodeJobRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec != req.Spec {
		t.Fatalf("spec mismatch: %+v vs %+v", got.Spec, req.Spec)
	}
}

func TestJobFramesCarrySeq(t *testing.T) {
	q := genQuery(t, 6, 2)
	req := &JobRequest{
		Seq:    0xDEADBEEF,
		Spec:   core.JobSpec{Space: partition.Linear, Workers: 2},
		PartID: 1,
		Query:  q,
	}
	b := EncodeJobRequest(req)
	got, err := DecodeJobRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != req.Seq {
		t.Fatalf("Seq = %#x, want %#x", got.Seq, req.Seq)
	}
	if s := PeekJobRequestSeq(b); s != req.Seq {
		t.Fatalf("PeekJobRequestSeq = %#x, want %#x", s, req.Seq)
	}
	// Peek tolerates a damaged body: flip a byte beyond the Seq field.
	bad := append([]byte{}, b...)
	bad[len(bad)-1] ^= 0xFF
	if s := PeekJobRequestSeq(bad); s != req.Seq {
		t.Fatalf("PeekJobRequestSeq on damaged body = %#x, want %#x", s, req.Seq)
	}
	// A damaged header yields the unsequenced value.
	bad[0] ^= 0xFF
	if s := PeekJobRequestSeq(bad); s != 0 {
		t.Fatalf("PeekJobRequestSeq on damaged header = %#x, want 0", s)
	}

	resp := &JobResponse{Seq: 42}
	gotResp, err := DecodeJobResponse(EncodeJobResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if gotResp.Seq != 42 {
		t.Fatalf("response Seq = %d, want 42", gotResp.Seq)
	}
	we := &WorkerError{Seq: 7, Code: ErrBadRequest, Msg: "x"}
	gotWe, err := DecodeWorkerError(EncodeWorkerError(we))
	if err != nil {
		t.Fatal(err)
	}
	if gotWe.Seq != 7 {
		t.Fatalf("worker error Seq = %d, want 7", gotWe.Seq)
	}
}

// A frame whose spec the master would have refused is refused on decode
// too: a NaN α would run a Pareto DP that never prunes, and a +Inf band
// would fail every worker's engine.
func TestJobRequestRejectsInvalidSpec(t *testing.T) {
	q := genQuery(t, 4, 0)
	for name, spec := range map[string]core.JobSpec{
		"workers":   {Space: partition.Linear, Workers: 64}, // > max for n=4
		"alpha-nan": {Space: partition.Linear, Workers: 2, Objective: core.MultiObjective, Alpha: math.NaN()},
		"band-inf":  {Space: partition.Linear, Workers: 2, Objective: core.RobustObjective, RobustBand: math.Inf(1)},
		"band-nan":  {Space: partition.Linear, Workers: 2, Objective: core.RobustObjective, RobustBand: math.NaN()},
	} {
		b := EncodeJobRequest(&JobRequest{Spec: spec, Query: q})
		if _, err := DecodeJobRequest(b); err == nil {
			t.Errorf("%s: invalid spec accepted on decode", name)
		}
	}
}

func TestJobResponseRoundTrip(t *testing.T) {
	q := genQuery(t, 7, 2)
	res, err := core.RunWorkerContext(context.Background(), q, core.JobSpec{
		Space: partition.Linear, Workers: 4, Objective: core.MultiObjective, Alpha: 1,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	resp := &JobResponse{Plans: res.Plans, Stats: res.Stats}
	b := EncodeJobResponse(resp)
	got, err := DecodeJobResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Plans) != len(resp.Plans) {
		t.Fatalf("plan count %d != %d", len(got.Plans), len(resp.Plans))
	}
	if got.Stats != resp.Stats {
		t.Fatalf("stats mismatch: %+v vs %+v", got.Stats, resp.Stats)
	}
	for i := range got.Plans {
		if got.Plans[i].String() != resp.Plans[i].String() {
			t.Fatal("plan structure changed")
		}
	}
}

// The paper's Theorem 1: message sizes are linear in query size; the
// request is query + two integers + spec, so it must stay within a small
// constant of the bare query encoding.
func TestRequestOverheadIsConstant(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32} {
		q := genQuery(t, n, 0)
		qb := len(EncodeQuery(q))
		rb := len(EncodeJobRequest(&JobRequest{
			Spec:   core.JobSpec{Space: partition.Linear, Workers: 2},
			Query:  q,
			PartID: 1,
		}))
		// The budget tracks the fixed-size spec encoding (currently 64
		// bytes); the property under test is that it does not grow
		// with n.
		if rb-qb > 96 {
			t.Fatalf("n=%d: request overhead %d bytes", n, rb-qb)
		}
	}
}

// Property: query encoding is deterministic and injective w.r.t. seeds.
func TestQuickQueryEncodingDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		q := workload.MustGenerate(workload.NewParams(6, workload.Chain), seed%1000)
		a := EncodeQuery(q)
		b := EncodeQuery(q)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeDecodeQuery(b *testing.B) {
	q := genQuery(b, 20, 0)
	for i := 0; i < b.N; i++ {
		enc := EncodeQuery(q)
		if _, err := DecodeQuery(enc); err != nil {
			b.Fatal(err)
		}
	}
}
