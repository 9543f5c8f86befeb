package wire

import (
	"fmt"

	"mpq/internal/core"
	"mpq/internal/cost"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/query"
)

// JobRequest is the master-to-worker message of Algorithm 1: the query,
// the job configuration, and this worker's partition ID. It is the only
// message a worker ever receives for a query.
type JobRequest struct {
	// Seq is the master's per-connection sequence number; the worker
	// echoes it in its response (or error frame) so the master can
	// discard duplicated or stale frames. Zero means "unsequenced"
	// (standalone tools that send one request per connection).
	Seq    uint32
	Spec   core.JobSpec
	PartID int
	Query  *query.Query
}

// JobResponse is the worker-to-master message: the partition-optimal
// plan(s) and the worker's work accounting. A worker that fails answers
// with a WorkerError frame instead.
type JobResponse struct {
	// Seq echoes the request's sequence number (see JobRequest.Seq).
	Seq   uint32
	Plans []*plan.Node
	Stats plan.Stats
}

// EncodeJobRequest serializes a request. The sequence number is encoded
// immediately after the frame header so PeekJobRequestSeq can recover
// it even when the rest of the request fails to decode. The robust band
// travels once, as Spec.RobustBand: the cost model's RobustBand is read
// only under cost.RobustCost, which JobSpec.Validate refuses.
func EncodeJobRequest(r *JobRequest) []byte {
	e := &encoder{}
	e.header(TagJobRequest)
	e.u32(r.Seq)
	e.u8(uint8(r.Spec.Space))
	e.u32(uint32(r.Spec.Workers))
	e.u8(uint8(r.Spec.Objective))
	e.f64(r.Spec.Alpha)
	e.f64(r.Spec.RobustBand)
	e.bool(r.Spec.InterestingOrders)
	e.f64(r.Spec.CostModel.HashFactor)
	e.f64(r.Spec.CostModel.SortFactor)
	e.f64(r.Spec.CostModel.NLBlock)
	e.u8(uint8(r.Spec.CostModel.Second))
	e.f64(r.Spec.CostModel.HashSpillFactor)
	e.u32(uint32(r.PartID))
	encodeQueryBody(e, r.Query)
	return e.buf
}

// DecodeJobRequest parses a request.
func DecodeJobRequest(b []byte) (*JobRequest, error) {
	d := &decoder{b: b}
	d.header(TagJobRequest)
	r := &JobRequest{}
	r.Seq = d.u32()
	r.Spec.Space = partition.Space(d.u8())
	r.Spec.Workers = int(d.u32())
	r.Spec.Objective = core.Objective(d.u8())
	r.Spec.Alpha = d.f64()
	r.Spec.RobustBand = d.f64()
	r.Spec.InterestingOrders = d.bool()
	r.Spec.CostModel.HashFactor = d.f64()
	r.Spec.CostModel.SortFactor = d.f64()
	r.Spec.CostModel.NLBlock = d.f64()
	r.Spec.CostModel.Second = cost.SecondMetric(d.u8())
	r.Spec.CostModel.HashSpillFactor = d.f64()
	r.PartID = int(d.u32())
	r.Query = decodeQueryBody(d)
	if err := d.finish(); err != nil {
		return nil, err
	}
	if err := r.Spec.Validate(r.Query.N()); err != nil {
		return nil, err
	}
	return r, nil
}

// PeekJobRequestSeq recovers the sequence number of a job-request frame
// without decoding the body, tolerating a damaged body: a worker whose
// full decode failed can still echo the request's Seq in its error
// frame. Returns 0 (the "unsequenced" value) when even the header or
// the Seq field is unreadable.
func PeekJobRequestSeq(b []byte) uint32 {
	if tag, err := MessageTag(b); err != nil || tag != TagJobRequest || len(b) < 8 {
		return 0
	}
	d := &decoder{b: b, off: 4}
	return d.u32()
}

// ErrCode classifies a worker-side failure so the master can decide
// whether re-dispatching the partition to another worker can help.
type ErrCode uint8

const (
	// ErrBadRequest means the request frame did not decode on the worker.
	// The master validates every job before sending, so this indicates the
	// frame was damaged in transit (or version skew) — retryable.
	ErrBadRequest ErrCode = 1
	// ErrJobFailed means the request decoded but the optimizer rejected or
	// failed the job. Workers are deterministic, so another worker would
	// fail identically — fatal, never retried.
	ErrJobFailed ErrCode = 2
	// ErrOverloaded means the serving side's admission queue is full (the
	// resident daemon's wire front end under load). The job itself is
	// fine; retrying after a backoff — or on another node — can succeed,
	// so masters classify it retryable like transport damage.
	ErrOverloaded ErrCode = 3
	// ErrCanceled means the master canceled the request with an explicit
	// CancelRequest frame — typically because a speculative clone of the
	// same partition answered first — and the worker aborted its dynamic
	// program. It is neither a worker failure nor a job failure: the
	// master already has (or no longer wants) the answer.
	ErrCanceled ErrCode = 4
)

// CanceledMsg is the message of the ErrCanceled acknowledgment a worker
// sends for a CancelRequest. It is fixed so the cluster simulator can
// account the acknowledgment frame's exact length.
const CanceledMsg = "canceled by master"

// String names the error code.
func (c ErrCode) String() string {
	switch c {
	case ErrBadRequest:
		return "bad-request"
	case ErrJobFailed:
		return "job-failed"
	case ErrOverloaded:
		return "overloaded"
	case ErrCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("ErrCode(%d)", uint8(c))
	}
}

// WorkerError is the explicit worker-to-master failure frame: instead of
// smuggling errors inside a JobResponse, a failing worker answers with
// this dedicated message so the master can separate deterministic job
// failures (fatal) from transport damage (retryable) without guessing
// from error strings.
type WorkerError struct {
	// Seq echoes the failing request's sequence number (see
	// JobRequest.Seq). Zero when the request was too damaged to recover
	// it; masters treat a zero Seq as matching any job in flight.
	Seq  uint32
	Code ErrCode
	Msg  string
}

// Error formats the frame as a Go error string.
func (w *WorkerError) Error() string {
	return fmt.Sprintf("worker error (%v): %s", w.Code, w.Msg)
}

// EncodeWorkerError serializes a worker-error frame.
func EncodeWorkerError(w *WorkerError) []byte {
	e := &encoder{}
	e.header(TagWorkerError)
	e.u32(w.Seq)
	e.u8(uint8(w.Code))
	e.str(w.Msg)
	return e.buf
}

// DecodeWorkerError parses a worker-error frame.
func DecodeWorkerError(b []byte) (*WorkerError, error) {
	d := &decoder{b: b}
	d.header(TagWorkerError)
	w := &WorkerError{Seq: d.u32(), Code: ErrCode(d.u8()), Msg: d.str()}
	if err := d.finish(); err != nil {
		return nil, err
	}
	switch w.Code {
	case ErrBadRequest, ErrJobFailed, ErrOverloaded, ErrCanceled:
	default:
		return nil, fmt.Errorf("wire: unknown worker error code %d", uint8(w.Code))
	}
	return w, nil
}

// CancelRequest is the master-to-worker abort message: the master no
// longer wants the answer to the request it sent with the given
// sequence number on this connection — a speculative clone of the same
// partition already answered, or the batch is shutting down. A worker
// that is computing the request aborts its dynamic program and replies
// with a WorkerError frame carrying ErrCanceled (the master is waiting
// on the connection and needs a frame to resynchronize); a cancel for
// any other sequence number is ignored without a reply, because the
// response it raced has already been (or will be) sent.
type CancelRequest struct {
	// Seq is the sequence number of the request to abort (see
	// JobRequest.Seq).
	Seq uint32
}

// EncodeCancelRequest serializes a cancel frame.
func EncodeCancelRequest(c *CancelRequest) []byte {
	e := &encoder{}
	e.header(TagCancelRequest)
	e.u32(c.Seq)
	return e.buf
}

// DecodeCancelRequest parses a cancel frame.
func DecodeCancelRequest(b []byte) (*CancelRequest, error) {
	d := &decoder{b: b}
	d.header(TagCancelRequest)
	c := &CancelRequest{Seq: d.u32()}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return c, nil
}

// EncodeJobResponse serializes a response.
func EncodeJobResponse(r *JobResponse) []byte {
	e := &encoder{}
	e.header(TagJobResponse)
	e.u32(r.Seq)
	encodeStats(e, r.Stats)
	e.u32(uint32(len(r.Plans)))
	for _, p := range r.Plans {
		encodePlanBody(e, p)
	}
	return e.buf
}

// DecodeJobResponse parses a response.
func DecodeJobResponse(b []byte) (*JobResponse, error) {
	d := &decoder{b: b}
	d.header(TagJobResponse)
	r := &JobResponse{}
	r.Seq = d.u32()
	r.Stats = decodeStats(d)
	n := int(d.u32())
	if n > 1<<20 {
		d.fail("plan count %d too large", n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		p := decodePlanBody(d, 0)
		if p != nil {
			r.Plans = append(r.Plans, p)
		}
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return r, nil
}
