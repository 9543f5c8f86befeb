package wire

import (
	"encoding/binary"
	"fmt"
	"math"

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
func EncodeJobRequest(r *JobRequest) []byte { return JobRequestFrame(r)[prefixLen:] }

// JobRequestFrame is EncodeJobRequest's payload as a whole frame,
// length prefix included, for WriteFramed.
func JobRequestFrame(r *JobRequest) []byte {
	e := frameEncoder(jobFixedLen + queryBodyLen(r.Query))
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
	encodeQueryBody(&e, r.Query)
	return e.frame()
}

// Offsets into a job-request payload. Everything before jobFixedLen —
// header, Seq, spec, PartID — has a fixed size; the query follows.
const (
	jobSeqOff       = 4
	jobObjectiveOff = 13
	jobAlphaOff     = 14
	jobBandOff      = 22
	jobPartOff      = 64
	jobFixedLen     = 68
)

// CanonicalJobKey rewrites a job-request payload, in place, into the
// canonical key of its job: Seq and PartID become zero, and α and the
// robust band are written as the objective reads them — only frontier
// objectives read α, and they read 0 as 1; only robust jobs read the
// band, and they read 0 as core.DefaultRobustBand. Two requests for the
// same job, from any connection or partition, key alike; anything that
// can change the chosen plan stays in the key. It reports false, and
// leaves b alone, when b is too short for a job request or carries
// another header. It checks nothing past the fixed part: a key is only
// as valid as the request it came from.
func CanonicalJobKey(b []byte) bool {
	if tag, err := MessageTag(b); err != nil || tag != TagJobRequest || len(b) < jobFixedLen {
		return false
	}
	binary.LittleEndian.PutUint32(b[jobSeqOff:], 0)
	binary.LittleEndian.PutUint32(b[jobPartOff:], 0)
	obj := core.Objective(b[jobObjectiveOff])
	alpha := math.Float64frombits(binary.LittleEndian.Uint64(b[jobAlphaOff:]))
	band := math.Float64frombits(binary.LittleEndian.Uint64(b[jobBandOff:]))
	if !obj.HasFrontier() {
		alpha = 0
	} else if alpha == 0 {
		alpha = 1
	}
	if obj != core.RobustObjective {
		band = 0
	} else if band == 0 {
		band = core.DefaultRobustBand
	}
	binary.LittleEndian.PutUint64(b[jobAlphaOff:], math.Float64bits(alpha))
	binary.LittleEndian.PutUint64(b[jobBandOff:], math.Float64bits(band))
	return true
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
func EncodeWorkerError(w *WorkerError) []byte { return WorkerErrorFrame(w)[prefixLen:] }

// WorkerErrorFrame is EncodeWorkerError's payload as a whole frame,
// length prefix included, for WriteFramed.
func WorkerErrorFrame(w *WorkerError) []byte {
	e := frameEncoder(headerLen + 4 + 1 + strLen(w.Msg))
	e.header(TagWorkerError)
	e.u32(w.Seq)
	e.u8(uint8(w.Code))
	e.str(w.Msg)
	return e.frame()
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
func EncodeCancelRequest(c *CancelRequest) []byte { return CancelRequestFrame(c)[prefixLen:] }

// CancelRequestFrame is EncodeCancelRequest's payload as a whole frame,
// length prefix included, for WriteFramed.
func CancelRequestFrame(c *CancelRequest) []byte {
	e := frameEncoder(headerLen + 4)
	e.header(TagCancelRequest)
	e.u32(c.Seq)
	return e.frame()
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
func EncodeJobResponse(r *JobResponse) []byte { return JobResponseFrame(r)[prefixLen:] }

// JobResponseFrame is EncodeJobResponse's payload as a whole frame,
// length prefix included, for WriteFramed.
func JobResponseFrame(r *JobResponse) []byte {
	return responseFrame(r.Seq, r.Stats, nil, r.Plans)
}

// AnswerFrame is the JobResponse frame a serving front sends for an
// optimization answer: Plans[0] is best, and frontier follows it (nil
// for single-objective jobs). The daemon's wire front and the plan
// cache's stored replies are both built here, so a reply served from
// the cache is the frame the engine's answer would have made.
func AnswerFrame(seq uint32, best *plan.Node, frontier []*plan.Node, stats plan.Stats) []byte {
	return responseFrame(seq, stats, best, frontier)
}

// responseFrame encodes a JobResponse frame whose plans are first (if
// not nil) and then rest.
func responseFrame(seq uint32, stats plan.Stats, first *plan.Node, rest []*plan.Node) []byte {
	size, n := responseFixedLen, len(rest)
	if first != nil {
		size += planBodyLen(first)
		n++
	}
	for _, p := range rest {
		size += planBodyLen(p)
	}
	e := frameEncoder(size)
	e.header(TagJobResponse)
	e.u32(seq)
	encodeStats(&e, stats)
	e.u32(uint32(n))
	if first != nil {
		encodePlanBody(&e, first)
	}
	for _, p := range rest {
		encodePlanBody(&e, p)
	}
	return e.frame()
}

// responseFixedLen is a JobResponse payload's size before its plans:
// header, Seq, stats and the plan count.
const responseFixedLen = headerLen + 4 + statsLen + 4

// SetFrameSeq overwrites the Seq of a whole job-response or
// worker-error frame (length prefix included): the field after the
// header. A stored reply is re-addressed this way to each request it
// answers.
func SetFrameSeq(frame []byte, seq uint32) {
	binary.LittleEndian.PutUint32(frame[prefixLen+headerLen:], seq)
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
	if d.err == nil && n > 0 {
		r.Plans = make([]*plan.Node, 0, min(n, (len(b)-d.off)/scanNodeLen))
		d.planSlab()
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
