// Package wire serializes queries, job specifications, plans and
// statistics into a compact binary format.
//
// Every byte the cluster simulator and the TCP runtime account for is a
// byte this package actually produced — the paper's network-traffic
// measurements (Figures 1, 2, 4, 5) are regenerated from real message
// sizes, not from a model. The format is little-endian with a magic/
// version header per message; decoders never panic on malformed input.
package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"mpq/internal/bitset"
	"mpq/internal/cost"
	"mpq/internal/plan"
	"mpq/internal/query"
)

// Version is the wire-format version; bump on incompatible changes.
// A peer of another version is refused at the header (MessageTag). A
// bump never moves a PlanFingerprint, which hashes the plan body under
// a fixed tag.
//
// Version 2 added the Seq echo to job requests, job responses and
// worker-error frames so masters can discard duplicated or stale
// response frames instead of mistaking them for the job in flight.
// The advisory CancelRequest frame (TagCancelRequest) rides within
// version 2: it adds a new tag without changing any existing message,
// and a peer that does not understand it answers ErrBadRequest, which
// cancel senders tolerate. Version 3 dropped three fields from the job
// frames: the request's cross-product switch and cost-model band, and
// the response's in-band error string (failures travel in WorkerError
// frames).
const Version = 3

const magic = 0x4D50 // "MP"

// Tag identifies a message type. It is a named type (not a bare uint8)
// so that dispatch switches over it are checkable: the tagswitch
// analyzer in internal/analysis requires every switch on a Tag to
// either cover all exported tag constants or carry a default clause
// that returns, so adding a tag here cannot leave a dispatch path
// silently dropping the new frame.
type Tag uint8

// Message type tags. They are exported so transports can classify a
// frame (MessageTag) without decoding the body — the master needs this
// to tell a worker-error frame from a job response.
const (
	TagQuery         Tag = 1
	TagPlan          Tag = 2
	TagJobRequest    Tag = 3
	TagJobResponse   Tag = 4
	TagWorkerError   Tag = 5
	TagCancelRequest Tag = 6
)

// MessageTag reports the message type tag of an encoded message after
// checking the magic and version, without decoding the body.
func MessageTag(b []byte) (Tag, error) {
	if len(b) < 4 {
		return 0, fmt.Errorf("wire: message of %d bytes has no header", len(b))
	}
	if m := binary.LittleEndian.Uint16(b); m != magic {
		return 0, fmt.Errorf("wire: bad magic 0x%04x", m)
	}
	if v := b[2]; v != Version {
		return 0, fmt.Errorf("wire: unsupported version %d", v)
	}
	return Tag(b[3]), nil
}

// encoder appends primitive values to a byte slice.
type encoder struct {
	buf []byte
}

func (e *encoder) u8(v uint8) { e.buf = append(e.buf, v) }
func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) u16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) i32(v int32)  { e.u32(uint32(v)) }
func (e *encoder) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *encoder) str(s string) {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	e.u16(uint16(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) header(tag Tag) {
	e.u16(magic)
	e.u8(Version)
	e.u8(uint8(tag))
}

// headerLen and prefixLen are the sizes of a message header and of a
// frame's length prefix.
const (
	headerLen = 4
	prefixLen = 4
)

// strLen is the encoded size of str(s).
func strLen(s string) int { return 2 + min(len(s), math.MaxUint16) }

// frameEncoder starts a length-prefixed frame whose payload is exactly
// size bytes: one allocation, which the encoding never outgrows, with
// the prefix's room in front so that WriteFramed sends the buffer as it
// is.
func frameEncoder(size int) encoder {
	return encoder{buf: make([]byte, prefixLen, prefixLen+size)}
}

// frame writes the length prefix and returns the whole frame.
func (e *encoder) frame() []byte {
	binary.BigEndian.PutUint32(e.buf, uint32(len(e.buf)-prefixLen))
	return e.buf
}

// decoder consumes primitive values from a byte slice, latching the
// first error.
type decoder struct {
	b   []byte
	off int
	err error
	// slab holds the plan nodes still to hand out (see planSlab).
	slab []plan.Node
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.b) {
		d.fail("truncated message: need %d bytes at offset %d of %d", n, d.off, len(d.b))
		return false
	}
	return true
}

func (d *decoder) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) bool() bool { return d.u8() != 0 }

func (d *decoder) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) i32() int32   { return int32(d.u32()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *decoder) str() string {
	n := int(d.u16())
	if !d.need(n) {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *decoder) header(wantTag Tag) {
	if m := d.u16(); d.err == nil && m != magic {
		d.fail("bad magic 0x%04x", m)
	}
	if v := d.u8(); d.err == nil && v != Version {
		d.fail("unsupported version %d", v)
	}
	if tag := Tag(d.u8()); d.err == nil && tag != wantTag {
		d.fail("unexpected message tag %d, want %d", tag, wantTag)
	}
}

func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("wire: %d trailing bytes", len(d.b)-d.off)
	}
	return nil
}

// EncodeQuery serializes a query (tables with statistics plus
// predicates) — the per-worker input of Algorithm 1, size b_q in the
// paper's network analysis (Theorem 1).
func EncodeQuery(q *query.Query) []byte {
	e := encoder{buf: make([]byte, 0, headerLen+queryBodyLen(q))}
	e.header(TagQuery)
	encodeQueryBody(&e, q)
	return e.buf
}

// queryBodyLen is the encoded size of encodeQueryBody(q).
func queryBodyLen(q *query.Query) int {
	n := 2 + 4 + 16*len(q.Preds)
	for _, t := range q.Tables {
		n += strLen(t.Name) + 8
	}
	return n
}

func encodeQueryBody(e *encoder, q *query.Query) {
	e.u16(uint16(q.N()))
	for _, t := range q.Tables {
		e.str(t.Name)
		e.f64(t.Cardinality)
	}
	e.u32(uint32(len(q.Preds)))
	for _, p := range q.Preds {
		e.u16(uint16(p.Left))
		e.u16(uint16(p.Right))
		e.u16(uint16(p.LeftAttr))
		e.u16(uint16(p.RightAttr))
		e.f64(p.Selectivity)
	}
}

// DecodeQuery parses a query message.
func DecodeQuery(b []byte) (*query.Query, error) {
	d := &decoder{b: b}
	d.header(TagQuery)
	q := decodeQueryBody(d)
	if err := d.finish(); err != nil {
		return nil, err
	}
	return q, nil
}

func decodeQueryBody(d *decoder) *query.Query {
	n := int(d.u16())
	if n < 1 || n > bitset.MaxTables {
		d.fail("table count %d out of range", n)
		return nil
	}
	tables := make([]query.Table, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		name := d.str()
		card := d.f64()
		tables = append(tables, query.Table{Name: name, Cardinality: card})
	}
	if d.err != nil {
		return nil
	}
	q, err := query.New(tables)
	if err != nil {
		d.fail("invalid query: %v", err)
		return nil
	}
	np := int(d.u32())
	if np > 1<<20 {
		d.fail("predicate count %d too large", np)
		return nil
	}
	for i := 0; i < np && d.err == nil; i++ {
		p := query.Predicate{
			Left:      int(d.u16()),
			Right:     int(d.u16()),
			LeftAttr:  int(d.u16()),
			RightAttr: int(d.u16()),
		}
		p.Selectivity = d.f64()
		if d.err != nil {
			return nil
		}
		if err := q.AddPredicate(p); err != nil {
			d.fail("invalid predicate %d: %v", i, err)
			return nil
		}
	}
	if d.err == nil {
		q.Freeze()
	}
	return q
}

// EncodePlan serializes one plan tree — the per-worker output, size b_p
// in Theorem 1. Annotations (cardinality, cost, buffer, order) travel
// with the plan so the master can prune without re-deriving costs.
func EncodePlan(p *plan.Node) []byte {
	e := encoder{buf: make([]byte, 0, headerLen+planBodyLen(p))}
	e.header(TagPlan)
	encodePlanBody(&e, p)
	return e.buf
}

// PlanLen is len(EncodePlan(p)), measured without encoding.
func PlanLen(p *plan.Node) int { return headerLen + planBodyLen(p) }

// Encoded sizes of one plan node, its operands aside.
const (
	scanNodeLen = 1 + 2 + 4 + 3*8
	joinNodeLen = 1 + 1 + 4 + 4 + 3*8
)

// planBodyLen is the encoded size of encodePlanBody(p).
func planBodyLen(p *plan.Node) int {
	if p.IsScan {
		return scanNodeLen
	}
	return joinNodeLen + planBodyLen(p.Left) + planBodyLen(p.Right)
}

func encodePlanBody(e *encoder, p *plan.Node) {
	if p.IsScan {
		e.u8(0)
		e.u16(uint16(p.Table))
	} else {
		e.u8(1)
		e.u8(uint8(p.Alg))
		e.i32(int32(p.Pred))
	}
	e.i32(int32(p.Order))
	e.f64(p.Card)
	e.f64(p.Cost)
	e.f64(p.Buffer)
	if !p.IsScan {
		encodePlanBody(e, p.Left)
		encodePlanBody(e, p.Right)
	}
}

// fingerprintTag prefixes the plan body a PlanFingerprint hashes: the
// plan header of wire version 2, frozen so that no later frame version
// moves a fingerprint.
var fingerprintTag = [4]byte{0x50, 0x4D, 0x02, byte(TagPlan)}

// PlanFingerprint returns a comparable, printable fingerprint of a plan
// tree: the hex SHA-256 of fingerprintTag followed by the plan's body
// encoding. Two plans have equal fingerprints iff their bodies encode
// to identical bytes — same structure, same join algorithms, same
// annotations bit for bit; the frame version is not hashed. This is the
// equivalence the engine tests, the chaos-recovery tests and the plan
// cache all assert; use this helper instead of comparing EncodePlan
// output by hand.
func PlanFingerprint(p *plan.Node) string {
	e := encoder{buf: make([]byte, 0, len(fingerprintTag)+planBodyLen(p))}
	e.buf = append(e.buf, fingerprintTag[:]...)
	encodePlanBody(&e, p)
	sum := sha256.Sum256(e.buf)
	return hex.EncodeToString(sum[:])
}

// DecodePlan parses a plan message.
func DecodePlan(b []byte) (*plan.Node, error) {
	d := &decoder{b: b}
	d.header(TagPlan)
	d.planSlab()
	p := decodePlanBody(d, 0)
	if err := d.finish(); err != nil {
		return nil, err
	}
	return p, nil
}

const maxPlanDepth = 2 * bitset.MaxTables

// planSlab allocates, in one slab, every plan node the rest of the
// message can hold: a node takes at least scanNodeLen bytes, so the
// bytes left bound the node count. The decoded plans share the slab.
func (d *decoder) planSlab() {
	if rest := len(d.b) - d.off; rest > 0 {
		d.slab = make([]plan.Node, rest/scanNodeLen)
	}
}

// node hands out the next slab node, or a heap node once the slab is
// spent.
func (d *decoder) node() *plan.Node {
	if len(d.slab) == 0 {
		return &plan.Node{}
	}
	n := &d.slab[0]
	d.slab = d.slab[1:]
	return n
}

func decodePlanBody(d *decoder, depth int) *plan.Node {
	if depth > maxPlanDepth {
		d.fail("plan nesting deeper than %d", maxPlanDepth)
		return nil
	}
	kind := d.u8()
	n := d.node()
	switch kind {
	case 0:
		n.IsScan = true
		n.Table = int(d.u16())
		if n.Table >= bitset.MaxTables {
			d.fail("scan table %d out of range", n.Table)
			return nil
		}
		n.Pred = plan.NoPred
		n.Tables = bitset.Single(n.Table)
	case 1:
		n.Alg = cost.JoinAlg(d.u8())
		if !n.Alg.Valid() {
			d.fail("invalid join algorithm %d", int(n.Alg))
			return nil
		}
		n.Pred = int(d.i32())
	default:
		d.fail("invalid plan node kind %d", kind)
		return nil
	}
	n.Order = int(d.i32())
	n.Card = d.f64()
	n.Cost = d.f64()
	n.Buffer = d.f64()
	if d.err != nil {
		return nil
	}
	if !n.IsScan {
		n.Left = decodePlanBody(d, depth+1)
		n.Right = decodePlanBody(d, depth+1)
		if d.err != nil {
			return nil
		}
		if n.Left.Tables.Intersects(n.Right.Tables) {
			d.fail("operands overlap: %v and %v", n.Left.Tables, n.Right.Tables)
			return nil
		}
		n.Tables = n.Left.Tables.Union(n.Right.Tables)
	}
	return n
}

// statsLen is the encoded size of encodeStats.
const statsLen = 5 * 8

// encodeStats / decodeStats serialize the work counters.
func encodeStats(e *encoder, s plan.Stats) {
	e.u64(s.SetsProcessed)
	e.u64(s.SplitsTried)
	e.u64(s.PlansKept)
	e.u64(s.PlansPruned)
	e.u64(s.MemoEntries)
}

func decodeStats(d *decoder) plan.Stats {
	return plan.Stats{
		SetsProcessed: d.u64(),
		SplitsTried:   d.u64(),
		PlansKept:     d.u64(),
		PlansPruned:   d.u64(),
		MemoEntries:   d.u64(),
	}
}
