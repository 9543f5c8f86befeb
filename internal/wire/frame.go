package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// MaxFrameSize caps a frame payload; the paper configured 1 GB maximum
// message sizes for SMA's sake, and the trusted master↔worker runtime
// keeps the same ceiling. Public-facing listeners should pass a much
// tighter limit to ReadFrameLimit: a well-formed job request or
// response is kilobytes, not gigabytes, and the limit is what bounds
// how many bytes a peer with a lying length prefix can drip into a
// read loop before being cut off.
const MaxFrameSize = 1 << 30

// MaxRequestFrame is that tighter limit for a listener's inbound
// frames — job and cancel requests to a TCP worker, optimize requests
// to mpqd's wire front.
const MaxRequestFrame = 8 << 20

// ErrFrameTooLarge reports a frame whose length prefix exceeds the
// reader's size limit. It is a transport-level (retryable) condition:
// the stream is out of sync or the peer is misbehaving, so the caller
// should drop the connection and redial, exactly as for a truncated or
// corrupt frame — the netrun master classifies it retryable. Test with
// errors.Is.
var ErrFrameTooLarge = fmt.Errorf("wire: frame exceeds size limit")

// frameChunk bounds how much ReadFrameInto allocates ahead of the
// bytes that have actually arrived.
const frameChunk = 64 << 10

// WriteFrame writes one length-prefixed frame in a single Write: on a
// TCP conn (no Nagle in Go) the prefix and the payload leave as one
// segment, not two. It copies the payload behind a prefix; a frame
// built whole by one of the *Frame encoders goes out through
// WriteFramed without that copy.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes, maximum %d", ErrFrameTooLarge, len(payload), MaxFrameSize)
	}
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	_, err := w.Write(buf)
	return err
}

// WriteFramed writes a whole frame — length prefix already in place, as
// the *Frame encoders (JobRequestFrame, JobResponseFrame, AnswerFrame,
// WorkerErrorFrame, CancelRequestFrame) build it — in a single Write,
// copying nothing.
func WriteFramed(w io.Writer, frame []byte) error {
	if len(frame)-prefixLen > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes, maximum %d", ErrFrameTooLarge, len(frame)-prefixLen, MaxFrameSize)
	}
	if len(frame) < prefixLen || binary.BigEndian.Uint32(frame) != uint32(len(frame)-prefixLen) {
		return fmt.Errorf("wire: %d-byte frame does not match its length prefix", len(frame))
	}
	_, err := w.Write(frame)
	return err
}

// ReadFrame reads one length-prefixed frame under the package-wide
// MaxFrameSize cap. The payload buffer grows as bytes actually arrive,
// so a malicious or corrupted length prefix cannot force a huge
// up-front allocation.
func ReadFrame(r io.Reader) ([]byte, error) {
	return ReadFrameLimit(r, MaxFrameSize)
}

// ReadFrameLimit is ReadFrame with an explicit payload size limit
// (capped at MaxFrameSize; max <= 0 means MaxFrameSize). A length
// prefix above the limit returns an error wrapping ErrFrameTooLarge
// before any payload byte is read, so a lying prefix costs the reader
// four header bytes, not an unbounded drip. Behind a bufio.Reader it
// still costs the reader four bytes, and the socket at most one buffer
// of read-ahead. Listeners facing untrusted peers should pass the
// smallest limit their message mix allows.
func ReadFrameLimit(r io.Reader, max int) ([]byte, error) {
	return ReadFrameInto(r, nil, max)
}

// ReadFrameInto is ReadFrameLimit reading into buf's storage, which a
// long-lived reader hands back frame after frame: a frame that fits in
// cap(buf) allocates nothing, and a larger one grows the buffer in the
// same chunks ReadFrameLimit allocates in. The payload aliases buf and
// is overwritten by the next read into it.
func ReadFrameInto(r io.Reader, buf []byte, limit int) ([]byte, error) {
	if limit <= 0 || limit > MaxFrameSize {
		limit = MaxFrameSize
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n32 := binary.BigEndian.Uint32(hdr[:])
	if n32 > uint32(limit) {
		// Compare before converting: on 32-bit platforms int(n32) can wrap
		// negative and would slip past this guard.
		return nil, fmt.Errorf("%w: %d bytes, maximum %d", ErrFrameTooLarge, n32, limit)
	}
	n := int(n32)
	payload := buf[:0]
	if payload == nil {
		payload = make([]byte, 0, min(n, frameChunk))
	}
	for len(payload) < n {
		step := min(n-len(payload), frameChunk)
		if cap(payload)-len(payload) < step {
			grown := make([]byte, len(payload), min(max(2*cap(payload), len(payload)+step), n))
			copy(grown, payload)
			payload = grown
		}
		start := len(payload)
		payload = payload[:start+step]
		if _, err := io.ReadFull(r, payload[start:]); err != nil {
			return nil, err
		}
	}
	return payload, nil
}
