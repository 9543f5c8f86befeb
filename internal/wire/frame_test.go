package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// frame returns payload wrapped in one length-prefixed frame.
func frame(tb testing.TB, payload []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// prefix returns a bare 4-byte length header claiming n payload bytes.
func prefix(n uint32) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], n)
	return hdr[:]
}

// countingReader counts how many bytes ReadFrame actually consumed.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

func TestReadFrameLimitCapsLyingPrefix(t *testing.T) {
	// A peer that claims a frame bigger than the limit and then drips
	// bytes forever must be cut off after the 4-byte header: the error
	// is ErrFrameTooLarge and not a single payload byte is consumed.
	const limit = 1 << 10
	body := bytes.Repeat([]byte{0xAB}, 64)
	in := append(prefix(limit+1), body...)
	cr := &countingReader{r: bytes.NewReader(in)}
	_, err := ReadFrameLimit(cr, limit)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if cr.n != 4 {
		t.Fatalf("consumed %d bytes after a lying prefix, want only the 4-byte header", cr.n)
	}
	// Exactly at the limit is fine.
	payload := bytes.Repeat([]byte{7}, limit)
	got, err := ReadFrameLimit(bytes.NewReader(frame(t, payload)), limit)
	if err != nil {
		t.Fatalf("frame exactly at limit rejected: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mangled")
	}
}

func TestReadFrameDefaultCap(t *testing.T) {
	// The package-wide ceiling applies when no explicit limit is given,
	// and a limit of zero (or one beyond the ceiling) falls back to it.
	for _, max := range []int{0, -5, MaxFrameSize + 1} {
		if _, err := ReadFrameLimit(bytes.NewReader(prefix(MaxFrameSize+1)), max); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("max=%d: err = %v, want ErrFrameTooLarge", max, err)
		}
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("4 GB prefix: err = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameRoundTripAcrossChunks(t *testing.T) {
	payload := bytes.Repeat([]byte{0xCD}, 3*frameChunk+17)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip changed the payload")
	}
}

// writeCounter records the size of every Write it is handed.
type writeCounter struct{ sizes []int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return len(p), nil
}

// TestWriteFrameIsOneWrite: the prefix and the payload reach the writer
// as one Write, so a TCP conn sends them as one segment, and building
// that buffer is the frame's one allocation.
func TestWriteFrameIsOneWrite(t *testing.T) {
	for _, n := range []int{0, 300, frameChunk + 1} {
		payload := bytes.Repeat([]byte{0x5A}, n)
		w := &writeCounter{sizes: make([]int, 0, 1)}
		if err := WriteFrame(w, payload); err != nil {
			t.Fatal(err)
		}
		if len(w.sizes) != 1 || w.sizes[0] != 4+n {
			t.Fatalf("n=%d: writes of %v bytes, want one write of %d", n, w.sizes, 4+n)
		}
		allocs := testing.AllocsPerRun(20, func() {
			w.sizes = w.sizes[:0]
			WriteFrame(w, payload)
		})
		if allocs > 1 {
			t.Fatalf("n=%d: %.1f allocations per frame, want at most 1", n, allocs)
		}
	}
}

// TestFramesReadBackToBackThroughOneBuffer: frames that arrive together
// are read one after another through one bufio.Reader, whatever the
// underlying reader's read sizes, and the buffer never leaks one
// frame's bytes into the next.
func TestFramesReadBackToBackThroughOneBuffer(t *testing.T) {
	payloads := [][]byte{[]byte("first"), {}, bytes.Repeat([]byte{0xEF}, frameChunk+123)}
	var stream []byte
	for _, p := range payloads {
		stream = append(stream, frame(t, p)...)
	}
	wrap := map[string]func(io.Reader) io.Reader{
		"whole":    func(r io.Reader) io.Reader { return r },
		"one-byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
	}
	for name, w := range wrap {
		br := bufio.NewReader(w(bytes.NewReader(stream)))
		for i, want := range payloads {
			got, err := ReadFrame(br)
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: frame %d: %d bytes read back, %d written", name, i, len(got), len(want))
			}
		}
		if _, err := ReadFrame(br); err != io.EOF {
			t.Fatalf("%s: read past the last frame: err = %v, want io.EOF", name, err)
		}
		lying := append(frame(t, []byte("ok")), prefix(1<<10+1)...)
		br = bufio.NewReader(w(bytes.NewReader(lying)))
		if _, err := ReadFrameLimit(br, 1<<10); err != nil {
			t.Fatalf("%s: frame before the lying prefix: %v", name, err)
		}
		if _, err := ReadFrameLimit(br, 1<<10); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("%s: oversized prefix through a buffer: err = %v, want ErrFrameTooLarge", name, err)
		}
	}
}

// FuzzReadFrameLimit: the framing decoder must never panic, never
// over-allocate on a lying length prefix, never read past the header
// when the prefix exceeds the limit, and every accepted frame must
// re-encode to exactly the bytes it was parsed from. Read through one
// bufio.Reader, the frame after an accepted one must be exactly what a
// direct read of the remaining bytes returns, error for error.
func FuzzReadFrameLimit(f *testing.F) {
	f.Add([]byte{}, 1<<20)
	f.Add(frame(f, nil), 1<<20)
	f.Add(frame(f, []byte("job")), 1<<20)
	f.Add([]byte{0, 0, 0, 10, 1, 2}, 1<<20)                    // claims 10 bytes, has 2
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, 1<<20)               // 4 GB length prefix
	f.Add([]byte{0x40, 0, 0, 1, 0}, 1<<20)                     // just above MaxFrameSize
	f.Add(append(prefix(1<<20+1), 0xDE, 0xAD), 1<<20)          // just above the caller's limit
	f.Add(append(prefix(1<<10), make([]byte, 1<<10)...), 1<<9) // drip: claim within global cap, above limit
	f.Add(frame(f, bytes.Repeat([]byte{7}, 70<<10)), 0)        // spans multiple read chunks, default limit
	// Two frames back to back.
	f.Add(append(frame(f, []byte("a")), frame(f, []byte("bc"))...), 1<<20)
	f.Fuzz(func(t *testing.T, b []byte, max int) {
		cr := &countingReader{r: bytes.NewReader(b)}
		payload, err := ReadFrameLimit(cr, max)
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) && cr.n > 4 {
				t.Fatalf("consumed %d bytes after an oversized prefix", cr.n)
			}
			return
		}
		if len(b) < 4 {
			t.Fatalf("accepted a %d-byte input with no header", len(b))
		}
		if want := int(binary.BigEndian.Uint32(b)); len(payload) != want {
			t.Fatalf("payload length %d, header says %d", len(payload), want)
		}
		if max > 0 && max <= MaxFrameSize && len(payload) > max {
			t.Fatalf("accepted %d bytes over the %d limit", len(payload), max)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			t.Fatalf("re-frame failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), b[:4+len(payload)]) {
			t.Fatal("re-framed bytes differ from input")
		}
		br := bufio.NewReader(bytes.NewReader(b))
		if _, err := ReadFrameLimit(br, max); err != nil {
			t.Fatalf("buffered read rejected the frame a direct read accepted: %v", err)
		}
		next, err := ReadFrameLimit(br, max)
		want, wantErr := ReadFrameLimit(bytes.NewReader(b[4+len(payload):]), max)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("next frame through the buffer: err %v, direct read: %v", err, wantErr)
		}
		if !bytes.Equal(next, want) {
			t.Fatal("next frame through the buffer differs from a direct read")
		}
	})
}
