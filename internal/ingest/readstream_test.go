package ingest

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/tuple"
)

// readStreamReference is the decoder ReadStream replaced: one io.ReadFull
// per 16-byte frame, the result grown by append. ReadStream must agree
// with it on tag, tuples, and error — including the error text, which
// reports how many tuples were read.
func readStreamReference(r io.Reader, maxTuples int) (byte, tuple.Relation, error) {
	br := bufio.NewReader(r)
	tag, err := br.ReadByte()
	if err != nil {
		return 0, nil, fmt.Errorf("ingest: reading tag: %w", err)
	}
	if tag != TagR && tag != TagS {
		return 0, nil, ErrBadTag
	}
	var rel tuple.Relation
	frame := make([]byte, tuple.BinarySize)
	for {
		if _, err := io.ReadFull(br, frame); err != nil {
			if err == io.EOF {
				break
			}
			return tag, nil, fmt.Errorf("ingest: truncated frame after %d tuples: %w", len(rel), err)
		}
		rel = append(rel, tuple.DecodeBinary(frame))
		if maxTuples > 0 && len(rel) > maxTuples {
			return tag, nil, fmt.Errorf("ingest: stream exceeds %d tuples", maxTuples)
		}
	}
	return tag, rel, nil
}

// plainReader hides every method of a reader but Read: no Len, no WriteTo.
type plainReader struct{ r io.Reader }

func (p plainReader) Read(b []byte) (int, error) { return p.r.Read(b) }

// lenReader claims an arbitrary remaining length.
type lenReader struct {
	io.Reader
	n int
}

func (l lenReader) Len() int { return l.n }

// wireOf encodes n distinguishable tuples.
func wireOf(t testing.TB, n int) []byte {
	t.Helper()
	rel := make(tuple.Relation, n)
	for i := range rel {
		rel[i] = tuple.Tuple{TS: int64(i) * 3, Key: int32(i*7919) - 1<<20, Payload: int32(-i)}
	}
	var buf bytes.Buffer
	if err := WriteStream(&buf, TagS, rel); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// agree runs both decoders over the same bytes behind the same reader
// shape and compares everything they return.
func agree(t testing.TB, name string, data []byte, maxTuples int, wrap func(io.Reader) io.Reader) {
	t.Helper()
	gotTag, got, gotErr := ReadStream(wrap(bytes.NewReader(data)), maxTuples)
	wantTag, want, wantErr := readStreamReference(wrap(bytes.NewReader(data)), maxTuples)
	if gotTag != wantTag || len(got) != len(want) {
		t.Fatalf("%s: tag %q with %d tuples, reference %q with %d", name, gotTag, len(got), wantTag, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: tuple %d is %v, reference %v", name, i, got[i], want[i])
		}
	}
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("%s: error %q, reference %q", name, gotErr, wantErr)
	case gotErr != nil && errors.Is(wantErr, io.ErrUnexpectedEOF) != errors.Is(gotErr, io.ErrUnexpectedEOF):
		t.Fatalf("%s: error chains differ: %v vs %v", name, gotErr, wantErr)
	}
}

// readerShapes are the ways a stream can reach ReadStream: with and
// without a length, in one-byte and half reads, with the final data
// arriving together with EOF, and behind a length that lies either way.
var readerShapes = map[string]func(io.Reader) io.Reader{
	"bytes.Reader": func(r io.Reader) io.Reader { return r },
	"noLen":        func(r io.Reader) io.Reader { return plainReader{r} },
	"oneByte":      func(r io.Reader) io.Reader { return iotest.OneByteReader(r) },
	"half":         func(r io.Reader) io.Reader { return iotest.HalfReader(r) },
	"dataErr":      func(r io.Reader) io.Reader { return iotest.DataErrReader(r) },
	"lenTooSmall":  func(r io.Reader) io.Reader { return lenReader{r, 1 + 3*tuple.BinarySize} },
	"lenNegative":  func(r io.Reader) io.Reader { return lenReader{r, -5} },
	"lenHuge":      func(r io.Reader) io.Reader { return lenReader{r, 1 << 50} },
}

func TestReadStreamMatchesReference(t *testing.T) {
	// Sizes around the decode block (2048 frames), the chunk (4096) and
	// small streams; maxTuples off, at, one under and far over the count.
	for _, n := range []int{0, 1, 2, 255, 2047, 2048, 2049, 4096, 4097, 10000} {
		data := wireOf(t, n)
		for name, wrap := range readerShapes {
			for _, maxTuples := range []int{0, n, n - 1, n + 1, 3} {
				if maxTuples < 0 {
					continue
				}
				if name == "lenHuge" && maxTuples != 3 {
					// A huge claimed length costs a maxHintTuples
					// allocation; one bounded case covers the clamp to
					// maxTuples, TestReadStreamLyingLen the unbounded one.
					continue
				}
				agree(t, fmt.Sprintf("n=%d/%s/max=%d", n, name, maxTuples), data, maxTuples, wrap)
			}
		}
	}
}

// TestReadStreamTruncatedAtEveryOffset cuts the stream at every byte of
// its last frame: a clean cut is a shorter stream, anything else the
// truncated-frame error, which still says how many tuples were read.
func TestReadStreamTruncatedAtEveryOffset(t *testing.T) {
	for _, n := range []int{1, 5, 2049} {
		data := wireOf(t, n)
		for cut := 1; cut < tuple.BinarySize; cut++ {
			short := data[:len(data)-cut]
			for name, wrap := range readerShapes {
				if name == "lenHuge" {
					continue
				}
				agree(t, fmt.Sprintf("n=%d/cut=%d/%s", n, cut, name), short, 0, wrap)
			}
			_, _, err := ReadStream(bytes.NewReader(short), 0)
			want := fmt.Sprintf("truncated frame after %d tuples", n-1)
			if err == nil || !strings.Contains(err.Error(), want) || !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("n=%d cut=%d: err = %v, want %q wrapping ErrUnexpectedEOF", n, cut, err, want)
			}
		}
	}
}

// TestReadStreamMaxTuplesBound hits the bound exactly and one past it.
func TestReadStreamMaxTuplesBound(t *testing.T) {
	const bound = 3000
	for name, wrap := range readerShapes {
		if _, rel, err := ReadStream(wrap(bytes.NewReader(wireOf(t, bound))), bound); err != nil || len(rel) != bound {
			t.Fatalf("%s: %d tuples at a bound of %d: %d read, err %v", name, bound, bound, len(rel), err)
		}
		_, rel, err := ReadStream(wrap(bytes.NewReader(wireOf(t, bound+1))), bound)
		if err == nil || rel != nil || !strings.Contains(err.Error(), "exceeds 3000 tuples") {
			t.Fatalf("%s: one past the bound: %d read, err %v", name, len(rel), err)
		}
	}
}

// TestReadStreamReadError passes a mid-stream transport error through,
// at a frame boundary and inside a frame, as the reference does.
func TestReadStreamReadError(t *testing.T) {
	data := wireOf(t, 100)
	boom := errors.New("connection reset")
	for _, at := range []int{1 + 40*tuple.BinarySize, 1 + 40*tuple.BinarySize + 5} {
		failing := func(r io.Reader) io.Reader {
			return io.MultiReader(io.LimitReader(r, int64(at)), iotest.ErrReader(boom))
		}
		agree(t, fmt.Sprintf("fail@%d", at), data, 0, failing)
		if _, _, err := ReadStream(failing(bytes.NewReader(data)), 0); !errors.Is(err, boom) {
			t.Fatalf("fail@%d: err = %v, want it to wrap the transport error", at, err)
		}
	}
}

// TestReadStreamLyingLen: a reader's claimed length is a capacity hint and
// nothing more. An absurd claim is clamped (to maxTuples, else to
// maxHintTuples) rather than allocated, and the stream still decodes.
func TestReadStreamLyingLen(t *testing.T) {
	data := wireOf(t, 10)
	_, rel, err := ReadStream(lenReader{bytes.NewReader(data), 1 << 50}, 0)
	if err != nil || len(rel) != 10 {
		t.Fatalf("huge Len: %d tuples, err %v", len(rel), err)
	}
	if cap(rel) > maxHintTuples {
		t.Fatalf("a claimed 2^50 bytes pre-allocated %d tuples, past the %d cap", cap(rel), maxHintTuples)
	}
	_, rel, err = ReadStream(lenReader{bytes.NewReader(data), 1 << 50}, 64)
	if err != nil || len(rel) != 10 || cap(rel) > 64 {
		t.Fatalf("huge Len under maxTuples=64: %d tuples (cap %d), err %v", len(rel), cap(rel), err)
	}
}

// TestReadStreamAllocatesOnce: with a truthful length the result is the
// only allocation that scales with the stream — its bytes, not the ~5x of
// append-doubling from nil.
func TestReadStreamAllocatesOnce(t *testing.T) {
	const n = 50000
	data := wireOf(t, n)
	var rel tuple.Relation
	perRun := testing.AllocsPerRun(5, func() {
		_, rel, _ = ReadStream(bytes.NewReader(data), 0)
	})
	if len(rel) != n || cap(rel) != n {
		t.Fatalf("decoded %d tuples into capacity %d, want exactly %d", len(rel), cap(rel), n)
	}
	// The result, the bufio.Reader and its buffer, the bytes.Reader.
	if perRun > 5 {
		t.Fatalf("ReadStream allocates %.0f times per call for a reader with Len()", perRun)
	}
}
