package tuple

// Binary tuple codec: 16 bytes per tuple, little endian — the wire and
// spill format shared by the network ingestion layer and PMJ's disk-spill
// mode. The fixed width mirrors the in-memory narrow-tuple layout.

import (
	"encoding/binary"
	"fmt"
	"io"
)

// BinarySize is the encoded size of one tuple.
const BinarySize = 16

// AppendBinary appends the tuple's encoding to buf.
func AppendBinary(buf []byte, t Tuple) []byte {
	var b [BinarySize]byte
	binary.LittleEndian.PutUint64(b[0:8], uint64(t.TS))
	binary.LittleEndian.PutUint32(b[8:12], uint32(t.Key))
	binary.LittleEndian.PutUint32(b[12:16], uint32(t.Payload))
	return append(buf, b[:]...)
}

// DecodeBinary decodes one tuple from b, which must hold BinarySize bytes.
func DecodeBinary(b []byte) Tuple {
	return Tuple{
		TS:      int64(binary.LittleEndian.Uint64(b[0:8])),
		Key:     int32(binary.LittleEndian.Uint32(b[8:12])),
		Payload: int32(binary.LittleEndian.Uint32(b[12:16])),
	}
}

// WriteBinary writes the whole relation, prefixed with a uint64 count.
func WriteBinary(w io.Writer, rel Relation) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(rel)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, 0, 4096)
	for i, t := range rel {
		buf = AppendBinary(buf, t)
		if len(buf) >= 4096-BinarySize || i == len(rel)-1 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	return nil
}

// ReadBinary reads a count-prefixed relation written by WriteBinary.
func ReadBinary(r io.Reader) (Relation, error) { return ReadBinaryInto(r, nil) }

// ReadBinaryInto is ReadBinary decoding into dst[:0] when dst has the
// capacity for the relation, and into a fresh allocation otherwise.
func ReadBinaryInto(r io.Reader, dst Relation) (Relation, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(hdr[:])
	const maxTuples = 1 << 31
	if n > maxTuples {
		return nil, fmt.Errorf("tuple: implausible relation size %d", n)
	}
	rel := dst[:0]
	if uint64(cap(rel)) < n {
		// The count is input: it sizes only the first allocation, up to
		// 1 MiB of tuples; a relation that really is longer grows as it
		// is read (a header claiming 2^31 tuples used to reserve 32 GiB
		// before the first frame was looked at).
		rel = make(Relation, 0, min(n, 1<<16))
	}
	var buf [BinarySize]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, fmt.Errorf("tuple: truncated relation after %d of %d tuples: %w", i, n, err)
		}
		rel = append(rel, DecodeBinary(buf[:]))
	}
	return rel, nil
}
