package ingest

import (
	"bytes"
	"testing"

	"repro/internal/tuple"
)

// FuzzReadStream hardens the wire-format parser against hostile or
// corrupted peers: parse or error, never panic; the bulk decoder must
// agree with the tuple-at-a-time reference — tag, tuples, error text —
// whatever the reader's shape and bound; accepted streams must re-encode
// to the same bytes.
func FuzzReadStream(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteStream(&seed, TagR, tuple.Relation{{TS: 1, Key: 2, Payload: 3}})
	f.Add(seed.Bytes(), uint8(0), uint16(0))
	f.Add(wireOf(f, 5000), uint8(3), uint16(4999))
	f.Add([]byte{'S'}, uint8(1), uint16(0))
	f.Add([]byte{'X', 0, 0}, uint8(2), uint16(1))
	f.Add([]byte{}, uint8(4), uint16(0))
	shapes := []string{"bytes.Reader", "noLen", "oneByte", "half", "dataErr", "lenTooSmall", "lenNegative"}
	f.Fuzz(func(t *testing.T, data []byte, shape uint8, maxTuples uint16) {
		name := shapes[int(shape)%len(shapes)]
		agree(t, name, data, int(maxTuples), readerShapes[name])

		tag, rel, err := ReadStream(bytes.NewReader(data), 1<<16)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteStream(&buf, tag, rel); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted stream must re-encode identically: %d vs %d bytes", buf.Len(), len(data))
		}
	})
}

// FuzzReadBinary hardens the count-prefixed codec used by PMJ's disk
// spill.
func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	_ = tuple.WriteBinary(&seed, tuple.Relation{{TS: 9, Key: -1, Payload: 4}})
	f.Add(seed.Bytes())
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, err := tuple.ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tuple.WriteBinary(&buf, rel); err != nil {
			t.Fatal(err)
		}
		again, err := tuple.ReadBinary(&buf)
		if err != nil || len(again) != len(rel) {
			t.Fatalf("round trip: %v (%d vs %d)", err, len(again), len(rel))
		}
	})
}
