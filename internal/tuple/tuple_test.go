package tuple

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestSortedByTSEmpty(t *testing.T) {
	var rel Relation
	if !rel.SortedByTS() {
		t.Fatal("empty relation should report sorted")
	}
	if rel.MaxTS() != 0 {
		t.Fatal("empty MaxTS should be 0")
	}
}

func TestMaxTS(t *testing.T) {
	rel := Relation{{TS: 5}, {TS: 99}, {TS: 12}}
	if got := rel.MaxTS(); got != 99 {
		t.Fatalf("MaxTS = %d, want 99", got)
	}
}

func TestClone(t *testing.T) {
	rel := Relation{{TS: 1, Key: 2, Payload: 3}}
	c := rel.Clone()
	c[0].Key = 42
	if rel[0].Key != 2 {
		t.Fatal("Clone aliases the original")
	}
}

func TestSummarizeBasics(t *testing.T) {
	rel := Relation{
		{TS: 0, Key: 1}, {TS: 1, Key: 1}, {TS: 2, Key: 2}, {TS: 3, Key: 2},
	}
	s := rel.Summarize()
	if s.Tuples != 4 || s.UniqueKey != 2 {
		t.Fatalf("got %+v", s)
	}
	if s.Dupe != 2 {
		t.Fatalf("Dupe = %f, want 2", s.Dupe)
	}
	if s.SpanMs != 4 {
		t.Fatalf("SpanMs = %d, want 4", s.SpanMs)
	}
	if s.Rate != 1 {
		t.Fatalf("Rate = %f, want 1", s.Rate)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	var rel Relation
	s := rel.Summarize()
	if s.Tuples != 0 || s.Dupe != 0 {
		t.Fatalf("empty stats: %+v", s)
	}
}

func TestKeySkewEstimateOrdering(t *testing.T) {
	// A heavily skewed key distribution must estimate a larger Zipf
	// factor than a uniform one.
	uniform := make(Relation, 4000)
	skewed := make(Relation, 4000)
	rng := rand.New(rand.NewPCG(3, 4))
	for i := range uniform {
		uniform[i].Key = int32(rng.IntN(100))
		// rank-based skew: key k with probability ~ 1/(k+1)^1.5
		k := 0
		for rng.Float64() > 0.6 && k < 99 {
			k++
		}
		skewed[i].Key = int32(k)
	}
	u := uniform.Summarize().KeySkew
	s := skewed.Summarize().KeySkew
	if s <= u {
		t.Fatalf("skewed estimate %.3f should exceed uniform %.3f", s, u)
	}
	if u > 0.5 {
		t.Fatalf("uniform estimate %.3f should be near zero", u)
	}
}

func TestResultOf(t *testing.T) {
	r := Tuple{TS: 10, Key: 7, Payload: 1}
	s := Tuple{TS: 20, Key: 7, Payload: 2}
	jr := ResultOf(r, s)
	if jr.TS != 20 || jr.Key != 7 || jr.PayloadR != 1 || jr.PayloadS != 2 {
		t.Fatalf("ResultOf = %+v", jr)
	}
	jr2 := ResultOf(s, r) // reversed timestamps
	if jr2.TS != 20 {
		t.Fatalf("ResultOf reversed TS = %d, want 20", jr2.TS)
	}
}

func TestTupleString(t *testing.T) {
	got := Tuple{TS: 1, Key: 2, Payload: 3}.String()
	if got != "{ts=1 k=2 v=3}" {
		t.Fatalf("String = %q", got)
	}
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	rel := Relation{{TS: 1, Key: -5, Payload: 7}, {TS: 1 << 40, Key: 1<<31 - 1, Payload: -1}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, rel); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinaryInto(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rel) {
		t.Fatalf("round trip: %d tuples, want %d", len(got), len(rel))
	}
	for i := range got {
		if got[i] != rel[i] {
			t.Fatalf("tuple %d: %v != %v", i, got[i], rel[i])
		}
	}
}

func TestBinaryCodecEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinaryInto(&buf, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty round trip: %v %v", got, err)
	}
}

func TestBinaryCodecTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, Relation{{TS: 1}}); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadBinaryInto(bytes.NewReader(short), nil); err == nil {
		t.Fatal("truncated input must error")
	}
}

func TestBinaryCodecRejectsImplausibleSize(t *testing.T) {
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], 1<<40)
	if _, err := ReadBinaryInto(bytes.NewReader(hdr[:]), nil); err == nil {
		t.Fatal("implausible size must error")
	}
}

// TestBinaryCodecLyingCountAllocatesLittle: a header that claims just
// under the plausibility bound followed by two tuples must fail as
// truncated without reserving the claimed 28 GiB first (found by
// FuzzReadBinary; its input is in internal/ingest/testdata), and a
// relation longer than the first allocation still reads whole.
func TestBinaryCodecLyingCountAllocatesLittle(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, Relation{{TS: 1}, {TS: 2}}); err != nil {
		t.Fatal(err)
	}
	lying := buf.Bytes()
	binary.LittleEndian.PutUint64(lying[:8], 0x6a6a0001)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinaryInto(bytes.NewReader(lying), nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a count past the data must error")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 4<<20 {
		t.Fatalf("a lying count made ReadBinaryInto allocate %d bytes", d)
	}

	long := make(Relation, 1<<16+5)
	for i := range long {
		long[i] = Tuple{TS: int64(i), Key: int32(i)}
	}
	buf.Reset()
	if err := WriteBinary(&buf, long); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinaryInto(&buf, nil)
	if err != nil || !slices.Equal(got, long) {
		t.Fatalf("a relation past the first allocation: err %v, %d of %d tuples", err, len(got), len(long))
	}
}

func TestAppendDecodeBinary(t *testing.T) {
	f := func(ts int64, key, pay int32) bool {
		in := Tuple{TS: ts, Key: key, Payload: pay}
		return DecodeBinary(AppendBinary(nil, in)) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
