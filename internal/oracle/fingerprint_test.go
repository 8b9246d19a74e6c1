package oracle

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/gen"
	"repro/internal/tuple"
)

func randomResults(n int, seed uint64) []tuple.JoinResult {
	rng := rand.New(rand.NewPCG(seed, seed^0xfeed))
	out := make([]tuple.JoinResult, n)
	for i := range out {
		out[i] = tuple.JoinResult{
			TS:       int64(rng.IntN(1000)),
			Key:      int32(rng.IntN(64)),
			PayloadR: int32(rng.IntN(1 << 20)),
			PayloadS: int32(rng.IntN(1 << 20)),
		}
	}
	return out
}

func TestFingerprintOrderIndependence(t *testing.T) {
	results := randomResults(500, 11)
	var fwd, rev Fingerprint
	for _, jr := range results {
		fwd.Add(jr)
	}
	for i := len(results) - 1; i >= 0; i-- {
		rev.Add(results[i])
	}
	if !fwd.Equal(rev) {
		t.Fatalf("emission order changed the fingerprint: %s vs %s", fwd, rev)
	}
}

func TestFingerprintDetectsSingleChangedPair(t *testing.T) {
	results := randomResults(200, 13)
	var a, b Fingerprint
	for _, jr := range results {
		a.Add(jr)
	}
	results[77].PayloadS++
	for _, jr := range results {
		b.Add(jr)
	}
	if a.Equal(b) {
		t.Fatal("a changed payload must change the fingerprint")
	}
	if a.Count != b.Count {
		t.Fatal("cardinality must be unchanged — the fingerprint, not the count, catches this")
	}
}

func TestFingerprintMergeEqualsUnion(t *testing.T) {
	results := randomResults(300, 17)
	var whole, lo, hi Fingerprint
	for _, jr := range results {
		whole.Add(jr)
	}
	for _, jr := range results[:120] {
		lo.Add(jr)
	}
	for _, jr := range results[120:] {
		hi.Add(jr)
	}
	lo.Merge(hi)
	if !lo.Equal(whole) {
		t.Fatalf("merge of disjoint parts %s, whole %s", lo, whole)
	}
}

func TestDigestSwappedMirrors(t *testing.T) {
	results := randomResults(100, 19)
	var d, mirror Digest
	for _, jr := range results {
		d.AddResult(jr)
		mirror.AddResult(tuple.JoinResult{TS: jr.TS, Key: jr.Key, PayloadR: jr.PayloadS, PayloadS: jr.PayloadR})
	}
	if !d.Swapped.Equal(mirror.Full) || !d.Full.Equal(mirror.Swapped) {
		t.Fatal("Swapped digest must equal the Full digest of payload-swapped results")
	}
	if !d.Keyless.Equal(d.Keyless) || d.Keyless.Count != d.Full.Count {
		t.Fatal("keyless digest must track the same multiset")
	}
}

func TestSinkMatchesDirectDigest(t *testing.T) {
	results := randomResults(250, 23)
	var want Digest
	s := NewSink()
	for _, jr := range results {
		want.AddResult(jr)
		s.Emit(jr)
	}
	if got := s.Digest(); got != want {
		t.Fatalf("sink digest %+v, direct %+v", got, want)
	}
}

func TestReferenceMatchesNestedLoop(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		w := gen.MicroStatic(150, 130, 6, 0.8, seed)
		ref := Reference(w.R, w.S)
		nl := NestedLoop(w.R, w.S)
		if ref != nl {
			t.Fatalf("seed %d: grouped reference %+v, nested loop %+v", seed, ref, nl)
		}
	}
	if d := Reference(nil, nil); d.Full.Count != 0 {
		t.Fatalf("empty join produced %d results", d.Full.Count)
	}
}

func TestCaseSeedRoundTrip(t *testing.T) {
	cases := []Case{
		{Algorithm: "NPJ", Workload: WMicro, Threads: 1, Seed: 1},
		{Algorithm: "SHJ_JB", Workload: WBoundary, Threads: 8, Seed: 0xdeadbeef, Pooled: true, BatchSize: 1, JitterMs: 3, Perturb: true},
		{Algorithm: "PMJ_JM", Workload: WEmpty, Threads: 4, Seed: 42, BatchSize: 7},
	}
	for _, c := range cases {
		got, err := ParseCase(c.String())
		if err != nil {
			t.Fatalf("round trip %q: %v", c.String(), err)
		}
		if got != c {
			t.Fatalf("round trip %q: got %+v, want %+v", c.String(), got, c)
		}
	}
}

func TestParseCaseRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"c0.NPJ.micro.t1.s1.p0.b0.j0.y0", // wrong version
		"c1.NPJ.micro.t1.s1.p0.b0",       // too few fields
		"c1.NPJ.micro.x1.s1.p0.b0.j0.y0", // wrong tag
		"c1.NPJ.micro.t0.s1.p0.b0.j0.y0", // zero threads
		"c1.NPJ.micro.t1.szz.p0.b0.j0.y0",
	}
	for _, s := range bad {
		if _, err := ParseCase(s); err == nil {
			t.Fatalf("ParseCase(%q) must fail", s)
		}
	}
}

// definitionDigest folds results through hashResult, the written
// definition of the three digests.
func definitionDigest(results []tuple.JoinResult) Digest {
	var d Digest
	for _, jr := range results {
		d.Full.add(hashResult(jr.TS, jr.Key, jr.PayloadR, jr.PayloadS, true))
		d.Keyless.add(hashResult(jr.TS, jr.Key, jr.PayloadR, jr.PayloadS, false))
		d.Swapped.add(hashResult(jr.TS, jr.Key, jr.PayloadS, jr.PayloadR, true))
	}
	return d
}

// edgeResults are the inputs on which a widening or sign-extension slip in
// the shared-prefix form would show: negative and extreme timestamps, key
// -1, extreme payloads, and payloads that only differ by which side they
// are on.
func edgeResults() []tuple.JoinResult {
	return []tuple.JoinResult{
		{},
		{TS: -1, Key: -1, PayloadR: -1, PayloadS: -1},
		{TS: math.MinInt64, Key: math.MinInt32, PayloadR: math.MinInt32, PayloadS: math.MaxInt32},
		{TS: math.MaxInt64, Key: math.MaxInt32, PayloadR: math.MaxInt32, PayloadS: math.MinInt32},
		{TS: -7, Key: 3, PayloadR: math.MinInt32, PayloadS: 0},
		{TS: 5, Key: -1, PayloadR: 0, PayloadS: math.MinInt32},
		{TS: 5, Key: 0, PayloadR: 1, PayloadS: 2},
		{TS: 5, Key: 0, PayloadR: 2, PayloadS: 1},
	}
}

// TestAddResultEqualsDefinition holds AddResult, which shares the hash
// chain's prefixes, to hashResult field for field — one result at a time,
// so a slip cannot cancel in the folds — and pins the digest of a fixed
// input, so that the definition itself cannot drift: every recorded
// conformance digest depends on it.
func TestAddResultEqualsDefinition(t *testing.T) {
	inputs := append(edgeResults(), randomResults(2000, 29)...)
	for _, jr := range inputs {
		var got Digest
		got.AddResult(jr)
		if want := definitionDigest([]tuple.JoinResult{jr}); got != want {
			t.Fatalf("AddResult(%+v) = %+v, hashResult gives %+v", jr, got, want)
		}
	}
	var got Digest
	for _, jr := range inputs {
		got.AddResult(jr)
	}
	if want := definitionDigest(inputs); got != want {
		t.Fatalf("folded: AddResult %+v, hashResult %+v", got, want)
	}
	golden := Digest{
		Full:    Fingerprint{Count: 2008, Sum: 0xcf9022934f3029e2, Xor: 0x36dbcc0b9c63d4ba},
		Keyless: Fingerprint{Count: 2008, Sum: 0x080b6284c3522a8b, Xor: 0xcedd2ebca766ea11},
		Swapped: Fingerprint{Count: 2008, Sum: 0xbf5f46b5db71d2e9, Xor: 0x63f0102e297ac2bf},
	}
	if got != golden {
		t.Fatalf("digest of the pinned input moved:\n got %#v\nwant %#v", got, golden)
	}
}
