package oracle

import (
	"cmp"
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
	"slices"
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

// TestDigestSwappedMirrors holds the symmetry check's sink: results
// with their payloads exchanged, digested through it, must reproduce the
// digest of the originals — and differ from digesting them unmapped, or
// the sink would not be swapping anything.
func TestDigestSwappedMirrors(t *testing.T) {
	results := randomResults(100, 19)
	var want, unmapped Digest
	mirror := &mappedSink{back: swapPayloads}
	for _, jr := range results {
		want.AddResult(jr)
		swapped := tuple.JoinResult{TS: jr.TS, Key: jr.Key, PayloadR: jr.PayloadS, PayloadS: jr.PayloadR}
		unmapped.AddResult(swapped)
		mirror.emit(swapped)
	}
	if got := mirror.Digest(); got != want {
		t.Fatalf("payload-swapping sink: %s, want %s", got.Full, want.Full)
	}
	if unmapped == want {
		t.Fatal("digesting the swapped results unmapped must not reproduce the originals' digest")
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

// TestReferenceEdgeCasesMatchNestedLoop holds the sort-merge to the double
// loop where a merge walk goes wrong: keys of both signs and at the int32
// extremes (the packed sort flips the sign bit), runs of a key on both
// sides, keys only one side has, and an empty side.
func TestReferenceEdgeCasesMatchNestedLoop(t *testing.T) {
	rel := func(keys ...int32) tuple.Relation {
		out := make(tuple.Relation, len(keys))
		for i, k := range keys {
			out[i] = tuple.Tuple{TS: int64(i * 3), Key: k, Payload: int32(i) * 7}
		}
		return out
	}
	for _, c := range []struct {
		name string
		r, s tuple.Relation
	}{
		{"negative", rel(-1, -5, 3, math.MinInt32, -1), rel(math.MinInt32, -1, 3, -5, 0)},
		{"a positive key only r has", rel(7, -3, 9), rel(-3, -8)},
		{"duplicates both sides", rel(4, 4, 4, 2, 9, 2), rel(2, 4, 4, 2, 2, 9, 9)},
		{"disjoint", rel(1, 3, 5, 7), rel(0, 2, 4, 6, math.MaxInt32)},
		{"extremes", rel(math.MaxInt32, math.MinInt32, 0), rel(0, math.MinInt32, math.MaxInt32, math.MaxInt32)},
		{"empty r", nil, rel(1, 2, 3)},
		{"empty s", rel(1, 2, 3), rel()},
	} {
		if got, want := Reference(c.r, c.s), NestedLoop(c.r, c.s); got != want {
			t.Errorf("%s: sort-merge reference %+v, nested loop %+v", c.name, got, want)
		}
	}
	// Unsorted inputs with both signs and keys repeated on both sides, over
	// overlapping key ranges: r's keys are in [-20, 20), s's in [-30, 10).
	rng := rand.New(rand.NewPCG(5, 6))
	r, s := make(tuple.Relation, 400), make(tuple.Relation, 300)
	for k, side := range []tuple.Relation{r, s} {
		for i := range side {
			side[i] = tuple.Tuple{TS: rng.Int64N(1000), Key: rng.Int32N(40) - 20 - int32(10*k), Payload: rng.Int32()}
		}
	}
	ref, nl := Reference(r, s), NestedLoop(r, s)
	if ref != nl || ref.Full.Count == 0 {
		t.Fatalf("random duplicates: sort-merge reference %+v, nested loop %+v", ref, nl)
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

// definitionHash is the written definition of Add's hash, computed with
// arbitrary-precision integers rather than bits.Mul64 and shifts, so a
// slip in the fast form (a sign extension, a lost carry, a swapped half)
// shows:
//
//	mum(a, b) = ⌊a·b / 2⁶⁴⌋ ⊕ (a·b mod 2⁶⁴)
//	h = mum(mum(TS⊕K0, (Key·2³² + PayloadR)⊕K1) ⊕ K2, PayloadS⊕K3)
//
// with every field taken as its unsigned bit pattern and K0…K3 wyhash's
// constants.
func definitionHash(jr tuple.JoinResult) uint64 {
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	unsigned := func(v int64, bits uint) *big.Int {
		n := big.NewInt(v)
		return n.Mod(n, new(big.Int).Lsh(big.NewInt(1), bits))
	}
	mum := func(a, b *big.Int) *big.Int {
		hi, lo := new(big.Int).DivMod(new(big.Int).Mul(a, b), two64, new(big.Int))
		return hi.Xor(hi, lo)
	}
	u64 := func(k uint64) *big.Int { return new(big.Int).SetUint64(k) }
	packed := new(big.Int).Add(new(big.Int).Mul(unsigned(int64(jr.Key), 32), u64(1<<32)), unsigned(int64(jr.PayloadR), 32))
	inner := mum(new(big.Int).Xor(unsigned(jr.TS, 64), u64(0xa0761d6478bd642f)), packed.Xor(packed, u64(0xe7037ed1a0b428db)))
	return mum(inner.Xor(inner, u64(0x8ebc6af09c88c6e3)), new(big.Int).Xor(unsigned(int64(jr.PayloadS), 32), u64(0x589965cc75374cc3))).Uint64()
}

// definitionDigest folds results through definitionHash.
func definitionDigest(results []tuple.JoinResult) Digest {
	var d Digest
	for _, jr := range results {
		h := definitionHash(jr)
		d.Full.Count++
		d.Full.Sum += h
		d.Full.Xor ^= h
	}
	return d
}

// edgeResults are the inputs on which a widening or sign-extension slip in
// the hash would show: negative and extreme timestamps, key -1, extreme
// payloads, and payloads that only differ by which side they are on.
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

// TestAddResultEqualsDefinition holds AddResult to the written definition
// field for field — one result at a time, so a slip cannot cancel in the
// folds — and pins the digest of a fixed input, so that the definition
// itself cannot drift: every recorded conformance digest depends on it.
func TestAddResultEqualsDefinition(t *testing.T) {
	inputs := append(edgeResults(), randomResults(2000, 29)...)
	for _, jr := range inputs {
		var got Digest
		got.AddResult(jr)
		if want := definitionDigest([]tuple.JoinResult{jr}); got != want {
			t.Fatalf("AddResult(%+v) = %+v, definition gives %+v", jr, got, want)
		}
	}
	var got Digest
	for _, jr := range inputs {
		got.AddResult(jr)
	}
	if want := definitionDigest(inputs); got != want {
		t.Fatalf("folded: AddResult %+v, definition %+v", got, want)
	}
	golden := Digest{Full: Fingerprint{Count: 2008, Sum: 0xee3de58edfd44d80, Xor: 0xb72a29acddcdd4fa}}
	if got != golden {
		t.Fatalf("digest of the pinned input moved:\n got %#v\nwant %#v", got, golden)
	}
}

// TestFingerprintSeesEveryField changes one result at a time, in each of
// its four fields by +1, −1 and a flip of the top bit, swaps the payloads
// inside it, and exchanges its PayloadS with the next result's. Every
// change that alters the multiset must alter the fingerprint while the
// count stays: a hash blind to a field, or to which side a payload came
// from, fails here.
func TestFingerprintSeesEveryField(t *testing.T) {
	results := append(edgeResults(), randomResults(64, 31)...)
	digest := func(rs []tuple.JoinResult) Fingerprint {
		var f Fingerprint
		for _, jr := range rs {
			f.Add(jr)
		}
		return f
	}
	want := digest(results)
	check := func(name string, mutated []tuple.JoinResult) {
		t.Helper()
		if sameMultiset(results, mutated) {
			return // e.g. a swap of equal payloads
		}
		got := digest(mutated)
		if got.Count != want.Count {
			t.Fatalf("%s: count moved, %d → %d", name, want.Count, got.Count)
		}
		if got.Equal(want) {
			t.Errorf("%s: fingerprint unchanged at %s", name, got)
		}
	}
	fields := []struct {
		name string
		edit func(jr *tuple.JoinResult, d int64, flip bool)
	}{
		{"TS", func(jr *tuple.JoinResult, d int64, flip bool) {
			if flip {
				jr.TS ^= math.MinInt64
			} else {
				jr.TS += d
			}
		}},
		{"Key", func(jr *tuple.JoinResult, d int64, flip bool) { jr.Key = edit32(jr.Key, d, flip) }},
		{"PayloadR", func(jr *tuple.JoinResult, d int64, flip bool) { jr.PayloadR = edit32(jr.PayloadR, d, flip) }},
		{"PayloadS", func(jr *tuple.JoinResult, d int64, flip bool) { jr.PayloadS = edit32(jr.PayloadS, d, flip) }},
	}
	for i := range results {
		for _, f := range fields {
			for _, c := range []struct {
				how  string
				d    int64
				flip bool
			}{{"+1", 1, false}, {"-1", -1, false}, {"top bit", 0, true}} {
				mutated := slices.Clone(results)
				f.edit(&mutated[i], c.d, c.flip)
				check(fmt.Sprintf("result %d %s %s", i, f.name, c.how), mutated)
			}
		}
		mutated := slices.Clone(results)
		mutated[i].PayloadR, mutated[i].PayloadS = mutated[i].PayloadS, mutated[i].PayloadR
		check(fmt.Sprintf("result %d payloads swapped", i), mutated)
		j := (i + 1) % len(results)
		mutated = slices.Clone(results)
		mutated[i].PayloadS, mutated[j].PayloadS = mutated[j].PayloadS, mutated[i].PayloadS
		check(fmt.Sprintf("results %d and %d PayloadS exchanged", i, j), mutated)
	}
}

// edit32 adds d to v, or flips its top bit.
func edit32(v int32, d int64, flip bool) int32 {
	if flip {
		return v ^ math.MinInt32
	}
	return v + int32(d)
}

// sameMultiset reports whether a and b hold the same results, in any order.
func sameMultiset(a, b []tuple.JoinResult) bool {
	order := func(x, y tuple.JoinResult) int {
		return cmp.Or(cmp.Compare(x.TS, y.TS), cmp.Compare(x.Key, y.Key),
			cmp.Compare(x.PayloadR, y.PayloadR), cmp.Compare(x.PayloadS, y.PayloadS))
	}
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, order)
	slices.SortFunc(b, order)
	return slices.Equal(a, b)
}

// BenchmarkDigest is the oracle's cost per verified result: AddResult over
// a hot batch, and Sink.Emit called through a func value as Config.Emit
// calls it.
func BenchmarkDigest(b *testing.B) {
	batch := randomResults(1024, 37)
	b.Run("AddResult", func(b *testing.B) {
		var d Digest
		for i := 0; i < b.N; i++ {
			for _, jr := range batch {
				d.AddResult(jr)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/result")
		if d.Full.Count == 0 {
			b.Fatal("nothing was digested")
		}
	})
	b.Run("SinkEmit", func(b *testing.B) {
		sink := NewSink()
		emit := sink.Emit
		for i := 0; i < b.N; i++ {
			for _, jr := range batch {
				emit(jr)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/result")
		if sink.Digest().Full.Count == 0 {
			b.Fatal("nothing was digested")
		}
	})
}
