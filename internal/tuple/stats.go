package tuple

import (
	"math"
	"math/bits"
)

// Stats summarizes the workload characteristics the paper reports in
// Table 3: arrival rate, key duplication, and an estimated Zipf key skew.
type Stats struct {
	Tuples    int     // |R|
	UniqueKey int     // distinct keys
	Dupe      float64 // average duplicates per key
	Rate      float64 // tuples per millisecond over the observed span
	SpanMs    int64   // last TS - first TS + 1
	KeySkew   float64 // estimated Zipf theta of the key frequencies
}

// stackProfile is the longest relation Summarize profiles over scratch on
// its own stack (64 KB): the prefix length ADAPTIVE and the harness
// profile, for which a heap allocation would cost as much as the profile.
const stackProfile = 4096

// Summarize computes Stats for the relation.
func (r Relation) Summarize() Stats {
	if len(r) <= stackProfile {
		var scratch [4 * stackProfile]uint32
		return r.SummarizeScratch(scratch[:0])
	}
	return r.SummarizeScratch(nil)
}

// SummarizeScratch is Summarize over caller-owned scratch, whose contents
// it overwrites: with a capacity of twice the smallest power of two that
// is at least 2·len(r) — 4·len(r) for a power-of-two length, never more
// than 8·len(r) — it allocates nothing; with less it allocates its own.
//
// Key frequencies are counted in an open-addressing table (load at most
// one half) laid over the scratch and ranked by a counting sort: a
// frequency is at most len(r), so once the counting is done the table's
// key half is free to hold one counter per frequency.
func (r Relation) SummarizeScratch(scratch []uint32) Stats {
	s := Stats{Tuples: len(r)}
	if len(r) == 0 {
		return s
	}
	logM := bits.Len(uint(2*len(r) - 1))
	m := 1 << logM
	if cap(scratch) < 2*m {
		scratch = make([]uint32, 2*m)
	}
	keys, cnts := scratch[:m], scratch[m:2*m]
	clear(cnts)
	minTS, maxTS := countKeys(r, keys, cnts, uint(32-logM))
	perFreq := keys
	clear(perFreq[:len(r)+1])
	unique, maxFreq := rankFreqs(cnts, perFreq)
	s.UniqueKey = unique
	s.Dupe = float64(len(r)) / float64(unique)
	s.SpanMs = maxTS - minTS + 1
	s.Rate = float64(len(r)) / float64(s.SpanMs)
	s.KeySkew = zipfSlope(perFreq[:maxFreq+1], unique)
	return s
}

// countKeys counts r's keys into the table keys/cnts — both of the same
// power-of-two length, cnts zeroed (a zero count marks a free slot), shift
// = 32 - log2 of that length — and returns the least and the greatest
// timestamp.
//
//iawj:hotpath
func countKeys(r Relation, keys, cnts []uint32, shift uint) (minTS, maxTS int64) {
	mask := uint32(len(keys) - 1)
	_, _ = keys[mask], cnts[mask]
	minTS, maxTS = r[0].TS, r[0].TS
	for _, t := range r {
		minTS, maxTS = min(minTS, t.TS), max(maxTS, t.TS)
		k := uint32(t.Key)
		for i := k * 0x9E3779B1 >> (shift & 31); ; i++ {
			c := cnts[i&mask]
			if c == 0 {
				keys[i&mask] = k
			} else if keys[i&mask] != k {
				continue
			}
			cnts[i&mask] = c + 1
			break
		}
	}
	return minTS, maxTS
}

// rankFreqs counts into perFreq[f] — zeroed, of a power-of-two length above
// every count — the slots of cnts that hold f, and returns the number of
// distinct keys and the highest frequency: the frequencies in counting-sort
// order, without writing the sorted sequence out. Free slots are counted
// too, into perFreq[0], which nothing ranks: which slots of a hash table
// are free is what no branch predictor knows, and the distinct keys are
// the slots that are not.
//
//iawj:hotpath
func rankFreqs(cnts, perFreq []uint32) (unique int, maxFreq uint32) {
	mask := uint32(len(perFreq) - 1)
	_ = perFreq[mask]
	for _, c := range cnts {
		perFreq[c&mask]++
		maxFreq = max(maxFreq, c)
	}
	return len(cnts) - int(perFreq[0]), maxFreq
}

// logs[v] is math.Log(v) for the ranks and frequencies a profiled stream
// prefix (4096 tuples) can produce; logOf falls back to math.Log beyond.
var logs = func() (t [4097]float64) {
	for v := 1; v < len(t); v++ {
		t[v] = math.Log(float64(v))
	}
	return t
}()

func logOf(v int) float64 {
	if uint(v) < uint(len(logs)) {
		return logs[v]
	}
	return math.Log(float64(v))
}

// zipfSlope fits a Zipf exponent to the key-frequency distribution using
// a least-squares fit of log(rank) against log(frequency), the standard
// rank-size regression; a uniform distribution yields ~0. perFreq[f] is
// the number of the unique keys that occur f times. The sums run over the
// keys in descending order of frequency, one term per key, exactly as
// they would over the sorted frequencies: the result is that of the
// map-and-sort reference (stats_test.go) to the last bit.
//
//iawj:hotpath
func zipfSlope(perFreq []uint32, unique int) float64 {
	if unique < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	rank := 1
	for f := len(perFreq) - 1; f >= 1; f-- {
		k := perFreq[f]
		if k == 0 {
			continue
		}
		y := logOf(f)
		for ; k > 0; k-- {
			x := logOf(rank)
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
			rank++
		}
	}
	n := float64(unique)
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	theta := -(n*sxy - sx*sy) / den
	if theta < 0 {
		theta = 0
	}
	return theta
}
