package metrics

// Span is a stretch [StartNs, EndNs) of one worker in one run, with the
// time and tuples it booked to each phase. A fine span is what one phase
// change closes: Phase names it, and its vectors are zero in every other
// phase. A coarse span is neighbouring spans a full Ring merged (Phase
// -1): its vectors are the sums of theirs, and whatever of its extent they
// do not cover, such as an eager worker's time between measured stretches,
// belongs to no phase. Times are on the phase clock (NowNs) until a trace
// recorder rebases them to its epoch.
type Span struct {
	TID     int32
	Alg     int32 // the run's index into the recorder's run names
	Phase   int32 // a fine span's phase; -1 for a coarse one
	StartNs int64
	EndNs   int64
	Ns      [numPhases]int64
	Tuples  [numPhases]int64
}

// merge folds the span b that follows s into s.
func (s *Span) merge(b *Span) {
	s.EndNs = b.EndNs
	s.Phase = -1
	for p := range s.Ns {
		s.Ns[p] += b.Ns[p]
		s.Tuples[p] += b.Tuples[p]
	}
}

// Ring is one worker's bounded span record; a trace recorder keeps it
// across runs and attaches it to the worker's ThreadMetrics (Trace) for
// each traced run. A full ring drops nothing: it merges neighbouring spans
// of one run in pairs, and from then on merges each new span into the
// last until that holds as many as a merged pair — it halves its
// resolution. So its spans always add up to all of the time the worker
// booked.
type Ring struct {
	spans []Span
	n     int   // spans in use
	per   int   // fine spans a slot holds at the current resolution
	left  int   // fine spans the newest slot may still take
	run   int32 // the run new spans belong to

	_ [9]int64 // pad to 128 bytes: the rings of adjacent workers share no cache line
}

// NewRing returns a ring of the given capacity, at least two spans.
func NewRing(capacity int) *Ring {
	return &Ring{spans: make([]Span, max(capacity, 2)), per: 1}
}

// Spans returns the ring's spans, oldest first. They alias the ring: read
// them only while no run records into it.
func (r *Ring) Spans() []Span { return r.spans[:r.n] }

// add records a stretch of phase p.
func (r *Ring) add(p Phase, start, end, tuples int64) {
	if r.left > 0 {
		s := &r.spans[r.n-1]
		s.EndNs = end
		s.Phase = -1
		s.Ns[p] += end - start
		s.Tuples[p] += tuples
		r.left--
		return
	}
	if r.n == len(r.spans) {
		r.coarsen()
	}
	s := &r.spans[r.n]
	*s = Span{Alg: r.run, Phase: int32(p), StartNs: start, EndNs: end}
	s.Ns[p], s.Tuples[p] = end-start, tuples
	r.n++
	r.left = r.per - 1
}

// coarsen halves the resolution of a full ring. Neighbours of different
// runs are not merged, unless no two neighbours share a run (fewer slots
// than runs): then the two oldest merge into a span of run 0, "?".
func (r *Ring) coarsen() {
	s := r.spans[:r.n]
	n := 0
	for i := 0; i < len(s); i++ {
		s[n] = s[i]
		if i+1 < len(s) && s[i].Alg == s[i+1].Alg {
			s[n].merge(&s[i+1])
			i++
		}
		n++
	}
	if n == len(s) {
		s[0].merge(&s[1])
		s[0].Alg = 0
		n = 1 + copy(s[1:], s[2:])
	}
	r.n = n
	// A ring with fewer slots than runs coarsens on almost every span;
	// the bound keeps per from overflowing.
	r.per = min(2*r.per, 1<<30)
	r.left = 0
}
