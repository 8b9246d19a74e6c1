// Package window slices unbounded streams into the bounded windows that
// intra-window joins operate on.
//
// Definition 1 of the paper treats a window as an arbitrary time range of
// length w, independent of the window type (sliding, tumbling, or
// session). The study itself joins a single window; this package provides
// the window-assignment machinery around it — the building block role the
// paper assigns to IaWJ for inter-window joins ("designing efficient
// inter-window join algorithms by taking IaWJ as a building block").
package window

import (
	"fmt"

	"repro/internal/tuple"
)

// Kind enumerates the window types of Definition 1.
type Kind int

// Tumbling windows partition time into disjoint ranges; Sliding windows
// overlap with a fixed slide; Session windows close after a gap of
// inactivity.
const (
	Tumbling Kind = iota
	Sliding
	Session
)

func (k Kind) String() string {
	switch k {
	case Tumbling:
		return "tumbling"
	case Sliding:
		return "sliding"
	default:
		return "session"
	}
}

// Spec describes a window assignment.
type Spec struct {
	Kind Kind
	// LengthMs is the window length w (tumbling and sliding).
	LengthMs int64
	// SlideMs is the slide of a sliding window (must be <= LengthMs for
	// full coverage; defaults to LengthMs, i.e. tumbling).
	SlideMs int64
	// GapMs closes a session window after this much inactivity.
	GapMs int64
}

// Validate reports configuration errors before any slicing happens.
func (s Spec) Validate() error {
	switch s.Kind {
	case Tumbling:
		if s.LengthMs <= 0 {
			return fmt.Errorf("window: tumbling window needs LengthMs > 0, got %d", s.LengthMs)
		}
	case Sliding:
		if s.LengthMs <= 0 {
			return fmt.Errorf("window: sliding window needs LengthMs > 0, got %d", s.LengthMs)
		}
		if s.SlideMs < 0 {
			return fmt.Errorf("window: negative slide %d", s.SlideMs)
		}
	case Session:
		if s.GapMs <= 0 {
			return fmt.Errorf("window: session window needs GapMs > 0, got %d", s.GapMs)
		}
	default:
		return fmt.Errorf("window: unknown kind %d", s.Kind)
	}
	return nil
}

// Window is one time range [Start, End).
type Window struct {
	Start, End int64
}

// Contains reports whether ts falls inside the half-open window
// [Start, End): the opening instant is included, the close excluded.
// This is the normative boundary rule; every assignment path must agree
// with it (pinned by boundary_test.go).
func (w Window) Contains(ts int64) bool { return ts >= w.Start && ts < w.End }

// Length returns End - Start.
func (w Window) Length() int64 { return w.End - w.Start }

// assign slices a time-ordered relation into the non-empty windows
// [k·slide, k·slide+w) that open at or after origin. Each returned slice
// aliases the input (no copies); when slide < w a tuple appears in every
// window covering its timestamp. Windows come in start order, and a gap
// in the stream is jumped, not stepped through: the cost is O(tuples +
// windows), whatever the gap.
func assign(rel tuple.Relation, w, slide, origin int64) ([]Window, []tuple.Relation) {
	if len(rel) == 0 {
		return nil, nil
	}
	// The window lists are sized once, for the windows the stream's span
	// can open and at most one a tuple (every window holds a tuple).
	n := len(rel)
	if span := rel[len(rel)-1].TS - rel[0].TS; span >= 0 && span/slide < int64(n) {
		n = min(n, int(span/slide)+int(min(w/slide, int64(n)))+2)
	}
	windows := make([]Window, 0, n)
	slices := make([]tuple.Relation, 0, n)
	start, hi := origin, 0
	for lo := 0; lo < len(rel); {
		// The earliest window that can hold rel[lo] opens at the first
		// multiple of slide above rel[lo].TS - w; the empty ones before
		// it are skipped.
		start = max(start, (floorDiv(rel[lo].TS-w, slide)+1)*slide)
		if start > rel[lo].TS { // slide > w: rel[lo] falls between two windows
			lo++
			continue
		}
		hi = max(hi, lo)
		for hi < len(rel) && rel[hi].TS < start+w {
			hi++
		}
		windows = append(windows, Window{Start: start, End: start + w})
		slices = append(slices, rel[lo:hi])
		start += slide
		for lo < len(rel) && rel[lo].TS < start {
			lo++
		}
	}
	return windows, slices
}

// floorDiv is a/b rounded toward negative infinity, for b > 0; Go's /
// rounds toward zero, which would put a negative timestamp in the window
// after its own.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

// align pairs the windows produced for two streams by window start, the
// precondition for joining stream pairs window by window. Windows present
// on only one side are paired with an empty slice on the other.
func align(wR []Window, rSlices []tuple.Relation, wS []Window, sSlices []tuple.Relation) []Pair {
	out := make([]Pair, 0, max(len(wR), len(wS)))
	i, j := 0, 0
	for i < len(wR) || j < len(wS) {
		switch {
		case j >= len(wS) || (i < len(wR) && wR[i].Start < wS[j].Start):
			out = append(out, Pair{Window: wR[i], R: rSlices[i]})
			i++
		case i >= len(wR) || wS[j].Start < wR[i].Start:
			out = append(out, Pair{Window: wS[j], S: sSlices[j]})
			j++
		default:
			out = append(out, Pair{Window: wR[i], R: rSlices[i], S: sSlices[j]})
			i++
			j++
		}
	}
	return out
}

// Pair is one aligned window with the tuple subsets of both streams.
type Pair struct {
	Window Window
	R, S   tuple.Relation
}

// AssignPair slices two streams into jointly defined, aligned windows —
// the form a window join consumes. Tumbling and sliding windows are
// epoch-aligned — a tumbling window is a sliding one whose slide is its
// length — so per-stream assignment aligns naturally; no window opens
// before the common origin, which is 0 or, when either stream holds an
// earlier timestamp, the slide boundary at or before the earliest one.
// Session windows are derived from the union of both streams' activity
// (a session stays open while either stream is active).
func AssignPair(r, s tuple.Relation, spec Spec) ([]Pair, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !r.SortedByTS() || !s.SortedByTS() {
		return nil, fmt.Errorf("window: relation is not time ordered")
	}
	if spec.Kind == Session {
		return assignPairSession(r, s, spec.GapMs), nil
	}
	slide := spec.SlideMs
	if spec.Kind == Tumbling || slide == 0 {
		slide = spec.LengthMs
	}
	var origin int64
	for _, rel := range []tuple.Relation{r, s} {
		if len(rel) > 0 {
			origin = min(origin, floorDiv(rel[0].TS, slide)*slide)
		}
	}
	wR, rSlices := assign(r, spec.LengthMs, slide, origin)
	wS, sSlices := assign(s, spec.LengthMs, slide, origin)
	return align(wR, rSlices, wS, sSlices), nil
}

func assignPairSession(r, s tuple.Relation, gap int64) []Pair {
	// Merge the two timestamp sequences to find joint session bounds.
	var merged []int64
	i, j := 0, 0
	for i < len(r) || j < len(s) {
		if j >= len(s) || (i < len(r) && r[i].TS <= s[j].TS) {
			merged = append(merged, r[i].TS)
			i++
		} else {
			merged = append(merged, s[j].TS)
			j++
		}
	}
	if len(merged) == 0 {
		return nil
	}
	var pairs []Pair
	ri, si := 0, 0
	start := 0
	for start < len(merged) {
		end := start + 1
		for end < len(merged) && merged[end]-merged[end-1] <= gap {
			end++
		}
		win := Window{Start: merged[start], End: merged[end-1] + 1}
		p := Pair{Window: win}
		lo := ri
		for ri < len(r) && r[ri].TS < win.End {
			ri++
		}
		p.R = r[lo:ri]
		lo = si
		for si < len(s) && s[si].TS < win.End {
			si++
		}
		p.S = s[lo:si]
		pairs = append(pairs, p)
		start = end
	}
	return pairs
}
