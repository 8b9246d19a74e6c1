package window

import (
	"reflect"
	"testing"

	"repro/internal/tuple"
)

// This file pins the window-boundary semantics in one place: a window is
// the half-open range [Start, End). Window.Contains is the normative
// definition; every assignment path (tumbling, sliding, session, paired)
// must agree with it, in particular for tuples landing exactly on a
// boundary timestamp.

func TestContainsPinsHalfOpenSemantics(t *testing.T) {
	w := Window{Start: 10, End: 20}
	cases := []struct {
		ts   int64
		want bool
	}{
		{9, false},  // just before the window
		{10, true},  // ts == Start is inside
		{19, true},  // last contained instant
		{20, false}, // ts == End (the close) is outside
		{21, false},
	}
	for _, c := range cases {
		if got := w.Contains(c.ts); got != c.want {
			t.Fatalf("Contains(%d) = %v, want %v — windows are [Start, End)", c.ts, got, c.want)
		}
	}
}

func TestTumblingBoundaryTimestamps(t *testing.T) {
	// Duplicate timestamps exactly on the boundary: two tuples at w-1
	// close out the first window, two at exactly w open the second.
	const w = 10
	r := rel(0, w-1, w-1, w, w)
	windows, slices, err := assignOne(r, Spec{Kind: Tumbling, LengthMs: w})
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != 2 {
		t.Fatalf("got %d windows, want 2", len(windows))
	}
	if len(slices[0]) != 3 || len(slices[1]) != 2 {
		t.Fatalf("boundary split %d/%d, want 3/2", len(slices[0]), len(slices[1]))
	}
	for i, win := range windows {
		for _, tp := range slices[i] {
			if !win.Contains(tp.TS) {
				t.Fatalf("window %+v assigned ts %d it does not contain", win, tp.TS)
			}
		}
	}
	if windows[0].End != windows[1].Start {
		t.Fatalf("adjacent tumbling windows must share the boundary: %+v %+v", windows[0], windows[1])
	}
}

func TestSlidingBoundaryExclusive(t *testing.T) {
	// w=10, slide=5: a tuple at ts=10 belongs to the windows starting at
	// 5 and 10, and NOT to [0, 10) — the close is exclusive.
	_, slices, err := assignOne(rel(0, 10), Spec{Kind: Sliding, LengthMs: 10, SlideMs: 5})
	if err != nil {
		t.Fatal(err)
	}
	windows, _, _ := assignOne(rel(0, 10), Spec{Kind: Sliding, LengthMs: 10, SlideMs: 5})
	sawTen := 0
	for i, win := range windows {
		for _, tp := range slices[i] {
			if !win.Contains(tp.TS) {
				t.Fatalf("window %+v holds ts %d outside [Start, End)", win, tp.TS)
			}
			if tp.TS == 10 {
				sawTen++
				if win.Start == 0 {
					t.Fatalf("ts=10 assigned to [0, 10): the close must be exclusive")
				}
			}
		}
	}
	if sawTen != 2 {
		t.Fatalf("ts=10 appeared in %d sliding windows, want 2 (starts 5 and 10)", sawTen)
	}
}

func TestSingleTupleEveryKind(t *testing.T) {
	specs := []Spec{
		{Kind: Tumbling, LengthMs: 10},
		{Kind: Sliding, LengthMs: 10, SlideMs: 5},
		{Kind: Session, GapMs: 3},
	}
	for _, spec := range specs {
		windows, slices, err := assignOne(rel(7), spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		if len(windows) == 0 {
			t.Fatalf("%s: single tuple produced no window", spec.Kind)
		}
		total := 0
		for i, win := range windows {
			total += len(slices[i])
			for _, tp := range slices[i] {
				if !win.Contains(tp.TS) {
					t.Fatalf("%s: window %+v does not contain its tuple at %d", spec.Kind, win, tp.TS)
				}
			}
		}
		if total == 0 {
			t.Fatalf("%s: tuple assigned to no window", spec.Kind)
		}
	}
}

func TestEmptyWindowsSkipped(t *testing.T) {
	// A long gap between tuples: the tumbling grid has ten empty windows
	// in between, none of which may be materialized.
	windows, slices, err := assignOne(rel(0, 115), Spec{Kind: Tumbling, LengthMs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != 2 {
		t.Fatalf("got %d windows, want 2 (empty windows must be skipped)", len(windows))
	}
	if windows[1].Start != 110 || len(slices[1]) != 1 {
		t.Fatalf("second window %+v with %d tuples", windows[1], len(slices[1]))
	}
}

func TestSessionGapBoundary(t *testing.T) {
	// A spacing of exactly GapMs keeps the session open (<= gap); one
	// more millisecond splits it.
	windows, _, err := assignOne(rel(0, 3, 6), Spec{Kind: Session, GapMs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != 1 {
		t.Fatalf("spacing == gap must stay one session, got %d", len(windows))
	}
	// The session window is [first, last+1): its own boundary semantics
	// must agree with Contains for the last tuple.
	if !windows[0].Contains(6) || windows[0].Contains(7) {
		t.Fatalf("session window %+v must contain its last tuple and nothing after", windows[0])
	}
	windows, _, err = assignOne(rel(0, 4), Spec{Kind: Session, GapMs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != 2 {
		t.Fatalf("spacing > gap must split the session, got %d windows", len(windows))
	}
}

func TestAssignPairBoundarySeparation(t *testing.T) {
	// r's tuple at w-1 and s's tuple at w are one millisecond apart but
	// in different tumbling windows: the pair alignment must keep them
	// apart, each with an empty opposite side.
	const w = 10
	pairs, err := AssignPair(rel(w-1), rel(w), Spec{Kind: Tumbling, LengthMs: w})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 {
		t.Fatalf("got %d pairs, want 2 separate windows", len(pairs))
	}
	if len(pairs[0].R) != 1 || len(pairs[0].S) != 0 {
		t.Fatalf("first window must be R-only: %+v", pairs[0])
	}
	if len(pairs[1].R) != 0 || len(pairs[1].S) != 1 {
		t.Fatalf("second window must be S-only: %+v", pairs[1])
	}
	// Same two tuples in one window: joinable in a single pair.
	pairs, err = AssignPair(rel(w-1), rel(w), Spec{Kind: Tumbling, LengthMs: 2 * w})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || len(pairs[0].R) != 1 || len(pairs[0].S) != 1 {
		t.Fatalf("doubled window must pair both tuples: %+v", pairs)
	}
}

func TestTumblingCoversBoundaryDuplicatesOnce(t *testing.T) {
	// Many tuples sharing the exact boundary timestamp: each appears in
	// exactly one tumbling window, none is lost or duplicated.
	var r tuple.Relation
	for i := 0; i < 5; i++ {
		r = append(r, tuple.Tuple{TS: 10, Key: int32(i)})
	}
	windows, slices, err := assignOne(r, Spec{Kind: Tumbling, LengthMs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != 1 || windows[0].Start != 10 {
		t.Fatalf("all boundary duplicates belong to [10, 20): %+v", windows)
	}
	if len(slices[0]) != len(r) {
		t.Fatalf("%d of %d boundary duplicates assigned", len(slices[0]), len(r))
	}
}

func TestNegativeTimestamps(t *testing.T) {
	// Window starts are floored, not truncated toward zero: ts -15 opens
	// [-20, -10). No window opens before the slide boundary at or below
	// the earliest tuple, as none opens before 0 on a stream starting at
	// 0, so the sliding grid here starts at -15.
	r := rel(-15, -5, 3)
	cases := []struct {
		spec Spec
		want []Window
		held [][]int64
	}{
		{Spec{Kind: Tumbling, LengthMs: 10},
			[]Window{{-20, -10}, {-10, 0}, {0, 10}},
			[][]int64{{-15}, {-5}, {3}}},
		{Spec{Kind: Sliding, LengthMs: 10, SlideMs: 5},
			[]Window{{-15, -5}, {-10, 0}, {-5, 5}, {0, 10}},
			[][]int64{{-15}, {-5}, {-5, 3}, {3}}},
	}
	for _, c := range cases {
		windows, slices, err := assignOne(r, c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(windows, c.want) {
			t.Fatalf("%s: windows %v, want %v", c.spec.Kind, windows, c.want)
		}
		for i, win := range windows {
			var got []int64
			for _, tp := range slices[i] {
				if !win.Contains(tp.TS) {
					t.Fatalf("%s: window %+v holds ts %d it does not contain", c.spec.Kind, win, tp.TS)
				}
				got = append(got, tp.TS)
			}
			if !reflect.DeepEqual(got, c.held[i]) {
				t.Fatalf("%s: window %+v holds %v, want %v", c.spec.Kind, win, got, c.held[i])
			}
		}
	}
	// The origin is common to both streams: R's -3 sets it to -5, so S's
	// 2 meets R's -3 in [-5, 5) although S alone starts after 0.
	pairs, err := AssignPair(rel(-3), rel(2), Spec{Kind: Sliding, LengthMs: 10, SlideMs: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 || pairs[0].Window != (Window{-5, 5}) || len(pairs[0].R) != 1 || len(pairs[0].S) != 1 {
		t.Fatalf("pairs %+v, want [-5,5) both, [0,10) S", pairs)
	}
}

func TestLongGapIsJumped(t *testing.T) {
	// 10^12 ms between two tuples is 2·10^11 empty slides: assignment
	// jumps over them instead of stepping through each.
	const gap = 1_000_000_000_000
	cases := []struct {
		spec Spec
		want []Window
	}{
		{Spec{Kind: Tumbling, LengthMs: 10}, []Window{{0, 10}, {gap, gap + 10}}},
		{Spec{Kind: Sliding, LengthMs: 10, SlideMs: 5}, []Window{{0, 10}, {gap - 5, gap + 5}, {gap, gap + 10}}},
	}
	for _, c := range cases {
		windows, _, err := assignOne(rel(0, gap), c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(windows, c.want) {
			t.Fatalf("%s: windows %v, want %v", c.spec.Kind, windows, c.want)
		}
	}
}
