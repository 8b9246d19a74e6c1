package window

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/tuple"
)

func rel(ts ...int64) tuple.Relation {
	out := make(tuple.Relation, len(ts))
	for i, t := range ts {
		out[i] = tuple.Tuple{TS: t, Key: int32(i)}
	}
	return out
}

// assignOne slices one stream through AssignPair, with nothing on the
// other side, and returns its windows and their tuples.
func assignOne(r tuple.Relation, spec Spec) ([]Window, []tuple.Relation, error) {
	pairs, err := AssignPair(r, nil, spec)
	var windows []Window
	var slices []tuple.Relation
	for _, p := range pairs {
		windows = append(windows, p.Window)
		slices = append(slices, p.R)
	}
	return windows, slices, err
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Kind: Tumbling},
		{Kind: Sliding, LengthMs: 0},
		{Kind: Sliding, LengthMs: 10, SlideMs: -1},
		{Kind: Session},
		{Kind: Kind(42), LengthMs: 1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("spec %+v must not validate", s)
		}
	}
	good := []Spec{
		{Kind: Tumbling, LengthMs: 10},
		{Kind: Sliding, LengthMs: 10, SlideMs: 5},
		{Kind: Session, GapMs: 3},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Fatalf("spec %+v: %v", s, err)
		}
	}
}

func TestTumblingAssignment(t *testing.T) {
	r := rel(0, 1, 9, 10, 11, 25)
	windows, slices, err := assignOne(r, Spec{Kind: Tumbling, LengthMs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != 3 {
		t.Fatalf("windows = %d, want 3", len(windows))
	}
	wantSizes := []int{3, 2, 1}
	for i, s := range slices {
		if len(s) != wantSizes[i] {
			t.Fatalf("window %d size = %d, want %d", i, len(s), wantSizes[i])
		}
		for _, x := range s {
			if !windows[i].Contains(x.TS) {
				t.Fatalf("tuple ts=%d outside window %+v", x.TS, windows[i])
			}
		}
	}
	if windows[2].Start != 20 || windows[2].End != 30 {
		t.Fatalf("third window = %+v", windows[2])
	}
}

func TestTumblingCoversEveryTupleOnce(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		r := make(tuple.Relation, len(raw))
		for i, v := range raw {
			r[i] = tuple.Tuple{TS: int64(v % 500), Key: int32(i)}
		}
		sort.Slice(r, func(i, j int) bool { return r[i].TS < r[j].TS })
		_, slices, err := assignOne(r, Spec{Kind: Tumbling, LengthMs: 7})
		if err != nil {
			return false
		}
		total := 0
		for _, s := range slices {
			total += len(s)
		}
		return total == len(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSlidingOverlap(t *testing.T) {
	r := rel(0, 4, 8, 12)
	windows, slices, err := assignOne(r, Spec{Kind: Sliding, LengthMs: 10, SlideMs: 5})
	if err != nil {
		t.Fatal(err)
	}
	// ts=8 must appear in windows [0,10) and [5,15).
	appearances := 0
	for i, s := range slices {
		for _, x := range s {
			if x.TS == 8 {
				appearances++
				if !windows[i].Contains(8) {
					t.Fatal("misassigned")
				}
			}
		}
	}
	if appearances != 2 {
		t.Fatalf("ts=8 appeared %d times, want 2", appearances)
	}
}

func TestSlidingDefaultSlideEqualsTumbling(t *testing.T) {
	r := rel(0, 3, 11, 19, 22)
	_, tumb, err1 := assignOne(r, Spec{Kind: Tumbling, LengthMs: 10})
	_, slid, err2 := assignOne(r, Spec{Kind: Sliding, LengthMs: 10})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(tumb) != len(slid) {
		t.Fatalf("window counts differ: %d vs %d", len(tumb), len(slid))
	}
	for i := range tumb {
		if len(tumb[i]) != len(slid[i]) {
			t.Fatalf("window %d sizes differ", i)
		}
	}
}

func TestSessionWindows(t *testing.T) {
	r := rel(0, 1, 2, 10, 11, 30)
	windows, slices, err := assignOne(r, Spec{Kind: Session, GapMs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != 3 {
		t.Fatalf("sessions = %d, want 3", len(windows))
	}
	if len(slices[0]) != 3 || len(slices[1]) != 2 || len(slices[2]) != 1 {
		t.Fatalf("session sizes: %d %d %d", len(slices[0]), len(slices[1]), len(slices[2]))
	}
}

func TestAssignRejectsUnsorted(t *testing.T) {
	r := rel(5, 1)
	if _, _, err := assignOne(r, Spec{Kind: Tumbling, LengthMs: 10}); err == nil {
		t.Fatal("unsorted input must be rejected")
	}
}

func TestAssignEmpty(t *testing.T) {
	windows, slices, err := assignOne(nil, Spec{Kind: Tumbling, LengthMs: 10})
	if err != nil || windows != nil || slices != nil {
		t.Fatalf("empty input: %v %v %v", windows, slices, err)
	}
}

func TestAlign(t *testing.T) {
	r := rel(0, 1, 10, 11)
	s := rel(10, 12, 20)
	pairs, err := AssignPair(r, s, Spec{Kind: Tumbling, LengthMs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 {
		t.Fatalf("pairs = %d, want 3 ([0,10) R-only, [10,20) both, [20,30) S-only)", len(pairs))
	}
	if len(pairs[0].R) != 2 || len(pairs[0].S) != 0 {
		t.Fatalf("pair 0: %+v", pairs[0])
	}
	if len(pairs[1].R) != 2 || len(pairs[1].S) != 2 {
		t.Fatalf("pair 1: %+v", pairs[1])
	}
	if len(pairs[2].R) != 0 || len(pairs[2].S) != 1 {
		t.Fatalf("pair 2: %+v", pairs[2])
	}
}

func TestAssignPairTumbling(t *testing.T) {
	r := rel(0, 1, 10)
	s := rel(2, 11, 20)
	pairs, err := AssignPair(r, s, Spec{Kind: Tumbling, LengthMs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 {
		t.Fatalf("pairs = %d, want 3", len(pairs))
	}
	if len(pairs[0].R) != 2 || len(pairs[0].S) != 1 {
		t.Fatalf("pair 0: %+v", pairs[0])
	}
}

func TestAssignPairSessionJointActivity(t *testing.T) {
	// R active at 0..2, S at 3..4: with gap 2 these form ONE joint
	// session even though each stream alone would split differently.
	r := rel(0, 2)
	s := rel(3, 4)
	pairs, err := AssignPair(r, s, Spec{Kind: Session, GapMs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 {
		t.Fatalf("pairs = %d, want 1 joint session", len(pairs))
	}
	if len(pairs[0].R) != 2 || len(pairs[0].S) != 2 {
		t.Fatalf("session must include both streams: %+v", pairs[0])
	}

	// A real gap on both streams splits the session.
	r2 := rel(0, 100)
	s2 := rel(1, 101)
	pairs2, err := AssignPair(r2, s2, Spec{Kind: Session, GapMs: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs2) != 2 {
		t.Fatalf("pairs = %d, want 2 sessions", len(pairs2))
	}
}

func TestAssignPairSessionOneSided(t *testing.T) {
	r := rel(0, 1)
	pairs, err := AssignPair(r, nil, Spec{Kind: Session, GapMs: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || len(pairs[0].R) != 2 || len(pairs[0].S) != 0 {
		t.Fatalf("one-sided session: %+v", pairs)
	}
	empty, err := AssignPair(nil, nil, Spec{Kind: Session, GapMs: 5})
	if err != nil || empty != nil {
		t.Fatalf("empty inputs: %v %v", empty, err)
	}
}

func TestAssignPairValidates(t *testing.T) {
	if _, err := AssignPair(nil, nil, Spec{Kind: Tumbling}); err == nil {
		t.Fatal("invalid spec must error")
	}
	if _, err := AssignPair(rel(5, 1), rel(0), Spec{Kind: Session, GapMs: 1}); err == nil {
		t.Fatal("unsorted input must error")
	}
	if _, err := AssignPair(rel(5, 1), rel(0), Spec{Kind: Tumbling, LengthMs: 5}); err == nil {
		t.Fatal("unsorted input must error for tumbling too")
	}
}

func TestSlidingEpochAlignmentAcrossStreams(t *testing.T) {
	// A stream starting later must still enumerate the earlier
	// epoch-aligned windows that cover its first tuples.
	late := rel(8)
	windows, slices, err := assignOne(late, Spec{Kind: Sliding, LengthMs: 10, SlideMs: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != 2 { // [0,10) and [5,15)
		t.Fatalf("windows = %v, want [0,10) and [5,15)", windows)
	}
	if windows[0].Start != 0 || windows[1].Start != 5 {
		t.Fatalf("window starts: %+v", windows)
	}
	for _, s := range slices {
		if len(s) != 1 {
			t.Fatalf("each covering window holds the tuple once: %v", slices)
		}
	}
}

func TestKindString(t *testing.T) {
	if Tumbling.String() != "tumbling" || Sliding.String() != "sliding" || Session.String() != "session" {
		t.Fatal("kind strings")
	}
}

func TestWindowHelpers(t *testing.T) {
	w := Window{Start: 10, End: 20}
	if !w.Contains(10) || w.Contains(20) || w.Length() != 10 {
		t.Fatalf("window helpers: %+v", w)
	}
}
