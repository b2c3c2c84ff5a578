package intervals

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// randomEntries builds n random entries with starts in [0,span) and lengths
// in [0,maxLen), sorted canonically.
func randomEntries(rng *rand.Rand, n int, span, maxLength int64) []Entry {
	es := make([]Entry, n)
	for i := range es {
		start := rng.Int63n(span)
		es[i] = Entry{Start: start, Stop: start + rng.Int63n(maxLength), Payload: int32(i)}
	}
	SortEntries(es)
	return es
}

func TestSortEntriesAndSorted(t *testing.T) {
	es := []Entry{{5, 9, 0}, {1, 3, 1}, {1, 2, 2}}
	if Sorted(es) {
		t.Error("unsorted reported sorted")
	}
	SortEntries(es)
	if !Sorted(es) {
		t.Error("sorted reported unsorted")
	}
	if es[0] != (Entry{1, 2, 2}) || es[1] != (Entry{1, 3, 1}) || es[2] != (Entry{5, 9, 0}) {
		t.Errorf("sorted = %v", es)
	}
}

func TestDistanceKernel(t *testing.T) {
	cases := []struct {
		a0, a1, b0, b1, want int64
	}{
		{0, 10, 20, 30, 10},
		{20, 30, 0, 10, 10},
		{0, 10, 10, 20, 0},
		{0, 10, 5, 20, -5},
		{0, 10, 0, 10, -10},
		{0, 100, 40, 50, -10},
	}
	for _, c := range cases {
		if got := Distance(c.a0, c.a1, c.b0, c.b1); got != c.want {
			t.Errorf("Distance(%d,%d,%d,%d) = %d, want %d", c.a0, c.a1, c.b0, c.b1, got, c.want)
		}
	}
}

func TestSweepOverlapsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		left := randomEntries(rng, 100, 500, 40)
		right := randomEntries(rng, 120, 500, 40)
		want := map[[2]int32]bool{}
		for _, l := range left {
			for _, r := range right {
				if l.Start < r.Stop && r.Start < l.Stop {
					want[[2]int32{l.Payload, r.Payload}] = true
				}
			}
		}
		got := map[[2]int32]bool{}
		SweepOverlaps(left, right, func(l, r Entry) bool {
			key := [2]int32{l.Payload, r.Payload}
			if got[key] {
				t.Fatalf("duplicate pair %v", key)
			}
			got[key] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d pairs, want %d", trial, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: missing pair %v", trial, k)
			}
		}
	}
}

func TestSweepOverlapsEarlyStop(t *testing.T) {
	left := []Entry{{0, 10, 0}, {5, 15, 1}}
	right := []Entry{{0, 100, 0}}
	calls := 0
	SweepOverlaps(left, right, func(l, r Entry) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("early stop made %d calls", calls)
	}
}

func maxLen(es []Entry) int64 {
	var m int64
	for _, e := range es {
		m = max(m, e.Stop-e.Start)
	}
	return m
}

// nearest is Nearest with the caller's work done: maxLen computed and the
// neighbours resolved to entries.
func nearest(es []Entry, qStart, qStop int64, k int) []Entry {
	var out []Entry
	for _, nb := range Nearest(nil, es, maxLen(es), qStart, qStop, k) {
		out = append(out, es[nb.Index])
	}
	return out
}

func TestNearestSmall(t *testing.T) {
	es := []Entry{{0, 10, 0}, {20, 30, 1}, {35, 40, 2}, {100, 110, 3}}
	// Distances from [31,33): entry 1 is 1 away, entry 2 is 2 away.
	got := Nearest(nil, es, maxLen(es), 31, 33, 2)
	if len(got) != 2 || got[0] != (Neighbor{1, 1}) || got[1] != (Neighbor{2, 2}) {
		t.Errorf("Nearest = %v", got)
	}
	if got := nearest(es, 0, 1, 0); len(got) != 0 {
		t.Errorf("k=0 returned %v", got)
	}
	if got := nearest(nil, 0, 1, 3); len(got) != 0 {
		t.Errorf("empty input returned %v", got)
	}
	if got := nearest(es, 50, 60, 10); len(got) != 4 {
		t.Errorf("k>n returned %d entries", len(got))
	}
	// The buffer is reused, not appended to.
	buf := Nearest(nil, es, maxLen(es), 31, 33, 3)
	if again := Nearest(buf, es, maxLen(es), 0, 1, 1); len(again) != 1 || &again[0] != &buf[0] || again[0].Index != 0 {
		t.Errorf("reused buffer: %v", again)
	}
}

func TestNearestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 60; trial++ {
		es := randomEntries(rng, 150, 2000, 80)
		qStart := rng.Int63n(2200) - 100
		qStop := qStart + rng.Int63n(100)
		for _, k := range []int{1, 3, 7} {
			got := nearest(es, qStart, qStop, k)
			// Brute force: sort by (dist, canonical index).
			type cand struct {
				i int
				d int64
			}
			cs := make([]cand, len(es))
			for i, e := range es {
				cs[i] = cand{i, Distance(qStart, qStop, e.Start, e.Stop)}
			}
			sort.Slice(cs, func(i, j int) bool {
				if cs[i].d != cs[j].d {
					return cs[i].d < cs[j].d
				}
				return cs[i].i < cs[j].i
			})
			if len(got) != k {
				t.Fatalf("trial %d k=%d: got %d entries", trial, k, len(got))
			}
			for i := 0; i < k; i++ {
				if got[i] != es[cs[i].i] {
					t.Fatalf("trial %d k=%d: got[%d]=%v want %v (dist %d)",
						trial, k, i, got[i], es[cs[i].i], cs[i].d)
				}
			}
		}
	}
}

func TestCoverageSmall(t *testing.T) {
	es := []Entry{{0, 10, 0}, {5, 15, 1}, {20, 25, 2}, {20, 25, 3}}
	segs := Coverage(es)
	want := []CoverSegment{{0, 5, 1}, {5, 10, 2}, {10, 15, 1}, {20, 25, 2}}
	if len(segs) != len(want) {
		t.Fatalf("Coverage = %v", segs)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Errorf("segs[%d] = %v, want %v", i, segs[i], want[i])
		}
	}
}

func TestCoverageEdgeCases(t *testing.T) {
	if Coverage(nil) != nil {
		t.Error("empty input")
	}
	// Empty intervals contribute nothing.
	if segs := Coverage([]Entry{{5, 5, 0}}); len(segs) != 0 {
		t.Errorf("zero-length interval produced %v", segs)
	}
	// Touching intervals: depth stays 1 across the boundary, so the two
	// intervals coalesce into one maximal segment.
	segs := Coverage([]Entry{{0, 10, 0}, {10, 20, 1}})
	if len(segs) != 1 || segs[0] != (CoverSegment{0, 20, 1}) {
		t.Errorf("touching = %v", segs)
	}
}

func TestCoverageInvariantsQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		es := make([]Entry, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			start := int64(raw[i] % 500)
			es = append(es, Entry{Start: start, Stop: start + int64(raw[i+1]%50), Payload: int32(i)})
		}
		SortEntries(es)
		segs := Coverage(es)
		totalLen := int64(0)
		for i, s := range segs {
			if s.Depth < 1 || s.Stop <= s.Start {
				return false
			}
			if i > 0 && s.Start < segs[i-1].Stop {
				return false // segments must not overlap
			}
			if i > 0 && s.Start == segs[i-1].Stop && s.Depth == segs[i-1].Depth {
				return false // adjacent equal-depth segments must be merged
			}
			totalLen += (s.Stop - s.Start) * int64(s.Depth)
		}
		// Conservation: sum of depth*length equals total interval length.
		var want int64
		for _, e := range es {
			if e.Stop > e.Start {
				want += e.Stop - e.Start
			}
		}
		return totalLen == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// eventSweepCoverage is the event-sort formulation of Coverage that the
// two-array merge replaced, kept as the reference it must match: one +1/-1
// event per endpoint, sorted by position with opens first.
func eventSweepCoverage(entries []Entry) []CoverSegment {
	type event struct {
		pos   int64
		delta int
	}
	var evs []event
	for _, e := range entries {
		if e.Stop > e.Start {
			evs = append(evs, event{e.Start, 1}, event{e.Stop, -1})
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].pos != evs[j].pos {
			return evs[i].pos < evs[j].pos
		}
		return evs[i].delta > evs[j].delta
	})
	var out []CoverSegment
	depth := 0
	var segStart int64
	for i := 0; i < len(evs); {
		pos := evs[i].pos
		if depth > 0 && segStart < pos {
			if n := len(out); n > 0 && out[n-1].Stop == segStart && out[n-1].Depth == depth {
				out[n-1].Stop = pos
			} else {
				out = append(out, CoverSegment{segStart, pos, depth})
			}
		}
		for i < len(evs) && evs[i].pos == pos {
			depth += evs[i].delta
			i++
		}
		segStart = pos
	}
	return out
}

// TestCoverageMatchesEventSweep: on random entries dense in duplicate
// endpoints, zero-length, nested and abutting intervals, Coverage equals the
// event-sort reference segment for segment, sorted input or not.
func TestCoverageMatchesEventSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	check := func(label string, es []Entry) {
		t.Helper()
		want := eventSweepCoverage(es)
		got := Coverage(es)
		if len(got) != len(want) {
			t.Fatalf("%s: %d segments, reference %d\n got %v\nwant %v", label, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: segment %d = %v, reference %v", label, i, got[i], want[i])
			}
		}
	}
	check("empty", nil)
	check("zero-length only", []Entry{{5, 5, 0}, {7, 7, 1}})
	check("abutting", []Entry{{0, 10, 0}, {10, 20, 1}, {20, 20, 2}, {20, 30, 3}})
	check("nested", []Entry{{0, 100, 0}, {10, 90, 1}, {20, 80, 2}, {20, 80, 3}, {50, 50, 4}})
	check("cancelling", []Entry{{0, 10, 0}, {10, 20, 1}, {0, 20, 2}, {5, 15, 3}})
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(60)
		span := int64(1 + rng.Intn(40)) // small spans force shared endpoints
		es := make([]Entry, n)
		for i := range es {
			start := rng.Int63n(span)
			es[i] = Entry{Start: start, Stop: start + rng.Int63n(span/2+1), Payload: int32(i)}
		}
		if trial%2 == 0 {
			SortEntries(es)
		}
		check("random", es)
	}
}

// TestSortEntriesMatchesSortSlice: SortEntries gives entries that tie on
// (Start, Stop) the same order the reflection-based sort it replaced gave
// them, since COVER's aggregates see entries in this order.
func TestSortEntriesMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 200; trial++ {
		es := make([]Entry, rng.Intn(300))
		for i := range es {
			start := rng.Int63n(20)
			es[i] = Entry{Start: start, Stop: start + rng.Int63n(5), Payload: int32(i)}
		}
		want := append([]Entry(nil), es...)
		sort.Slice(want, func(i, j int) bool {
			if want[i].Start != want[j].Start {
				return want[i].Start < want[j].Start
			}
			return want[i].Stop < want[j].Stop
		})
		SortEntries(es)
		for i := range want {
			if es[i] != want[i] {
				t.Fatalf("trial %d: entry %d = %v, sort.Slice gives %v", trial, i, es[i], want[i])
			}
		}
	}
}
