// Package intervals provides the coordinate-algebra kernels that the GMQL
// physical operators (MAP, genometric JOIN, COVER) are built on: a static
// augmented interval tree, sorted-sweep overlap joins, coverage
// accumulation, and nearest-neighbour search by genometric distance.
//
// All kernels work on one chromosome at a time over Entry slices sorted by
// (Start, Stop); callers partition datasets by chromosome first (the binning
// strategy the paper's parallel implementations use).
package intervals

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Entry is one interval with an opaque payload, normally the index of the
// region it came from. Coordinates are half-open [Start, Stop).
type Entry struct {
	Start, Stop int64
	Payload     int32
}

// SortEntries sorts entries into the canonical (Start, Stop) order required
// by every kernel in this package.
func SortEntries(es []Entry) {
	slices.SortFunc(es, func(a, b Entry) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.Stop, b.Stop)
	})
}

// Sorted reports whether the entries are in canonical order.
func Sorted(es []Entry) bool {
	for i := 1; i < len(es); i++ {
		if es[i-1].Start > es[i].Start ||
			(es[i-1].Start == es[i].Start && es[i-1].Stop > es[i].Stop) {
			return false
		}
	}
	return true
}

// overlaps reports half-open interval intersection.
func overlaps(aStart, aStop, bStart, bStop int64) bool {
	return aStart < bStop && bStart < aStop
}

// Distance returns the genometric distance between two intervals: bases
// between closest ends, 0 when touching, negative overlap width when
// overlapping.
func Distance(aStart, aStop, bStart, bStop int64) int64 {
	switch {
	case aStop <= bStart:
		return bStart - aStop
	case bStop <= aStart:
		return aStart - bStop
	default:
		left := aStart
		if bStart > left {
			left = bStart
		}
		right := aStop
		if bStop < right {
			right = bStop
		}
		return -(right - left)
	}
}

// Tree is a static interval tree: an implicit balanced binary tree over the
// start-sorted entries, augmented with the maximum Stop of each subtree. It
// answers stabbing and overlap queries in O(log n + k).
type Tree struct {
	entries []Entry
	maxStop []int64 // maxStop[i] = max Stop over the subtree rooted at i
}

// BuildTree builds a tree over the entries. The input slice is sorted in
// place if needed and retained by the tree.
func BuildTree(entries []Entry) *Tree {
	if !Sorted(entries) {
		SortEntries(entries)
	}
	t := &Tree{entries: entries, maxStop: make([]int64, len(entries))}
	t.build(0, len(entries)-1)
	return t
}

// build computes subtree max-stops for the implicit tree rooted at the
// midpoint of [lo, hi].
func (t *Tree) build(lo, hi int) int64 {
	if lo > hi {
		return -1
	}
	mid := lo + (hi-lo)/2
	m := t.entries[mid].Stop
	if l := t.build(lo, mid-1); l > m {
		m = l
	}
	if r := t.build(mid+1, hi); r > m {
		m = r
	}
	t.maxStop[mid] = m
	return m
}

// Len returns the number of entries.
func (t *Tree) Len() int { return len(t.entries) }

// Overlapping calls fn for every entry overlapping [start, stop), in
// canonical order. fn returning false stops the walk early.
func (t *Tree) Overlapping(start, stop int64, fn func(Entry) bool) {
	t.walk(0, len(t.entries)-1, start, stop, fn)
}

func (t *Tree) walk(lo, hi int, start, stop int64, fn func(Entry) bool) bool {
	if lo > hi {
		return true
	}
	mid := lo + (hi-lo)/2
	if t.maxStop[mid] <= start {
		// Nothing in this whole subtree can reach past `start`.
		return true
	}
	if !t.walk(lo, mid-1, start, stop, fn) {
		return false
	}
	e := t.entries[mid]
	if e.Start >= stop {
		// Entries right of mid start even later; only the left side and mid
		// could overlap, and mid does not.
		return true
	}
	if overlaps(e.Start, e.Stop, start, stop) {
		if !fn(e) {
			return false
		}
	}
	return t.walk(mid+1, hi, start, stop, fn)
}

// SweepOverlaps enumerates every overlapping (left, right) pair of two
// canonical-order entry slices with a single merge sweep. emit receives the
// payloads; returning false aborts the sweep. The sweep is
// O(n + m + pairs) and is the default MAP/JOIN kernel on sorted data.
func SweepOverlaps(left, right []Entry, emit func(l, r Entry) bool) {
	// active holds indices into `right` whose intervals may still overlap
	// future left entries; it is pruned lazily.
	var active []int
	ri := 0
	for li := range left {
		l := left[li]
		// Admit every right entry starting before the left entry ends.
		for ri < len(right) && right[ri].Start < l.Stop {
			active = append(active, ri)
			ri++
		}
		// Emit overlaps, compacting away the rights that ended before l.
		w := 0
		for _, idx := range active {
			r := right[idx]
			if r.Stop <= l.Start {
				continue // expired for this and every later left (starts are sorted)
			}
			active[w] = idx
			w++
			if overlaps(l.Start, l.Stop, r.Start, r.Stop) {
				if !emit(l, r) {
					return
				}
			}
		}
		active = active[:w]
	}
}

// Neighbor is one result of Nearest: a position in the searched slice and
// that entry's genometric distance to the query.
type Neighbor struct {
	Index int
	Dist  int64
}

// Nearest returns the k entries of `sorted` nearest to the query interval by
// genometric distance, ordered by (Dist, Index) so that ties go to canonical
// order. The result reuses buf's storage. maxLen must be at least the
// longest entry's Stop-Start; callers compute it once per slice, not once
// per query. The search expands a window around the query's insertion point
// and closes each side once no entry left there can beat the k-th best, so
// for genomic data (short, similarly sized intervals) it examines O(k)
// entries.
func Nearest(buf []Neighbor, sorted []Entry, maxLen, qStart, qStop int64, k int) []Neighbor {
	best := buf[:0]
	n := len(sorted)
	if k <= 0 || n == 0 {
		return best
	}
	if k > n {
		k = n
	}
	// Position of the first entry starting at or after the query start.
	pos := sort.Search(n, func(i int) bool { return sorted[i].Start >= qStart })
	kth := int64(math.MaxInt64) // distance of the k-th best once there are k
	insert := func(idx int, d int64) {
		i := len(best)
		best = append(best, Neighbor{})
		for ; i > 0 && (best[i-1].Dist > d || best[i-1].Dist == d && best[i-1].Index > idx); i-- {
			best[i] = best[i-1]
		}
		best[i] = Neighbor{idx, d}
		if len(best) >= k {
			best = best[:k]
			kth = best[k-1].Dist
		}
	}

	li, ri := pos-1, pos
	for li >= 0 || ri < n {
		// Lower bounds on the distance any remaining entry on each side can
		// achieve. Right side: starts are >= sorted[ri].Start, so distance
		// >= Start - qStop. Left side: stops are <= Start + maxLen, so
		// distance >= qStart - (Start + maxLen).
		leftOpen := li >= 0 && qStart-(sorted[li].Start+maxLen) <= kth
		rightOpen := ri < n && sorted[ri].Start-qStop <= kth
		if !leftOpen && !rightOpen {
			break
		}
		if leftOpen {
			e := sorted[li]
			if d := Distance(qStart, qStop, e.Start, e.Stop); d <= kth {
				insert(li, d)
			}
			li--
		}
		if rightOpen {
			e := sorted[ri]
			if d := Distance(qStart, qStop, e.Start, e.Stop); d <= kth {
				insert(ri, d)
			}
			ri++
		}
	}
	return best
}

// CoverSegment is a maximal genomic segment with constant accumulation depth,
// produced by Coverage. Segments are contiguous where depth > 0.
type CoverSegment struct {
	Start, Stop int64
	Depth       int
}

// Coverage computes the accumulation profile of the entries: the sequence of
// maximal segments with constant overlap depth (depth >= 1 only). This is the
// COVER operator's kernel: COVER(minAcc, maxAcc) keeps segments whose depth
// lies within bounds and coalesces adjacent survivors.
//
// The profile is a merge of two sorted position arrays: the starts, in entry
// order (canonical input is already sorted by Start), and the stops, sorted
// once. Every depth change at one position is applied before the next
// segment opens.
func Coverage(entries []Entry) []CoverSegment {
	if len(entries) == 0 {
		return nil
	}
	n := len(entries)
	pos := make([]int64, 2*n)
	starts, stops := pos[:0:n], pos[n:n]
	for _, e := range entries {
		if e.Stop <= e.Start {
			continue // empty intervals contribute no coverage
		}
		starts = append(starts, e.Start)
		stops = append(stops, e.Stop)
	}
	if len(stops) == 0 {
		return nil
	}
	if !slices.IsSorted(starts) {
		slices.Sort(starts)
	}
	slices.Sort(stops)
	// n intervals have at most 2n distinct endpoints, so 2n-1 segments.
	out := make([]CoverSegment, 0, 2*len(stops)-1)
	depth := 0
	var segStart int64
	// Each stop follows its own start, so the starts run out first.
	for i, j := 0, 0; j < len(stops); {
		pos := stops[j]
		if i < len(starts) && starts[i] < pos {
			pos = starts[i]
		}
		if depth > 0 && segStart < pos {
			// Coalesce with the previous segment when an open and a close at
			// the same position cancelled out, keeping segments maximal.
			if n := len(out); n > 0 && out[n-1].Stop == segStart && out[n-1].Depth == depth {
				out[n-1].Stop = pos
			} else {
				out = append(out, CoverSegment{segStart, pos, depth})
			}
		}
		for ; i < len(starts) && starts[i] == pos; i++ {
			depth++
		}
		for ; j < len(stops) && stops[j] == pos; j++ {
			depth--
		}
		segStart = pos
	}
	return out
}
