package intervals

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchEntries(n int, span int64) []Entry {
	rng := rand.New(rand.NewSource(int64(n)))
	es := make([]Entry, n)
	for i := range es {
		start := rng.Int63n(span)
		es[i] = Entry{Start: start, Stop: start + 100 + rng.Int63n(900), Payload: int32(i)}
	}
	SortEntries(es)
	return es
}

func BenchmarkBuildTree(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := benchEntries(n, int64(n)*50)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				es := make([]Entry, len(src))
				copy(es, src)
				BuildTree(es)
			}
		})
	}
}

// BenchmarkOverlapSweepVsTree is the micro-level sweep-vs-tree ablation:
// enumerate all overlapping pairs of two sorted sets either with one merge
// sweep or with per-query tree probes.
func BenchmarkOverlapSweepVsTree(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		left := benchEntries(n, int64(n)*50)
		right := benchEntries(n, int64(n)*50)
		b.Run(fmt.Sprintf("sweep/n=%d", n), func(b *testing.B) {
			count := 0
			for i := 0; i < b.N; i++ {
				count = 0
				SweepOverlaps(left, right, func(l, r Entry) bool { count++; return true })
			}
			b.ReportMetric(float64(count), "pairs")
		})
		b.Run(fmt.Sprintf("tree/n=%d", n), func(b *testing.B) {
			es := make([]Entry, len(right))
			copy(es, right)
			tree := BuildTree(es)
			count := 0
			for i := 0; i < b.N; i++ {
				count = 0
				for _, l := range left {
					tree.Overlapping(l.Start, l.Stop, func(Entry) bool { count++; return true })
				}
			}
			b.ReportMetric(float64(count), "pairs")
		})
	}
}

func BenchmarkCoverage(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			es := benchEntries(n, int64(n)*20)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Coverage(es)
			}
		})
	}
}

func BenchmarkNearest(b *testing.B) {
	es := benchEntries(100000, 5000000)
	rng := rand.New(rand.NewSource(9))
	ml := maxLen(es)
	var buf []Neighbor
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := rng.Int63n(5000000)
		buf = Nearest(buf, es, ml, q, q+500, 3)
	}
}
