package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"genogo/internal/gdm"
	"genogo/internal/intervals"
)

func joinFixture(t *testing.T) (*gdm.Dataset, *gdm.Dataset) {
	left := mkDataset(t, "GENES", mkSample("g", nil,
		regSpec{"chr1", 1000, 2000, gdm.StrandPlus, 0, "gene1"},
		regSpec{"chr1", 9000, 9500, gdm.StrandMinus, 0, "gene2"},
	))
	right := mkDataset(t, "ENH", mkSample("e", nil,
		regSpec{"chr1", 100, 200, gdm.StrandNone, 1, "e1"},     // 800 upstream of gene1
		regSpec{"chr1", 1500, 1600, gdm.StrandNone, 2, "e2"},   // overlaps gene1
		regSpec{"chr1", 2500, 2600, gdm.StrandNone, 3, "e3"},   // 500 downstream of gene1
		regSpec{"chr1", 9600, 9700, gdm.StrandNone, 4, "e4"},   // 100 from gene2 (upstream wrt -)
		regSpec{"chr1", 50000, 50100, gdm.StrandNone, 5, "e5"}, // far away
	))
	return left, right
}

func joinedNames(t *testing.T, out *gdm.Dataset) map[string][]string {
	t.Helper()
	li, ok := out.Schema.Index("name")
	if !ok {
		t.Fatalf("schema %s has no left name", out.Schema)
	}
	ri, ok := out.Schema.Index("right.name")
	if !ok {
		t.Fatalf("schema %s has no right name", out.Schema)
	}
	got := map[string][]string{}
	for _, s := range out.Samples {
		for i := range s.Regions {
			l := s.Row(i)[li].Str()
			got[l] = append(got[l], s.Row(i)[ri].Str())
		}
	}
	return got
}

func TestJoinDLE(t *testing.T) {
	left, right := joinFixture(t)
	for _, cfg := range allConfigs() {
		out, err := Join(cfg, left, right, JoinArgs{
			Pred:   GenometricPred{Conds: []DistCond{{Op: DistLE, Dist: 600}}},
			Output: OutLeft,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := joinedNames(t, out)
		want := map[string][]string{
			"gene1": {"e2", "e3"}, // e1 at 800 excluded, e2 overlap, e3 at 500
			"gene2": {"e4"},
		}
		for g, ws := range want {
			if len(got[g]) != len(ws) {
				t.Fatalf("%s: %s partners = %v, want %v", cfg.Mode, g, got[g], ws)
			}
			seen := map[string]bool{}
			for _, n := range got[g] {
				seen[n] = true
			}
			for _, w := range ws {
				if !seen[w] {
					t.Errorf("%s: %s missing partner %s", cfg.Mode, g, w)
				}
			}
		}
	}
}

func TestJoinDGEAndDLE(t *testing.T) {
	left, right := joinFixture(t)
	out, err := Join(Config{}, left, right, JoinArgs{
		Pred: GenometricPred{Conds: []DistCond{
			{Op: DistGE, Dist: 1}, {Op: DistLE, Dist: 600},
		}},
		Output: OutLeft,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := joinedNames(t, out)
	// Overlapping e2 (negative distance) now excluded.
	if len(got["gene1"]) != 1 || got["gene1"][0] != "e3" {
		t.Errorf("gene1 partners = %v", got["gene1"])
	}
}

func TestJoinMD(t *testing.T) {
	left, right := joinFixture(t)
	out, err := Join(Config{}, left, right, JoinArgs{
		Pred:   GenometricPred{MinDistK: 1},
		Output: OutLeft,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := joinedNames(t, out)
	if len(got["gene1"]) != 1 || got["gene1"][0] != "e2" {
		t.Errorf("gene1 nearest = %v", got["gene1"])
	}
	if len(got["gene2"]) != 1 || got["gene2"][0] != "e4" {
		t.Errorf("gene2 nearest = %v", got["gene2"])
	}
}

func TestJoinMDWithDistanceFilter(t *testing.T) {
	left, right := joinFixture(t)
	// Nearest to gene1 is the overlapping e2; requiring DGE(1) filters it
	// out, and MD(1) does NOT fall back to the second nearest.
	out, err := Join(Config{}, left, right, JoinArgs{
		Pred:   GenometricPred{MinDistK: 1, Conds: []DistCond{{Op: DistGE, Dist: 1}}},
		Output: OutLeft,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := joinedNames(t, out)
	if len(got["gene1"]) != 0 {
		t.Errorf("gene1 = %v, want none", got["gene1"])
	}
	if len(got["gene2"]) != 1 {
		t.Errorf("gene2 = %v", got["gene2"])
	}
}

func TestJoinStreamDirections(t *testing.T) {
	left, right := joinFixture(t)
	up, err := Join(Config{}, left, right, JoinArgs{
		Pred:   GenometricPred{Conds: []DistCond{{Op: DistLE, Dist: 1000}}, Stream: StreamUp},
		Output: OutLeft,
	})
	if err != nil {
		t.Fatal(err)
	}
	gotUp := joinedNames(t, up)
	// gene1 is +: upstream = before start. e1 (800 away) qualifies.
	if len(gotUp["gene1"]) != 1 || gotUp["gene1"][0] != "e1" {
		t.Errorf("gene1 upstream = %v", gotUp["gene1"])
	}
	// gene2 is -: upstream = after stop. e4 qualifies.
	if len(gotUp["gene2"]) != 1 || gotUp["gene2"][0] != "e4" {
		t.Errorf("gene2 upstream = %v", gotUp["gene2"])
	}
	down, err := Join(Config{}, left, right, JoinArgs{
		Pred:   GenometricPred{Conds: []DistCond{{Op: DistLE, Dist: 1000}}, Stream: StreamDown},
		Output: OutLeft,
	})
	if err != nil {
		t.Fatal(err)
	}
	gotDown := joinedNames(t, down)
	if len(gotDown["gene1"]) != 1 || gotDown["gene1"][0] != "e3" {
		t.Errorf("gene1 downstream = %v", gotDown["gene1"])
	}
	if len(gotDown["gene2"]) != 0 {
		t.Errorf("gene2 downstream = %v", gotDown["gene2"])
	}
}

func TestJoinOutputModes(t *testing.T) {
	left := mkDataset(t, "L", mkSample("l", nil,
		regSpec{"chr1", 100, 200, gdm.StrandPlus, 1, "a"}))
	right := mkDataset(t, "R", mkSample("r", nil,
		regSpec{"chr1", 150, 250, gdm.StrandNone, 2, "b"}))
	cases := []struct {
		mode        JoinOutput
		start, stop int64
	}{
		{OutInt, 150, 200},
		{OutLeft, 100, 200},
		{OutRight, 150, 250},
		{OutCat, 100, 250},
	}
	for _, c := range cases {
		out, err := Join(Config{}, left, right, JoinArgs{
			Pred:   GenometricPred{Conds: []DistCond{{Op: DistLE, Dist: 0}}},
			Output: c.mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Samples[0].Regions) != 1 {
			t.Fatalf("%s: regions = %d", c.mode, len(out.Samples[0].Regions))
		}
		r := out.Samples[0].Regions[0]
		if r.Start != c.start || r.Stop != c.stop {
			t.Errorf("%s: [%d,%d), want [%d,%d)", c.mode, r.Start, r.Stop, c.start, c.stop)
		}
		// Merged schema carries both operands' values.
		if len(out.Samples[0].Row(0)) != 4 {
			t.Errorf("%s: values = %v", c.mode, out.Samples[0].Row(0))
		}
	}
}

func TestJoinIntOnlyEmitsOverlaps(t *testing.T) {
	left := mkDataset(t, "L", mkSample("l", nil, regSpec{"chr1", 0, 100, gdm.StrandNone, 1, "a"}))
	right := mkDataset(t, "R", mkSample("r", nil, regSpec{"chr1", 200, 300, gdm.StrandNone, 2, "b"}))
	out, err := Join(Config{}, left, right, JoinArgs{
		Pred:   GenometricPred{Conds: []DistCond{{Op: DistLE, Dist: 1000}}},
		Output: OutInt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Samples[0].Regions) != 0 {
		t.Errorf("INT emitted non-overlapping pair: %v", out.Samples[0].Regions)
	}
}

// TestJoinAgainstBruteForce checks the windowed join kernel against an O(n*m)
// reference on random data, for every backend.
func TestJoinAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	left := randomDataset(rng, "L", 2, 60)
	right := randomDataset(rng, "R", 2, 60)
	pred := GenometricPred{Conds: []DistCond{{Op: DistLE, Dist: 500}, {Op: DistGE, Dist: 0}}}

	type pairKey struct {
		l, r string
	}
	want := map[pairKey]int{}
	for _, ls := range left.Samples {
		for _, rs := range right.Samples {
			for li := range ls.Regions {
				for ri := range rs.Regions {
					lr, rr := &ls.Regions[li], &rs.Regions[ri]
					if lr.Chrom != rr.Chrom {
						continue
					}
					d := intervals.Distance(lr.Start, lr.Stop, rr.Start, rr.Stop)
					if pred.holds(d) {
						want[pairKey{ls.ID, rs.ID}]++
					}
				}
			}
		}
	}
	for _, cfg := range allConfigs() {
		out, err := Join(cfg, left, right, JoinArgs{Pred: pred, Output: OutCat})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, s := range out.Samples {
			total += len(s.Regions)
		}
		wantTotal := 0
		for _, n := range want {
			wantTotal += n
		}
		if total != wantTotal {
			t.Errorf("%s: %d joined regions, brute force says %d", cfg.Mode, total, wantTotal)
		}
	}
}

func coverFixture(t *testing.T) *gdm.Dataset {
	return mkDataset(t, "REPS",
		mkSample("r1", map[string]string{"antibody": "CTCF"},
			regSpec{"chr1", 0, 100, gdm.StrandNone, 1, "a"},
			regSpec{"chr1", 200, 300, gdm.StrandNone, 1, "b"},
		),
		mkSample("r2", map[string]string{"antibody": "CTCF"},
			regSpec{"chr1", 50, 150, gdm.StrandNone, 1, "c"},
			regSpec{"chr1", 210, 260, gdm.StrandNone, 1, "d"},
		),
		mkSample("r3", map[string]string{"antibody": "CTCF"},
			regSpec{"chr1", 60, 90, gdm.StrandNone, 1, "e"},
		),
	)
}

func TestCoverStandard(t *testing.T) {
	ds := coverFixture(t)
	for _, cfg := range allConfigs() {
		out, err := Cover(cfg, ds, CoverArgs{
			Min: CoverBound{Kind: BoundN, N: 2}, Max: CoverBound{Kind: BoundAny},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Samples) != 1 {
			t.Fatalf("%s: samples = %d", cfg.Mode, len(out.Samples))
		}
		s := out.Samples[0]
		// Depth >= 2 on chr1: [50,100) (depths 2,3,2 merge) and [210,260).
		if len(s.Regions) != 2 {
			t.Fatalf("%s: regions = %v", cfg.Mode, s.Regions)
		}
		r0, r1 := s.Regions[0], s.Regions[1]
		if r0.Start != 50 || r0.Stop != 100 || s.Row(0)[0].Int() != 3 {
			t.Errorf("%s: r0 = %v", cfg.Mode, r0)
		}
		if r1.Start != 210 || r1.Stop != 260 || s.Row(1)[0].Int() != 2 {
			t.Errorf("%s: r1 = %v", cfg.Mode, r1)
		}
	}
}

func TestCoverAllAndAnyBounds(t *testing.T) {
	ds := coverFixture(t)
	all, err := Cover(Config{}, ds, CoverArgs{
		Min: CoverBound{Kind: BoundAll}, Max: CoverBound{Kind: BoundAll},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Depth == 3 only in [60,90).
	s := all.Samples[0]
	if len(s.Regions) != 1 || s.Regions[0].Start != 60 || s.Regions[0].Stop != 90 {
		t.Fatalf("ALL cover = %v", s.Regions)
	}
	anyv, err := Cover(Config{}, ds, CoverArgs{
		Min: CoverBound{Kind: BoundAny}, Max: CoverBound{Kind: BoundAny},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Depth >= 1: [0,150) and [200,300).
	s = anyv.Samples[0]
	if len(s.Regions) != 2 || s.Regions[0].Stop != 150 || s.Regions[1].Start != 200 {
		t.Fatalf("ANY cover = %v", s.Regions)
	}
}

func TestCoverHistogram(t *testing.T) {
	ds := coverFixture(t)
	out, err := Cover(Config{}, ds, CoverArgs{
		Min: CoverBound{Kind: BoundAny}, Max: CoverBound{Kind: BoundAny},
		Variant: CoverHistogram,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := out.Samples[0]
	// Segments: [0,50)@1 [50,60)@2 [60,90)@3 [90,100)@2 [100,150)@1
	//           [200,210)@1 [210,260)@2 [260,300)@1
	if len(s.Regions) != 8 {
		t.Fatalf("histogram = %v", s.Regions)
	}
	wantDepths := []int64{1, 2, 3, 2, 1, 1, 2, 1}
	for i, w := range wantDepths {
		if got := s.Row(i)[0].Int(); got != w {
			t.Errorf("segment %d depth = %d, want %d", i, got, w)
		}
	}
	// Histogram conservation: sum depth*len == total input length.
	var got, want int64
	for i, r := range s.Regions {
		got += r.Length() * s.Row(i)[0].Int()
	}
	for _, smp := range ds.Samples {
		for _, r := range smp.Regions {
			want += r.Length()
		}
	}
	if got != want {
		t.Errorf("conservation: %d vs %d", got, want)
	}
}

func TestCoverSummit(t *testing.T) {
	ds := coverFixture(t)
	out, err := Cover(Config{}, ds, CoverArgs{
		Min: CoverBound{Kind: BoundAny}, Max: CoverBound{Kind: BoundAny},
		Variant: CoverSummit,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := out.Samples[0]
	// Summits: [60,90)@3 (peak of first run) and [210,260)@2 (peak of second).
	if len(s.Regions) != 2 {
		t.Fatalf("summits = %v", s.Regions)
	}
	if s.Regions[0].Start != 60 || s.Regions[0].Stop != 90 || s.Row(0)[0].Int() != 3 {
		t.Errorf("summit 0 = %v", s.Regions[0])
	}
	if s.Regions[1].Start != 210 || s.Regions[1].Stop != 260 || s.Row(1)[0].Int() != 2 {
		t.Errorf("summit 1 = %v", s.Regions[1])
	}
}

func TestCoverFlat(t *testing.T) {
	ds := coverFixture(t)
	out, err := Cover(Config{}, ds, CoverArgs{
		Min: CoverBound{Kind: BoundN, N: 2}, Max: CoverBound{Kind: BoundAny},
		Variant: CoverFlat,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := out.Samples[0]
	// Qualifying run [50,100) extends to the extent of contributing regions
	// a [0,100) and c [50,150) and e [60,90): [0,150).
	if len(s.Regions) != 2 {
		t.Fatalf("flat = %v", s.Regions)
	}
	if s.Regions[0].Start != 0 || s.Regions[0].Stop != 150 {
		t.Errorf("flat 0 = %v", s.Regions[0])
	}
	// Run [210,260) extends to b [200,300) and d [210,260): [200,300).
	if s.Regions[1].Start != 200 || s.Regions[1].Stop != 300 {
		t.Errorf("flat 1 = %v", s.Regions[1])
	}
}

func TestCoverGroupBy(t *testing.T) {
	ds := mkDataset(t, "D",
		mkSample("a1", map[string]string{"antibody": "CTCF"}, regSpec{"chr1", 0, 100, gdm.StrandNone, 1, "x"}),
		mkSample("a2", map[string]string{"antibody": "CTCF"}, regSpec{"chr1", 50, 150, gdm.StrandNone, 1, "y"}),
		mkSample("b1", map[string]string{"antibody": "POL2"}, regSpec{"chr1", 60, 70, gdm.StrandNone, 1, "z"}),
	)
	out, err := Cover(Config{}, ds, CoverArgs{
		Min: CoverBound{Kind: BoundN, N: 2}, Max: CoverBound{Kind: BoundAny},
		GroupBy: []string{"antibody"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Samples) != 2 {
		t.Fatalf("groups = %d", len(out.Samples))
	}
	var ctcf, pol2 *gdm.Sample
	for _, s := range out.Samples {
		if s.Meta.Matches("antibody", "CTCF") {
			ctcf = s
		} else {
			pol2 = s
		}
	}
	if len(ctcf.Regions) != 1 || ctcf.Regions[0].Start != 50 || ctcf.Regions[0].Stop != 100 {
		t.Errorf("CTCF cover = %v", ctcf.Regions)
	}
	if len(pol2.Regions) != 0 {
		t.Errorf("POL2 cover (single sample, min 2) = %v", pol2.Regions)
	}
}

// TestCoverOutputsNeverOverlap is the COVER invariant from DESIGN.md.
func TestCoverOutputsNeverOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds := randomDataset(rng, "D", 5, 100)
	for _, variant := range []CoverVariant{CoverStandard, CoverFlat, CoverHistogram} {
		out, err := Cover(Config{}, ds, CoverArgs{
			Min: CoverBound{Kind: BoundN, N: 2}, Max: CoverBound{Kind: BoundAny},
			Variant: variant,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range out.Samples {
			if !s.RegionsSorted() {
				t.Fatalf("%s: output unsorted", variant)
			}
			for i := 1; i < len(s.Regions); i++ {
				a, b := s.Regions[i-1], s.Regions[i]
				if variant != CoverFlat && a.Chrom == b.Chrom && b.Start < a.Stop {
					t.Fatalf("%s: overlapping outputs %v, %v", variant, a, b)
				}
				if v := s.Row(i)[0].Int(); v < 2 && variant != CoverFlat {
					t.Fatalf("%s: depth %d below min", variant, v)
				}
			}
		}
	}
}

// TestJoinTaskSortMatchesGlobalSort: each JOIN task sorts its own output, and
// the result must equal a stable canonical sort of all pairs' regions in
// emission order (anchor chromosome, anchor, experiment region), as if the
// whole sample were sorted at once. The fixture packs regions into a small
// span with few distinct widths and random strands, so many output regions
// tie and only their Values tell them apart.
func TestJoinTaskSortMatchesGlobalSort(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	mk := func(name string) *gdm.Dataset {
		ds := gdm.NewDataset(name, peakSchema())
		for si := 0; si < 2; si++ {
			s := gdm.NewSample(fmt.Sprintf("%s%d", name, si))
			for i := 0; i < 80; i++ {
				start := rng.Int63n(60) * 10
				s.AddRegion(gdm.NewRegion([]string{"chr1", "chr2", "chr10", "chrX"}[rng.Intn(4)],
					start, start+10*(1+rng.Int63n(3)), gdm.Strand(rng.Intn(3)-1)),
					gdm.Float(float64(i)), gdm.Str(fmt.Sprintf("%s%d.%d", name, si, i)))
			}
			s.SortRegions()
			ds.MustAdd(s)
		}
		return ds
	}
	left, right := mk("L"), mk("R")
	preds := map[string]GenometricPred{
		"DLE":    {Conds: []DistCond{{Op: DistLE, Dist: 30}}},
		"MD":     {MinDistK: 3},
		"DGE+UP": {Conds: []DistCond{{Op: DistGE, Dist: 0}, {Op: DistLE, Dist: 200}}, Stream: StreamUp},
	}
	for pname, pred := range preds {
		for _, mode := range []JoinOutput{OutInt, OutLeft, OutRight, OutCat} {
			args := JoinArgs{Pred: pred, Output: mode}
			for _, cfg := range allConfigs() {
				out, err := Join(cfg, left, right, args)
				if err != nil {
					t.Fatal(err)
				}
				byID := map[string]*gdm.Sample{}
				for _, ns := range out.Samples {
					byID[ns.ID] = ns
				}
				for _, l := range left.Samples {
					for _, r := range right.Samples {
						want := joinUnsorted(l, r, args)
						want.SortRegions()
						got := byID[gdm.DeriveID("join", l.ID, r.ID)]
						if len(want.Regions) != len(got.Regions) {
							t.Fatalf("%s %s %s: %d regions, reference %d", pname, mode, cfg.Mode, len(got.Regions), len(want.Regions))
						}
						for i := range want.Regions {
							g := fmt.Sprint(got.Regions[i], got.Row(i))
							if w := fmt.Sprint(want.Regions[i], want.Row(i)); g != w {
								t.Fatalf("%s %s %s: region %d = %s, reference %s", pname, mode, cfg.Mode, i, g, w)
							}
						}
					}
				}
			}
		}
	}
}

// joinUnsorted is the JOIN of one sample pair by brute force, in emission
// order and before any sorting.
func joinUnsorted(l, r *gdm.Sample, args JoinArgs) *gdm.Sample {
	out := &gdm.Sample{}
	for li := range l.Regions {
		anchor := &l.Regions[li]
		var near map[int]bool
		if args.Pred.MinDistK > 0 {
			near = bruteNearest(anchor, r, args.Pred.MinDistK)
		}
		for ri := range r.Regions {
			er := &r.Regions[ri]
			if er.Chrom != anchor.Chrom || near != nil && !near[ri] {
				continue
			}
			d := intervals.Distance(anchor.Start, anchor.Stop, er.Start, er.Stop)
			if !args.Pred.holds(d) || args.Stream(anchor, er) || !args.Output.emits(anchor, er) {
				continue
			}
			out.AddRegion(joinOutputRegion(args.Output, anchor, er), append(l.Row(li), r.Row(ri)...)...)
		}
	}
	return out
}

// bruteNearest returns the indexes of the k regions of r nearest to the
// anchor on its chromosome, ties going to the lower index.
func bruteNearest(anchor *gdm.Region, r *gdm.Sample, k int) map[int]bool {
	var idx []int
	for i := range r.Regions {
		if r.Regions[i].Chrom == anchor.Chrom {
			idx = append(idx, i)
		}
	}
	dist := func(i int) int64 {
		return intervals.Distance(anchor.Start, anchor.Stop, r.Regions[i].Start, r.Regions[i].Stop)
	}
	sort.SliceStable(idx, func(a, b int) bool { return dist(idx[a]) < dist(idx[b]) })
	near := map[int]bool{}
	for _, i := range idx[:min(k, len(idx))] {
		near[i] = true
	}
	return near
}

// TestFlatExtentsMatchesScan: FLAT's one-sweep extension equals extending
// each run by a scan of every entry, on profiles dense in abutting,
// nested, duplicate and zero-length intervals.
func TestFlatExtentsMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 500; trial++ {
		entries := make([]intervals.Entry, rng.Intn(60))
		for i := range entries {
			start := rng.Int63n(40) * 5
			entries[i] = intervals.Entry{Start: start, Stop: start + rng.Int63n(8)*5, Payload: int32(i)}
		}
		intervals.SortEntries(entries)
		minAcc := int64(1 + rng.Intn(3))
		runs := coverSegments(intervals.Coverage(entries), entries, minAcc, math.MaxInt64, CoverStandard)
		want := append([]intervals.CoverSegment(nil), runs...)
		for i := range want {
			for _, e := range entries {
				if e.Start < runs[i].Stop && runs[i].Start < e.Stop {
					want[i].Start = min(want[i].Start, e.Start)
					want[i].Stop = max(want[i].Stop, e.Stop)
				}
			}
		}
		flatExtents(runs, entries)
		for i := range want {
			if runs[i] != want[i] {
				t.Fatalf("trial %d run %d: swept %v, scan %v (entries %v)", trial, i, runs[i], want[i], entries)
			}
		}
	}
}
