package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"genogo/internal/expr"
	"genogo/internal/gdm"
)

// headlineFixture is shaped like the paper's headline MAP: one reference
// sample of promoter-sized regions against nExp experiment samples of short
// peaks, with roughly one overlap for every two (reference region, sample).
func headlineFixture(nExp int) (ref, exp *gdm.Dataset) {
	rng := rand.New(rand.NewSource(18))
	chroms := []string{"chr1", "chr2", "chr3", "chr4", "chr5"}
	sample := func(id string, n int, width int64) *gdm.Sample {
		s := gdm.NewSample(id)
		s.Meta.Add("id", id)
		for i := 0; i < n; i++ {
			start := rng.Int63n(2_000_000)
			s.AddRegion(gdm.NewRegion(chroms[rng.Intn(len(chroms))], start, start+width, gdm.StrandNone),
				gdm.Float(rng.Float64()*10), gdm.Str(fmt.Sprintf("r%d", i)))
		}
		s.SortRegions()
		return s
	}
	ref = gdm.NewDataset("PROMS", peakSchema())
	ref.MustAdd(sample("proms", 2000, 2000))
	exp = gdm.NewDataset("PEAKS", peakSchema())
	for i := 0; i < nExp; i++ {
		exp.MustAdd(sample(fmt.Sprintf("exp%02d", i), 1500, 300))
	}
	return ref, exp
}

// TestMapAllocsPerRegion pins the tentpole: MAP allocates per output sample,
// not per output region. Only MEDIAN and BAG, which must keep every value,
// may pay per row.
func TestMapAllocsPerRegion(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	ref, exp := headlineFixture(20)
	cfg := Config{Mode: ModeSerial, MetaFirst: true}
	regions := float64(len(ref.Samples[0].Regions) * len(exp.Samples))
	for _, c := range []struct {
		agg    expr.Aggregate
		perRow float64
	}{
		{expr.Aggregate{Output: "n", Func: expr.AggCount}, 0},
		{expr.Aggregate{Output: "s", Func: expr.AggSum, Attr: "score"}, 0},
		{expr.Aggregate{Output: "lo", Func: expr.AggMin, Attr: "score"}, 0},
		{expr.Aggregate{Output: "sd", Func: expr.AggStd, Attr: "score"}, 0},
		{expr.Aggregate{Output: "med", Func: expr.AggMedian, Attr: "score"}, 1},
		{expr.Aggregate{Output: "names", Func: expr.AggBag, Attr: "name"}, 1},
	} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Map(cfg, ref, exp, MapArgs{Aggs: []expr.Aggregate{c.agg}}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations, %.4f per output region", c.agg, allocs, allocs/regions)
		if got, limit := allocs/regions, 0.1+c.perRow; got > limit {
			t.Errorf("%s: %.3f allocations per output region (%.0f / %.0f), want <= %.1f",
				c.agg, got, allocs, regions, limit)
		}
	}
}

// TestCoverAllocsPerRegion: every COVER variant allocates per (group,
// chromosome) task, not per output region.
func TestCoverAllocsPerRegion(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	_, exp := headlineFixture(20)
	cfg := Config{Mode: ModeSerial, MetaFirst: true}
	for _, v := range []CoverVariant{CoverStandard, CoverFlat, CoverSummit, CoverHistogram} {
		args := CoverArgs{Min: CoverBound{Kind: BoundN, N: 2}, Max: CoverBound{Kind: BoundAny}, Variant: v}
		out, err := Cover(cfg, exp, args)
		if err != nil {
			t.Fatal(err)
		}
		regions := float64(out.NumRegions())
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Cover(cfg, exp, args); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations, %.0f output regions, %.4f per region", v, allocs, regions, allocs/regions)
		if got := allocs / regions; got > 0.1 {
			t.Errorf("%s: %.3f allocations per output region (%.0f / %.0f), want <= 0.1", v, got, allocs, regions)
		}
	}
}

// TestJoinAllocsPerRegion: JOIN allocates per (pair, chromosome) task, its
// output regions and their Values slab, not per output region.
func TestJoinAllocsPerRegion(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	ref, exp := headlineFixture(20)
	cfg := Config{Mode: ModeSerial, MetaFirst: true}
	for _, out := range []JoinOutput{OutInt, OutLeft, OutRight, OutCat} {
		for name, pred := range map[string]GenometricPred{
			"DLE": {Conds: []DistCond{{Op: DistLE, Dist: 1000}}},
			"MD":  {MinDistK: 2},
		} {
			args := JoinArgs{Pred: pred, Output: out}
			res, err := Join(cfg, ref, exp, args)
			if err != nil {
				t.Fatal(err)
			}
			regions := float64(res.NumRegions())
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := Join(cfg, ref, exp, args); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s %s: %.0f allocations, %.0f output regions, %.4f per region", name, out, allocs, regions, allocs/regions)
			// The worst case, INT at about 0.055, emits the fewest regions
			// for the same per-task work.
			if got := allocs / regions; got > 0.1 {
				t.Errorf("%s %s: %.3f allocations per output region (%.0f / %.0f), want <= 0.1",
					name, out, got, allocs, regions)
			}
		}
	}
}

// TestValuesSlabAppendDoesNotAlias: a sample's values are one slab and
// Sample.Row cuts capacity-limited rows out of it, so a consumer appending to
// row i of an operator's output cannot overwrite row i+1.
func TestValuesSlabAppendDoesNotAlias(t *testing.T) {
	ref, exp := headlineFixture(2)
	// A right operand whose layout differs from the left's, so UNION re-lays it out.
	swapped := gdm.NewDataset("R", gdm.MustSchema(
		gdm.Field{Name: "name", Type: gdm.KindString}, gdm.Field{Name: "score", Type: gdm.KindFloat}))
	sw := gdm.NewSample("swapped")
	for i, r := range exp.Samples[0].Regions[:10] {
		row := exp.Samples[0].Row(i)
		sw.AddRegion(r, row[1], row[0])
	}
	swapped.MustAdd(sw)
	pred := GenometricPred{Conds: []DistCond{{Op: DistLE, Dist: 1000}}}
	outputs := map[string]func() (*gdm.Dataset, error){
		"map":   func() (*gdm.Dataset, error) { return Map(Config{}, ref, exp, MapArgs{}) },
		"join":  func() (*gdm.Dataset, error) { return Join(Config{}, ref, exp, JoinArgs{Pred: pred, Output: OutCat}) },
		"union": func() (*gdm.Dataset, error) { return Union(Config{}, ref, swapped) },
		"cover": func() (*gdm.Dataset, error) {
			return Cover(Config{}, exp, CoverArgs{Min: CoverBound{Kind: BoundAny}, Max: CoverBound{Kind: BoundAny},
				Aggs: []expr.Aggregate{{Output: "n", Func: expr.AggCount}}})
		},
	}
	for _, v := range []CoverVariant{CoverStandard, CoverFlat, CoverSummit, CoverHistogram} {
		outputs[v.String()] = func() (*gdm.Dataset, error) {
			return Cover(Config{}, exp, CoverArgs{Min: CoverBound{Kind: BoundAny}, Max: CoverBound{Kind: BoundAny}, Variant: v})
		}
	}
	for name, run := range outputs {
		out, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := out.Samples[len(out.Samples)-1]
		if len(s.Regions) < 2 {
			t.Fatalf("%s: fixture produced %d regions", name, len(s.Regions))
		}
		want := fmt.Sprint(s.Values)
		for i := range s.Regions {
			grown := append(s.Row(i), gdm.Str("overflow"), gdm.Str("overflow"))
			if len(grown) != out.Schema.Len()+2 {
				t.Fatalf("%s: row %d holds %d values, schema %d", name, i, len(grown)-2, out.Schema.Len())
			}
		}
		if got := fmt.Sprint(s.Values); got != want {
			t.Errorf("%s: appending to rows changed the slab:\n%s\n->\n%s", name, want, got)
		}
	}
}

// TestMapSharesReferenceRegions: MAP changes no coordinate, so every output
// sample holds its reference sample's very Regions slice, in every mode.
func TestMapSharesReferenceRegions(t *testing.T) {
	ref, exp := headlineFixture(3)
	ref.MustAdd(exp.Samples[0]) // a second reference sample, with its own regions
	for _, cfg := range allConfigs() {
		out, err := Map(cfg, ref, exp, MapArgs{})
		if err != nil {
			t.Fatal(err)
		}
		byID := map[string]*gdm.Sample{}
		for _, s := range out.Samples {
			byID[s.ID] = s
		}
		for _, r := range ref.Samples {
			for _, e := range exp.Samples {
				s := byID[gdm.DeriveID("map", r.ID, e.ID)]
				if s == nil {
					t.Fatalf("%s: no output for (%s, %s)", cfg.Mode, r.ID, e.ID)
				}
				if len(s.Regions) != len(r.Regions) || &s.Regions[0] != &r.Regions[0] {
					t.Errorf("%s: output for (%s, %s) copied the reference regions", cfg.Mode, r.ID, e.ID)
				}
			}
		}
		if err := out.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Mode, err)
		}
	}
}

// TestMapBytesPerRegion: on the headline shape MAP allocates an output
// region's row of values (32 B a value) and little else — no copy of the
// region itself.
func TestMapBytesPerRegion(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	ref, exp := headlineFixture(20)
	cfg := Config{Mode: ModeSerial, MetaFirst: true}
	run := func() *gdm.Dataset {
		out, err := Map(cfg, ref, exp, MapArgs{})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	out := run()
	regions := float64(out.NumRegions())
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	perRegion := float64(after.TotalAlloc-before.TotalAlloc) / runs / regions
	limit := float64(out.Schema.Len()*32 + 16)
	t.Logf("%.0f output regions: %.1f B per output region, limit %.0f", regions, perRegion, limit)
	if perRegion > limit {
		t.Errorf("MAP allocates %.1f B per output region, want <= %.0f", perRegion, limit)
	}
}

// TestUnionSharesStorage: with identical layouts UNION is header work — left
// samples and right region storage are the operands' own — and a renamed
// right sample leaves its source untouched.
func TestUnionSharesStorage(t *testing.T) {
	a := mkDataset(t, "A",
		mkSample("same", map[string]string{"side": "a"}, regSpec{"chr1", 0, 1, gdm.StrandNone, 1, "x"}),
		mkSample("onlyA", nil, regSpec{"chr1", 2, 3, gdm.StrandNone, 1, "x"}))
	b := mkDataset(t, "B",
		mkSample("same", map[string]string{"side": "b"}, regSpec{"chr1", 5, 6, gdm.StrandNone, 2, "y"}),
		mkSample("onlyB", nil, regSpec{"chr1", 7, 8, gdm.StrandNone, 2, "y"}))
	for _, cfg := range allConfigs() {
		out, err := Union(cfg, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if out.Samples[0] != a.Samples[0] || out.Samples[1] != a.Samples[1] {
			t.Errorf("%s: left samples were copied", cfg.Mode)
		}
		renamed, kept := out.Samples[2], out.Samples[3]
		if kept != b.Samples[1] {
			t.Errorf("%s: right sample without a collision was copied", cfg.Mode)
		}
		if renamed.ID == "same" || b.Samples[0].ID != "same" {
			t.Errorf("%s: rename: result %q, source %q", cfg.Mode, renamed.ID, b.Samples[0].ID)
		}
		if &renamed.Regions[0] != &b.Samples[0].Regions[0] {
			t.Errorf("%s: renamed right sample's regions were copied", cfg.Mode)
		}
		if err := out.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Mode, err)
		}
	}
}

// TestSumIntExactThroughOperators: MAP and EXTEND add int attributes as ints;
// through float64, 2^53+1 loses its last bit.
func TestSumIntExactThroughOperators(t *testing.T) {
	const big = int64(1)<<53 + 1
	schema := gdm.MustSchema(gdm.Field{Name: "reads", Type: gdm.KindInt}, gdm.Field{Name: "signal", Type: gdm.KindFloat})
	exp := gdm.NewDataset("E", schema)
	s := gdm.NewSample("e")
	s.AddRegion(gdm.NewRegion("chr1", 10, 20, gdm.StrandNone), gdm.Int(big), gdm.Float(0.5))
	s.AddRegion(gdm.NewRegion("chr1", 15, 25, gdm.StrandNone), gdm.Int(1), gdm.Float(2))
	exp.MustAdd(s)
	ref := gdm.NewDataset("R", gdm.MustSchema())
	rs := gdm.NewSample("r")
	rs.AddRegion(gdm.NewRegion("chr1", 0, 100, gdm.StrandNone))
	ref.MustAdd(rs)
	aggs := []expr.Aggregate{
		{Output: "reads", Func: expr.AggSum, Attr: "reads"},
		{Output: "signal", Func: expr.AggSum, Attr: "signal"},
	}
	for _, cfg := range allConfigs() {
		m, err := Map(cfg, ref, exp, MapArgs{Aggs: aggs})
		if err != nil {
			t.Fatal(err)
		}
		got := m.Samples[0].Row(0)
		if got[0].Kind() != gdm.KindInt || got[0].Int() != big+1 {
			t.Errorf("%s: MAP SUM(reads) = %v, want %d", cfg.Mode, got[0], big+1)
		}
		if got[1].Kind() != gdm.KindFloat || got[1].Float() != 2.5 {
			t.Errorf("%s: MAP SUM(signal) = %v, want 2.5", cfg.Mode, got[1])
		}
		e, err := Extend(cfg, exp, aggs)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Samples[0].Meta.First("reads"); got != fmt.Sprint(big+1) {
			t.Errorf("%s: EXTEND SUM(reads) = %s, want %d", cfg.Mode, got, big+1)
		}
		if got := e.Samples[0].Meta.First("signal"); got != "2.5" {
			t.Errorf("%s: EXTEND SUM(signal) = %s, want 2.5", cfg.Mode, got)
		}
	}
}
