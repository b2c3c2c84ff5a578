package federation

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"genogo/internal/catalog"
	"genogo/internal/engine"
	"genogo/internal/expr"
	"genogo/internal/formats"
	"genogo/internal/gdm"
	"genogo/internal/obs"
	"genogo/internal/synth"
)

// computedStats is an estimator statistics source over in-memory datasets:
// each block is one catalog.Compute of the dataset.
func computedStats(dss ...*gdm.Dataset) func(string) (*catalog.DatasetStats, bool) {
	blocks := make(map[string]*catalog.DatasetStats, len(dss))
	for _, ds := range dss {
		blocks[ds.Name] = catalog.Compute(ds)
	}
	return func(name string) (*catalog.DatasetStats, bool) {
		st, ok := blocks[name]
		return st, ok
	}
}

// zoneDataset builds a dataset whose regions split unevenly across two
// chromosomes, so a zone-aware estimate is distinguishable from the flat
// selectivity constant.
func zoneDataset(t *testing.T, name string) *gdm.Dataset {
	t.Helper()
	schema := gdm.MustSchema(gdm.Field{Name: "score", Type: gdm.KindFloat})
	ds := gdm.NewDataset(name, schema)
	s := gdm.NewSample("s1")
	s.Meta.Add("cell", "HeLa")
	// 9 regions on chr1, 1 on chr2.
	for i := int64(0); i < 9; i++ {
		s.AddRegion(gdm.NewRegion("chr1", i*1000, i*1000+500, gdm.StrandNone), gdm.Float(1))
	}
	s.AddRegion(gdm.NewRegion("chr2", 0, 500, gdm.StrandNone), gdm.Float(1))
	s.SortRegions()
	ds.MustAdd(s)
	return ds
}

// TestEstimateZoneAwareSelect: a chromosome-restricted SELECT estimates from
// the zone map (regions actually on that chromosome), not the flat 30%
// constant.
func TestEstimateZoneAwareSelect(t *testing.T) {
	stats := computedStats(zoneDataset(t, "Z"))
	chr2 := expr.Cmp{Op: expr.CmpEq, Left: expr.Attr{Name: "chrom"}, Right: expr.Const{Value: gdm.Str("chr2")}}
	est := EstimatePlan(&engine.SelectOp{Input: &engine.Scan{Dataset: "Z"}, Region: chr2}, stats)
	if est.Regions != 1 {
		t.Errorf("zone-aware estimate = %d regions, want 1 (chr2's share)", est.Regions)
	}
	// A predicate the zone map cannot analyze falls back to the flat
	// constant.
	score := expr.Cmp{Op: expr.CmpGt, Left: expr.Attr{Name: "score"}, Right: expr.Const{Value: gdm.Float(0)}}
	est = EstimatePlan(&engine.SelectOp{Input: &engine.Scan{Dataset: "Z"}, Region: score}, stats)
	if est.Regions != 3 {
		t.Errorf("flat estimate = %d regions, want 3 (30%% of 10)", est.Regions)
	}
}

// TestEstimateZoneAwareJoin: a JOIN whose sides share no chromosome
// estimates (close to) zero emitted regions via the chromosome-coupling
// factor.
func TestEstimateZoneAwareJoin(t *testing.T) {
	schema := gdm.MustSchema(gdm.Field{Name: "score", Type: gdm.KindFloat})
	mk := func(name, chrom string) *gdm.Dataset {
		ds := gdm.NewDataset(name, schema)
		s := gdm.NewSample("s")
		for i := int64(0); i < 5; i++ {
			s.AddRegion(gdm.NewRegion(chrom, i*100, i*100+50, gdm.StrandNone), gdm.Float(1))
		}
		s.SortRegions()
		ds.MustAdd(s)
		return ds
	}
	stats := computedStats(mk("L", "chr1"), mk("R", "chr7"))
	join := &engine.JoinOp{Left: &engine.Scan{Dataset: "L"}, Right: &engine.Scan{Dataset: "R"}}
	est := EstimatePlan(join, stats)
	// SharedChromFraction is 0; scaleInt floors a nonzero input at 1.
	if est.Regions > 1 {
		t.Errorf("disjoint-chromosome join estimate = %d regions, want <= 1", est.Regions)
	}
}

// TestEstimateStatsMemoized: the node catalog computes a registered
// dataset's statistics once and serves the same block until the name is
// re-registered.
func TestEstimateStatsMemoized(t *testing.T) {
	srv := NewServer("n", engine.Config{Mode: engine.ModeSerial}, zoneDataset(t, "Z"))
	before := formats.LazyScans()
	st1, ok := srv.cat.Stats("Z")
	if !ok || len(st1.Samples) != 1 {
		t.Fatalf("no stats for Z: %+v", st1)
	}
	if st2, _ := srv.cat.Stats("Z"); st2 != st1 || formats.LazyScans() != before+1 {
		t.Errorf("second lookup recomputed statistics (%d scans)", formats.LazyScans()-before)
	}
	// Re-registration drops the cached block.
	srv.AddDataset(zoneDataset(t, "Z"))
	if st3, ok := srv.cat.Stats("Z"); !ok || st3 == st1 {
		t.Error("re-registration served the stale statistics")
	}
}

// TestEstimateAccuracyFeed: a finished federated execution files its
// (predicted, actual) sample into the estimate registry, visible on
// /debug/estimates.
func TestEstimateAccuracyFeed(t *testing.T) {
	g := synth.New(7)
	srv := NewServer("node", engine.Config{Mode: engine.ModeSerial},
		g.Encode(synth.EncodeOptions{Samples: 6, MeanPeaks: 12}),
		g.Annotations(g.Genes(30)))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := NewClient(ts.URL)
	qr, err := c.Execute(context.Background(), fedScript, "RESULT")
	if err != nil || !qr.OK {
		t.Fatalf("execute: %v %+v", err, qr)
	}

	resp, err := http.Get(ts.URL + "/debug/estimates")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep obs.EstimateReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Queries == 0 {
		t.Fatal("estimate registry saw no queries")
	}
	found := false
	for _, o := range rep.Recent {
		if o.Query == qr.QueryID {
			found = true
			if o.Actual[obs.EstDimRegions] != int64(qr.Regions) {
				t.Errorf("actual regions = %d, response said %d",
					o.Actual[obs.EstDimRegions], qr.Regions)
			}
			if _, ok := o.Predicted[obs.EstDimRegions]; !ok {
				t.Error("observation lacks a predicted region count")
			}
		}
	}
	if !found {
		t.Fatalf("query %s not in recent estimate observations", qr.QueryID)
	}
}

// TestEstimateNodeRepoConsole: the node catalog is served on /debug/repo
// with the registered datasets, and the debug index lists it.
func TestEstimateNodeRepoConsole(t *testing.T) {
	srv := NewServer("node", engine.Config{Mode: engine.ModeSerial}, zoneDataset(t, "ZREPO"))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/repo?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Datasets []struct {
			Name    string `json:"name"`
			Source  string `json:"source"`
			Regions int    `json:"regions"`
		} `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range listing.Datasets {
		if d.Name == "ZREPO" {
			found = true
			if d.Source != formats.SourceMemory || d.Regions != 10 {
				t.Errorf("ZREPO row = %+v", d)
			}
		}
	}
	if !found {
		t.Fatalf("ZREPO missing from /debug/repo: %+v", listing)
	}
}
