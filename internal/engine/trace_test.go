package engine

import (
	"testing"

	"genogo/internal/gdm"
)

func traceCatalog(t *testing.T) MapCatalog {
	t.Helper()
	ds := mkDataset(t, "D",
		mkSample("a", map[string]string{"cell": "HeLa"},
			regSpec{"chr1", 0, 100, gdm.StrandNone, 1, "r1"},
			regSpec{"chr1", 200, 300, gdm.StrandNone, 2, "r2"}),
		mkSample("b", map[string]string{"cell": "K562"},
			regSpec{"chr1", 50, 150, gdm.StrandNone, 3, "r3"}),
	)
	return MapCatalog{"D": ds}
}

func TestMetricsEffectiveWorkers(t *testing.T) {
	cases := []struct {
		cfg  Config
		n    int
		want int
	}{
		{Config{Mode: ModeSerial, Workers: 8}, 100, 1},
		{Config{Mode: ModeBatch, Workers: 8}, 100, 8},
		{Config{Mode: ModeBatch, Workers: 8}, 3, 3},
		{Config{Mode: ModeBatch, Workers: 8}, 1, 1},
		{Config{Mode: ModeBatch, Workers: 8}, 0, 1},
		{Config{Mode: ModeStream, Workers: 2}, 5, 2},
		{Config{Mode: ModeStream, Workers: 1}, 5, 1},
	}
	for _, c := range cases {
		if got := c.cfg.effectiveWorkers(c.n); got != c.want {
			t.Errorf("effectiveWorkers(mode=%s w=%d, n=%d) = %d, want %d",
				c.cfg.Mode, c.cfg.Workers, c.n, got, c.want)
		}
	}
}

// TestMetricsSpanCacheHit shares one subtree between the two sides of a UNION:
// the second evaluation must come from the session cache and say so in its
// span, and the cache-hit counter must move.
func TestMetricsSpanCacheHit(t *testing.T) {
	shared := &SelectOp{Input: &Scan{Dataset: "D"}}
	plan := &UnionOp{Left: shared, Right: shared}
	for _, cfg := range allConfigs() {
		s := NewSession(cfg, traceCatalog(t))
		ds, root, err := s.EvalProfiled(plan)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Mode, err)
		}
		if len(root.Children) != 2 {
			t.Fatalf("%s: root children = %d, want 2", cfg.Mode, len(root.Children))
		}
		if root.RegionsOut != ds.NumRegions() {
			t.Errorf("%s: root regions_out = %d, dataset has %d", cfg.Mode, root.RegionsOut, ds.NumRegions())
		}
		// Sequential backends see the shared subtree's second evaluation hit
		// the cache. (The stream backend runs both sides concurrently, so
		// whether the race ends in a hit is timing-dependent — not asserted.)
		if cfg.Mode != ModeStream {
			hits := 0
			for _, c := range root.Children {
				if c.CacheHit {
					hits++
				}
			}
			if hits != 1 {
				t.Errorf("%s: cached children = %d, want exactly 1", cfg.Mode, hits)
			}
			l, r := root.Children[0], root.Children[1]
			if l.SamplesOut != r.SamplesOut || l.RegionsOut != r.RegionsOut {
				t.Errorf("%s: children disagree: %ds/%dr vs %ds/%dr",
					cfg.Mode, l.SamplesOut, l.RegionsOut, r.SamplesOut, r.RegionsOut)
			}
		}
		// Re-evaluating on the same session hits the cache at the root, for
		// every backend.
		before := metricCacheHits.Value()
		ds2, root2, err := s.EvalProfiled(plan)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Mode, err)
		}
		if !root2.CacheHit {
			t.Errorf("%s: second evaluation's root not marked cached", cfg.Mode)
		}
		if metricCacheHits.Value() == before {
			t.Errorf("%s: cache-hit counter did not move", cfg.Mode)
		}
		if root2.RegionsOut != ds2.NumRegions() {
			t.Errorf("%s: cached root regions_out = %d, dataset has %d",
				cfg.Mode, root2.RegionsOut, ds2.NumRegions())
		}
	}
}

// TestMetricsSpanFusion checks that a fused chain profiles as one span
// carrying its member list, with the chain's source as its only child.
func TestMetricsSpanFusion(t *testing.T) {
	plan := &SelectOp{Input: &SelectOp{Input: &Scan{Dataset: "D"}}}
	cfg := Config{Mode: ModeStream, Workers: 2, MetaFirst: true}
	s := NewSession(cfg, traceCatalog(t))
	_, root, err := s.EvalProfiled(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Fused) != 2 || root.Fused[0] != "SELECT" || root.Fused[1] != "SELECT" {
		t.Errorf("fused = %v, want [SELECT SELECT]", root.Fused)
	}
	if len(root.Children) != 1 || root.Children[0].Op != "SCAN" {
		t.Fatalf("children = %+v, want one SCAN", root.Children)
	}
	// Batch never fuses: same plan yields nested SELECT spans instead.
	cfg.Mode = ModeBatch
	s = NewSession(cfg, traceCatalog(t))
	_, root, err = s.EvalProfiled(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Fused) != 0 {
		t.Errorf("fused = %v with fusion disabled", root.Fused)
	}
	if len(root.Children) != 1 || root.Children[0].Op != "SELECT" {
		t.Fatalf("unfused children = %+v, want nested SELECT", root.Children)
	}
}

// TestMetricsEngineCounters checks the query counter moves per Eval, labeled
// by backend mode (deltas, not absolutes: the registry is process-global).
func TestMetricsEngineCounters(t *testing.T) {
	plan := &SelectOp{Input: &Scan{Dataset: "D"}}
	for _, cfg := range allConfigs() {
		c := metricQueries.With(cfg.Mode.String())
		before := c.Value()
		if _, err := NewSession(cfg, traceCatalog(t)).Eval(plan); err != nil {
			t.Fatal(err)
		}
		if _, _, err := NewSession(cfg, traceCatalog(t)).EvalProfiled(plan); err != nil {
			t.Fatal(err)
		}
		if got := c.Value() - before; got != 2 {
			t.Errorf("mode %s: queries delta = %d, want 2", cfg.Mode, got)
		}
	}
}
