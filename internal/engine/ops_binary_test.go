package engine

import (
	"testing"

	"genogo/internal/expr"
	"genogo/internal/gdm"
)

func TestUnionBasics(t *testing.T) {
	left := mkDataset(t, "L",
		mkSample("l1", map[string]string{"src": "left"}, regSpec{"chr1", 0, 10, gdm.StrandNone, 1, "a"}))
	rightSchema := gdm.MustSchema(
		gdm.Field{Name: "name", Type: gdm.KindString}, // different order
		gdm.Field{Name: "extra", Type: gdm.KindInt},
		gdm.Field{Name: "score", Type: gdm.KindFloat},
	)
	right := gdm.NewDataset("R", rightSchema)
	rs := gdm.NewSample("r1")
	rs.Meta.Add("src", "right")
	rs.AddRegion(gdm.NewRegion("chr2", 5, 9, gdm.StrandPlus), gdm.Str("b"), gdm.Int(7), gdm.Float(2))
	right.MustAdd(rs)

	for _, cfg := range allConfigs() {
		out, err := Union(cfg, left, right)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Samples) != 2 {
			t.Fatalf("%s: samples = %d", cfg.Mode, len(out.Samples))
		}
		if !out.Schema.Equal(left.Schema) {
			t.Fatalf("%s: schema = %s", cfg.Mode, out.Schema)
		}
		// Right sample re-laid-out by name: score=2, name="b".
		var r *gdm.Sample
		for _, s := range out.Samples {
			if s.Meta.Matches("src", "right") {
				r = s
			}
		}
		if r == nil {
			t.Fatal("right sample missing")
		}
		if r.Row(0)[0].Float() != 2 || r.Row(0)[1].Str() != "b" {
			t.Errorf("%s: right values = %v", cfg.Mode, r.Row(0))
		}
		if err := out.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Mode, err)
		}
	}
}

func TestUnionIDCollision(t *testing.T) {
	a := mkDataset(t, "A", mkSample("same", nil, regSpec{"chr1", 0, 1, gdm.StrandNone, 1, "x"}))
	b := mkDataset(t, "B", mkSample("same", nil, regSpec{"chr1", 5, 6, gdm.StrandNone, 2, "y"}))
	out, err := Union(Config{}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Samples[0].ID == out.Samples[1].ID {
		t.Error("colliding IDs not re-derived")
	}
	if err := out.Validate(); err != nil {
		t.Error(err)
	}
	// A third "same" collides with the original and with its first rename.
	out, err = Union(Config{}, out, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Errorf("three-way collision: %v", err)
	}
}

func TestDifferenceOverlap(t *testing.T) {
	left := mkDataset(t, "L", mkSample("l", nil,
		regSpec{"chr1", 0, 100, gdm.StrandNone, 1, "keepNot"},
		regSpec{"chr1", 200, 300, gdm.StrandNone, 1, "keep"},
		regSpec{"chr2", 0, 50, gdm.StrandNone, 1, "keep2"},
	))
	right := mkDataset(t, "R", mkSample("r", nil,
		regSpec{"chr1", 50, 150, gdm.StrandNone, 1, "neg"},
		regSpec{"chr2", 100, 200, gdm.StrandNone, 1, "neg2"},
	))
	for _, cfg := range allConfigs() {
		out, err := Difference(cfg, left, right, DifferenceArgs{})
		if err != nil {
			t.Fatal(err)
		}
		s := out.Samples[0]
		if s.ID != "l" {
			t.Errorf("%s: ID = %q", cfg.Mode, s.ID)
		}
		if len(s.Regions) != 2 {
			t.Fatalf("%s: regions = %v", cfg.Mode, s.Regions)
		}
		if s.Row(0)[1].Str() != "keep" || s.Row(1)[1].Str() != "keep2" {
			t.Errorf("%s: wrong survivors: %v", cfg.Mode, s.Regions)
		}
	}
}

func TestDifferenceExact(t *testing.T) {
	left := mkDataset(t, "L", mkSample("l", nil,
		regSpec{"chr1", 0, 100, gdm.StrandNone, 1, "exact"},
		regSpec{"chr1", 0, 101, gdm.StrandNone, 1, "near"},
	))
	right := mkDataset(t, "R", mkSample("r", nil,
		regSpec{"chr1", 0, 100, gdm.StrandNone, 9, "neg"},
	))
	out, err := Difference(Config{}, left, right, DifferenceArgs{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Samples[0].Regions) != 1 || out.Samples[0].Row(0)[1].Str() != "near" {
		t.Errorf("exact difference = %v", out.Samples[0].Regions)
	}
}

func TestDifferenceStrandAware(t *testing.T) {
	left := mkDataset(t, "L", mkSample("l", nil,
		regSpec{"chr1", 0, 100, gdm.StrandPlus, 1, "plus"},
	))
	right := mkDataset(t, "R", mkSample("r", nil,
		regSpec{"chr1", 0, 100, gdm.StrandMinus, 1, "minus"},
	))
	out, err := Difference(Config{}, left, right, DifferenceArgs{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Samples[0].Regions) != 1 {
		t.Error("opposite-strand region was removed")
	}
}

func TestDifferenceJoinBy(t *testing.T) {
	left := mkDataset(t, "L",
		mkSample("l1", map[string]string{"cell": "HeLa"}, regSpec{"chr1", 0, 10, gdm.StrandNone, 1, "x"}),
		mkSample("l2", map[string]string{"cell": "K562"}, regSpec{"chr1", 0, 10, gdm.StrandNone, 1, "y"}),
	)
	right := mkDataset(t, "R",
		mkSample("r1", map[string]string{"cell": "HeLa"}, regSpec{"chr1", 5, 15, gdm.StrandNone, 1, "n"}),
	)
	out, err := Difference(Config{}, left, right, DifferenceArgs{JoinBy: []string{"cell"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Sample("l1").Regions) != 0 {
		t.Error("HeLa region should have been removed")
	}
	if len(out.Sample("l2").Regions) != 1 {
		t.Error("K562 region should have survived (no matching negative)")
	}
}

func TestMapCount(t *testing.T) {
	ref := mkDataset(t, "PROMS", mkSample("p", nil,
		regSpec{"chr1", 0, 100, gdm.StrandNone, 0, "prom1"},
		regSpec{"chr1", 500, 600, gdm.StrandNone, 0, "prom2"},
		regSpec{"chr2", 0, 100, gdm.StrandNone, 0, "prom3"},
	))
	exp := mkDataset(t, "PEAKS",
		mkSample("e1", map[string]string{"cell": "HeLa"},
			regSpec{"chr1", 10, 20, gdm.StrandNone, 1, "pk1"},
			regSpec{"chr1", 50, 120, gdm.StrandNone, 2, "pk2"},
			regSpec{"chr1", 550, 560, gdm.StrandNone, 3, "pk3"},
			regSpec{"chr3", 0, 10, gdm.StrandNone, 4, "pk4"},
		),
		mkSample("e2", map[string]string{"cell": "K562"},
			regSpec{"chr2", 50, 150, gdm.StrandNone, 5, "pk5"},
		),
	)
	for _, cfg := range allConfigs() {
		out, err := Map(cfg, ref, exp, MapArgs{Aggs: countAgg()})
		if err != nil {
			t.Fatal(err)
		}
		// One output sample per (ref, exp) pair.
		if len(out.Samples) != 2 {
			t.Fatalf("%s: samples = %d", cfg.Mode, len(out.Samples))
		}
		// MAP cardinality law: every output sample has all ref regions.
		for _, s := range out.Samples {
			if len(s.Regions) != 3 {
				t.Fatalf("%s: output regions = %d, want 3", cfg.Mode, len(s.Regions))
			}
		}
		// Schema: ref schema + count.
		ci, ok := out.Schema.Index("count")
		if !ok || out.Schema.Field(ci).Type != gdm.KindInt {
			t.Fatalf("%s: schema = %s", cfg.Mode, out.Schema)
		}
		// Locate the e1 output sample via provenance metadata.
		var s1, s2 *gdm.Sample
		for _, s := range out.Samples {
			if s.Meta.Matches("right.cell", "HeLa") {
				s1 = s
			}
			if s.Meta.Matches("right.cell", "K562") {
				s2 = s
			}
		}
		if s1 == nil || s2 == nil {
			t.Fatalf("%s: provenance metadata missing", cfg.Mode)
		}
		wantS1 := []int64{2, 1, 0} // prom1 gets pk1+pk2, prom2 gets pk3, prom3 none
		for i, w := range wantS1 {
			if got := s1.Row(i)[ci].Int(); got != w {
				t.Errorf("%s: s1 region %d count = %d, want %d", cfg.Mode, i, got, w)
			}
		}
		wantS2 := []int64{0, 0, 1}
		for i, w := range wantS2 {
			if got := s2.Row(i)[ci].Int(); got != w {
				t.Errorf("%s: s2 region %d count = %d, want %d", cfg.Mode, i, got, w)
			}
		}
	}
}

func TestMapAggregates(t *testing.T) {
	ref := mkDataset(t, "R", mkSample("p", nil,
		regSpec{"chr1", 0, 100, gdm.StrandNone, 0, "win"},
	))
	exp := mkDataset(t, "E", mkSample("e", nil,
		regSpec{"chr1", 10, 20, gdm.StrandNone, 2, "a"},
		regSpec{"chr1", 30, 40, gdm.StrandNone, 4, "b"},
		regSpec{"chr1", 200, 210, gdm.StrandNone, 100, "far"},
	))
	out, err := Map(Config{}, ref, exp, MapArgs{Aggs: []expr.Aggregate{
		{Output: "n", Func: expr.AggCount},
		{Output: "avg_score", Func: expr.AggAvg, Attr: "score"},
		{Output: "max_score", Func: expr.AggMax, Attr: "score"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r := out.Samples[0].Row(0)
	ni, _ := out.Schema.Index("n")
	ai, _ := out.Schema.Index("avg_score")
	mi, _ := out.Schema.Index("max_score")
	if r[ni].Int() != 2 || r[ai].Float() != 3 || r[mi].Float() != 4 {
		t.Errorf("aggs = %v", r)
	}
}

func TestMapStrandCompatibility(t *testing.T) {
	ref := mkDataset(t, "R", mkSample("p", nil,
		regSpec{"chr1", 0, 100, gdm.StrandPlus, 0, "w"},
	))
	exp := mkDataset(t, "E", mkSample("e", nil,
		regSpec{"chr1", 10, 20, gdm.StrandMinus, 1, "m"},
		regSpec{"chr1", 30, 40, gdm.StrandPlus, 1, "p"},
		regSpec{"chr1", 50, 60, gdm.StrandNone, 1, "n"},
	))
	out, err := Map(Config{}, ref, exp, MapArgs{Aggs: countAgg()})
	if err != nil {
		t.Fatal(err)
	}
	ci, _ := out.Schema.Index("count")
	if got := out.Samples[0].Row(0)[ci].Int(); got != 2 {
		t.Errorf("count = %d, want 2 (minus-strand peak excluded)", got)
	}
}

func TestMapJoinBy(t *testing.T) {
	ref := mkDataset(t, "R",
		mkSample("r1", map[string]string{"cell": "HeLa"}, regSpec{"chr1", 0, 10, gdm.StrandNone, 0, "w"}),
	)
	exp := mkDataset(t, "E",
		mkSample("e1", map[string]string{"cell": "HeLa"}, regSpec{"chr1", 0, 5, gdm.StrandNone, 1, "a"}),
		mkSample("e2", map[string]string{"cell": "K562"}, regSpec{"chr1", 0, 5, gdm.StrandNone, 1, "b"}),
	)
	out, err := Map(Config{}, ref, exp, MapArgs{Aggs: countAgg(), JoinBy: []string{"cell"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Samples) != 1 {
		t.Fatalf("pairs = %d, want 1 (joinby cell)", len(out.Samples))
	}
}

func TestMapUnknownAttr(t *testing.T) {
	ref := mkDataset(t, "R", mkSample("r", nil))
	exp := mkDataset(t, "E", mkSample("e", nil))
	_, err := Map(Config{}, ref, exp, MapArgs{Aggs: []expr.Aggregate{
		{Output: "x", Func: expr.AggSum, Attr: "zzz"},
	}})
	if err == nil {
		t.Error("unknown attribute accepted")
	}
}
