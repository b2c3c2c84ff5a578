package engine

import (
	"testing"

	"genogo/internal/expr"
	"genogo/internal/gdm"
)

func twoSampleDataset(t *testing.T) *gdm.Dataset {
	return mkDataset(t, "PEAKS",
		mkSample("s1", map[string]string{"cell": "HeLa", "dataType": "ChipSeq"},
			regSpec{"chr1", 100, 200, gdm.StrandPlus, 5, "a"},
			regSpec{"chr1", 300, 400, gdm.StrandMinus, 1, "b"},
			regSpec{"chr2", 50, 80, gdm.StrandNone, 9, "c"},
		),
		mkSample("s2", map[string]string{"cell": "K562", "dataType": "RnaSeq"},
			regSpec{"chr1", 150, 250, gdm.StrandNone, 3, "d"},
		),
	)
}

func TestSelectMetaOnly(t *testing.T) {
	ds := twoSampleDataset(t)
	for _, cfg := range allConfigs() {
		out, err := Select(cfg, ds, expr.MetaCmp{Attr: "cell", Op: expr.CmpEq, Value: "hela"}, nil)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Mode, err)
		}
		if len(out.Samples) != 1 || out.Samples[0].ID != "s1" {
			t.Fatalf("%s: samples = %v", cfg.Mode, out.Samples)
		}
		if len(out.Samples[0].Regions) != 3 {
			t.Errorf("%s: regions filtered without predicate", cfg.Mode)
		}
	}
}

func TestSelectRegionPredicate(t *testing.T) {
	ds := twoSampleDataset(t)
	pred := expr.Cmp{Op: expr.CmpGe, Left: expr.Attr{Name: "score"}, Right: expr.Const{Value: gdm.Float(4)}}
	for _, cfg := range allConfigs() {
		out, err := Select(cfg, ds, nil, pred)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Samples) != 2 {
			t.Fatalf("%s: samples = %d", cfg.Mode, len(out.Samples))
		}
		if len(out.Samples[0].Regions) != 2 { // scores 5 and 9
			t.Errorf("%s: s1 regions = %d", cfg.Mode, len(out.Samples[0].Regions))
		}
		if len(out.Samples[1].Regions) != 0 {
			t.Errorf("%s: s2 regions = %d", cfg.Mode, len(out.Samples[1].Regions))
		}
	}
}

func TestSelectFixedAttributePredicate(t *testing.T) {
	ds := twoSampleDataset(t)
	pred := expr.Cmp{Op: expr.CmpEq, Left: expr.Attr{Name: "chr"}, Right: expr.Const{Value: gdm.Str("chr2")}}
	out, err := Select(Config{}, ds, nil, pred)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Samples[0].Regions) != 1 || out.Samples[0].Regions[0].Chrom != "chr2" {
		t.Errorf("regions = %v", out.Samples[0].Regions)
	}
}

func TestSelectDoesNotMutateInput(t *testing.T) {
	ds := twoSampleDataset(t)
	before := ds.NumRegions()
	out, err := Select(Config{}, ds, nil,
		expr.Cmp{Op: expr.CmpGt, Left: expr.Attr{Name: "score"}, Right: expr.Const{Value: gdm.Float(100)}})
	if err != nil {
		t.Fatal(err)
	}
	out.Samples[0].Meta.Add("mutation", "yes")
	if ds.NumRegions() != before || ds.Samples[0].Meta.Has("mutation") {
		t.Error("Select mutated its input")
	}
}

func TestSelectBindError(t *testing.T) {
	ds := twoSampleDataset(t)
	if _, err := Select(Config{}, ds, nil, expr.Attr{Name: "missing"}); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestProjectKeepSubset(t *testing.T) {
	ds := twoSampleDataset(t)
	out, err := Project(Config{}, ds, ProjectArgs{
		Regions:  []ProjectItem{{Name: "score"}},
		MetaKeep: []string{"cell"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.Len() != 1 || out.Schema.Field(0).Name != "score" {
		t.Fatalf("schema = %s", out.Schema)
	}
	if out.Samples[0].Row(0)[0].Float() != 5 {
		t.Errorf("value = %v", out.Samples[0].Row(0))
	}
	if out.Samples[0].Meta.Has("dataType") || !out.Samples[0].Meta.Has("cell") {
		t.Error("metadata projection wrong")
	}
}

func TestProjectComputedAttribute(t *testing.T) {
	ds := twoSampleDataset(t)
	out, err := Project(Config{}, ds, ProjectArgs{
		Regions: []ProjectItem{
			{Name: "score"},
			{Name: "length", Expr: expr.Arith{Op: expr.OpSub,
				Left: expr.Attr{Name: "right"}, Right: expr.Attr{Name: "left"}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.Field(1) != (gdm.Field{Name: "length", Type: gdm.KindFloat}) {
		t.Fatalf("schema = %s", out.Schema)
	}
	if got := out.Samples[0].Row(0)[1].Float(); got != 100 {
		t.Errorf("length = %v", got)
	}
	if err := out.Validate(); err != nil {
		t.Errorf("invalid output: %v", err)
	}
}

func TestProjectErrors(t *testing.T) {
	ds := twoSampleDataset(t)
	if _, err := Project(Config{}, ds, ProjectArgs{Regions: []ProjectItem{{Name: "zzz"}}}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := Project(Config{}, ds, ProjectArgs{Regions: []ProjectItem{
		{Name: "a"}, {Name: "a"},
	}}); err == nil {
		t.Error("duplicate output accepted")
	}
}

func TestExtend(t *testing.T) {
	ds := twoSampleDataset(t)
	out, err := Extend(Config{}, ds, []expr.Aggregate{
		{Output: "region_count", Func: expr.AggCount},
		{Output: "max_score", Func: expr.AggMax, Attr: "score"},
		{Output: "avg_score", Func: expr.AggAvg, Attr: "score"},
	})
	if err != nil {
		t.Fatal(err)
	}
	s1 := out.Sample("s1")
	if s1.Meta.First("region_count") != "3" {
		t.Errorf("region_count = %q", s1.Meta.First("region_count"))
	}
	if s1.Meta.First("max_score") != "9" {
		t.Errorf("max_score = %q", s1.Meta.First("max_score"))
	}
	if s1.Meta.First("avg_score") != "5" {
		t.Errorf("avg_score = %q", s1.Meta.First("avg_score"))
	}
	if _, err := Extend(Config{}, ds, []expr.Aggregate{{Output: "x", Func: expr.AggSum, Attr: "zzz"}}); err == nil {
		t.Error("unknown aggregate attribute accepted")
	}
}

func TestMergeAll(t *testing.T) {
	ds := twoSampleDataset(t)
	out, err := Merge(Config{}, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Samples) != 1 {
		t.Fatalf("samples = %d", len(out.Samples))
	}
	m := out.Samples[0]
	if len(m.Regions) != 4 {
		t.Errorf("regions = %d", len(m.Regions))
	}
	if !m.RegionsSorted() {
		t.Error("merged regions unsorted")
	}
	if !m.Meta.Matches("cell", "HeLa") || !m.Meta.Matches("cell", "K562") {
		t.Error("metadata union missing values")
	}
}

func TestMergeGrouped(t *testing.T) {
	ds := mkDataset(t, "D",
		mkSample("a1", map[string]string{"antibody": "CTCF"}, regSpec{"chr1", 0, 10, gdm.StrandNone, 1, "x"}),
		mkSample("a2", map[string]string{"antibody": "CTCF"}, regSpec{"chr1", 5, 15, gdm.StrandNone, 1, "y"}),
		mkSample("b1", map[string]string{"antibody": "POL2"}, regSpec{"chr2", 0, 5, gdm.StrandNone, 1, "z"}),
	)
	out, err := Merge(Config{}, ds, []string{"antibody"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Samples) != 2 {
		t.Fatalf("groups = %d", len(out.Samples))
	}
	var ctcf *gdm.Sample
	for _, s := range out.Samples {
		if s.Meta.Matches("antibody", "CTCF") {
			ctcf = s
		}
	}
	if ctcf == nil || len(ctcf.Regions) != 2 {
		t.Fatalf("CTCF group = %v", ctcf)
	}
}

// TestMergeCoverOrderInsensitive: group-collapsing operators hash their
// members' IDs into the output sample ID and concatenate their regions and
// metadata. All of that must be independent of the catalog's sample order —
// a disk catalog lists samples in filename order ("s10" < "s2"), an
// in-memory one in insertion order, and the two must produce identical
// results (the storage-format axis of the differential oracle reads both
// ways).
func TestMergeCoverOrderInsensitive(t *testing.T) {
	mk := func(reversed bool) *gdm.Dataset {
		// Same coordinates in both samples so merged tie order is visible.
		samples := []*gdm.Sample{
			mkSample("s2", map[string]string{"k": "a"}, regSpec{"chr1", 0, 10, gdm.StrandNone, 1, "x"}),
			mkSample("s10", map[string]string{"k": "b"}, regSpec{"chr1", 0, 10, gdm.StrandNone, 2, "y"}),
		}
		if reversed {
			samples[0], samples[1] = samples[1], samples[0]
		}
		return mkDataset(t, "D", samples...)
	}
	fwd, err := Merge(Config{}, mk(false), nil)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := Merge(Config{}, mk(true), nil)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEquivalent(t, "merge", fwd, rev)
	if fwd.Samples[0].ID != rev.Samples[0].ID {
		t.Errorf("merge ID depends on sample order: %q != %q", fwd.Samples[0].ID, rev.Samples[0].ID)
	}

	coverArgs := CoverArgs{Min: CoverBound{Kind: BoundN, N: 1}, Max: CoverBound{Kind: BoundAny}}
	cfwd, err := Cover(Config{}, mk(false), coverArgs)
	if err != nil {
		t.Fatal(err)
	}
	crev, err := Cover(Config{}, mk(true), coverArgs)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEquivalent(t, "cover", cfwd, crev)
	if cfwd.Samples[0].ID != crev.Samples[0].ID {
		t.Errorf("cover ID depends on sample order: %q != %q", cfwd.Samples[0].ID, crev.Samples[0].ID)
	}
}

func TestGroup(t *testing.T) {
	ds := mkDataset(t, "D",
		mkSample("a1", map[string]string{"cell": "HeLa", "q": "2"}),
		mkSample("a2", map[string]string{"cell": "HeLa", "q": "4"}),
		mkSample("b1", map[string]string{"cell": "K562", "q": "10"}),
	)
	out, err := Group(Config{}, ds, GroupArgs{
		By: []string{"cell"},
		MetaAggs: []expr.Aggregate{
			{Output: "n_samples", Func: expr.AggCountSamp},
			{Output: "avg_q", Func: expr.AggAvg, Attr: "q"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Samples) != 3 {
		t.Fatalf("samples = %d", len(out.Samples))
	}
	byID := map[string]*gdm.Sample{}
	for _, s := range out.Samples {
		byID[s.ID] = s
	}
	if byID["a1"].Meta.First("_group") != byID["a2"].Meta.First("_group") {
		t.Error("same-cell samples in different groups")
	}
	if byID["a1"].Meta.First("_group") == byID["b1"].Meta.First("_group") {
		t.Error("different-cell samples share a group")
	}
	if byID["a1"].Meta.First("n_samples") != "2" || byID["b1"].Meta.First("n_samples") != "1" {
		t.Errorf("n_samples = %q,%q", byID["a1"].Meta.First("n_samples"), byID["b1"].Meta.First("n_samples"))
	}
	if byID["a2"].Meta.First("avg_q") != "3" {
		t.Errorf("avg_q = %q", byID["a2"].Meta.First("avg_q"))
	}
}

func TestOrder(t *testing.T) {
	ds := mkDataset(t, "D",
		mkSample("x", map[string]string{"p": "0.5"}),
		mkSample("y", map[string]string{"p": "0.01"}),
		mkSample("z", map[string]string{"p": "0.2"}),
	)
	out, err := Order(Config{}, ds, OrderArgs{
		Keys: []OrderKey{{Attr: "p"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	gotIDs := []string{out.Samples[0].ID, out.Samples[1].ID, out.Samples[2].ID}
	if gotIDs[0] != "y" || gotIDs[1] != "z" || gotIDs[2] != "x" {
		t.Errorf("order = %v", gotIDs)
	}
	if out.Samples[0].Meta.First("_order") != "1" || out.Samples[2].Meta.First("_order") != "3" {
		t.Error("_order ranks wrong")
	}
	top, err := Order(Config{}, ds, OrderArgs{
		Keys: []OrderKey{{Attr: "p", Desc: true}}, Top: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Samples) != 1 || top.Samples[0].ID != "x" {
		t.Errorf("top = %v", top.Samples)
	}
	if _, err := Order(Config{}, ds, OrderArgs{}); err == nil {
		t.Error("no keys accepted")
	}
}

func TestOrderMissingAndNonNumeric(t *testing.T) {
	ds := mkDataset(t, "D",
		mkSample("a", map[string]string{"tag": "beta"}),
		mkSample("b", map[string]string{}),
		mkSample("c", map[string]string{"tag": "alpha"}),
	)
	out, err := Order(Config{}, ds, OrderArgs{Keys: []OrderKey{{Attr: "tag"}}})
	if err != nil {
		t.Fatal(err)
	}
	// Missing sorts first, then lexicographic.
	if out.Samples[0].ID != "b" || out.Samples[1].ID != "c" || out.Samples[2].ID != "a" {
		t.Errorf("order = %s,%s,%s", out.Samples[0].ID, out.Samples[1].ID, out.Samples[2].ID)
	}
}

func TestCompareMetaValues(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"1", "2", -1}, {"10", "9", 1}, {"2", "2", 0},
		{"", "x", -1}, {"x", "", 1}, {"", "", 0},
		{"abc", "abd", -1}, {"0.5", "0.05", 1},
		{"1e2", "99", 1},
	}
	for _, c := range cases {
		if got := compareMetaValues(c.a, c.b); (got < 0) != (c.want < 0) || (got > 0) != (c.want > 0) {
			t.Errorf("compareMetaValues(%q,%q) = %d, want sign %d", c.a, c.b, got, c.want)
		}
	}
}
