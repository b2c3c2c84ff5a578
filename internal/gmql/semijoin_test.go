package gmql

import (
	"strings"
	"testing"

	"genogo/internal/engine"
)

func TestSemiJoinSelectsMatchingSamples(t *testing.T) {
	// Keep ENCODE samples whose cell matches some RnaSeq sample's cell.
	src := `
RNA = SELECT(dataType == 'RnaSeq') ENCODE;
SAME_CELL = SELECT(dataType == 'ChipSeq'; semijoin: cell IN RNA) ENCODE;
MATERIALIZE SAME_CELL;
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cat := testCatalog(t) // rna1 is HeLa; chip1 is HeLa, chip2 is K562
	for _, mode := range []engine.Mode{engine.ModeSerial, engine.ModeBatch, engine.ModeStream} {
		r := &Runner{Config: engine.Config{Mode: mode, Workers: 2, MetaFirst: true}, Catalog: cat}
		results, err := r.Materialize(prog)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		ds := results[0].Dataset
		if len(ds.Samples) != 1 || ds.Samples[0].ID != "chip1" {
			t.Errorf("%s: samples = %v", mode, ds.Samples)
		}
	}
}

func TestSemiJoinNegated(t *testing.T) {
	src := `
RNA = SELECT(dataType == 'RnaSeq') ENCODE;
OTHER_CELL = SELECT(dataType == 'ChipSeq'; semijoin: cell NOT IN RNA) ENCODE;
MATERIALIZE OTHER_CELL;
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(testCatalog(t))
	results, err := r.Materialize(prog)
	if err != nil {
		t.Fatal(err)
	}
	ds := results[0].Dataset
	if len(ds.Samples) != 1 || ds.Samples[0].ID != "chip2" {
		t.Errorf("samples = %v", ds.Samples)
	}
}

func TestSemiJoinExplain(t *testing.T) {
	prog, err := Parse(`X = SELECT(; semijoin: cell, dataType IN ANNOTATIONS) ENCODE;`)
	if err != nil {
		t.Fatal(err)
	}
	text := engine.Explain(prog.Plan("X"))
	for _, frag := range []string{"semijoin", "cell,dataType", "IN", "SCAN ANNOTATIONS"} {
		if !strings.Contains(text, frag) {
			t.Errorf("explain missing %q:\n%s", frag, text)
		}
	}
}

func TestSemiJoinParseErrors(t *testing.T) {
	cases := []string{
		`X = SELECT(; semijoin: ) ENCODE;`,
		`X = SELECT(; semijoin: cell) ENCODE;`,
		`X = SELECT(; semijoin: cell IN) ENCODE;`,
		`X = SELECT(; semijoin: cell NOT ANNOTATIONS) ENCODE;`,
		`X = SELECT(; semijoin: cell BETWIXT ANNOTATIONS) ENCODE;`,
		`X = SELECT(; semijoin: cell IN ANNOTATIONS extra) ENCODE;`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestSemiJoinOptimizerKeepsSemantics(t *testing.T) {
	src := `
RNA = SELECT(dataType == 'RnaSeq') ENCODE;
A = SELECT(; semijoin: cell IN RNA) ENCODE;
B = SELECT(dataType == 'ChipSeq') A;
MATERIALIZE B;
`
	parse := func() *Program {
		p, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cat := testCatalog(t)
	opt := NewRunner(cat)
	plain := NewRunner(cat)
	plain.DisableOptimizer = true
	r1, err := opt.Materialize(parse())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := plain.Materialize(parse())
	if err != nil {
		t.Fatal(err)
	}
	a, b := r1[0].Dataset, r2[0].Dataset
	if len(a.Samples) != len(b.Samples) || a.NumRegions() != b.NumRegions() {
		t.Errorf("optimizer changed semijoin semantics: %s vs %s", a, b)
	}
	if len(a.Samples) != 1 || a.Samples[0].ID != "chip1" {
		t.Errorf("samples = %v", a.Samples)
	}
}

func TestOrderRegionClausesFromScript(t *testing.T) {
	src := `X = ORDER(cell ASC; region_order: signal DESC; region_top: 1) ENCODE; MATERIALIZE X;`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(testCatalog(t))
	results, err := r.Materialize(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range results[0].Dataset.Samples {
		if len(s.Regions) > 1 {
			t.Errorf("sample %s kept %d regions, want <= 1", s.ID, len(s.Regions))
		}
	}
	// chip1's strongest signal is its third region (signal 11 at 5150).
	for _, s := range results[0].Dataset.Samples {
		if s.ID == "chip1" && len(s.Regions) == 1 {
			si, _ := results[0].Dataset.Schema.Index("signal")
			if s.Row(0)[si].Float() != 11 {
				t.Errorf("chip1 kept signal %v, want 11", s.Row(0)[si])
			}
		}
	}
	// Parse errors.
	for _, bad := range []string{
		`X = ORDER(region_top: 1) A;`,
		`X = ORDER(region_order: a; region_top: x) A;`,
		`X = ORDER() A;`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestCoverAggregateClauseFromScript(t *testing.T) {
	src := `C = COVER(1, ANY; aggregate: n AS COUNT, avg AS AVG(signal)) ENCODE; MATERIALIZE C;`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(testCatalog(t))
	results, err := r.Materialize(prog)
	if err != nil {
		t.Fatal(err)
	}
	ds := results[0].Dataset
	for _, want := range []string{"acc_index", "n", "avg"} {
		if _, ok := ds.Schema.Index(want); !ok {
			t.Errorf("schema missing %q: %s", want, ds.Schema)
		}
	}
	if _, err := Parse(`C = COVER(1, ANY; aggregate: broken) X;`); err == nil {
		t.Error("bad aggregate clause accepted")
	}
}

func TestGroupRegionAggregateFromScript(t *testing.T) {
	src := `G = GROUP(cell; ns AS COUNTSAMP; region_aggregate: n AS COUNT) ENCODE; MATERIALIZE G;`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(testCatalog(t))
	results, err := r.Materialize(prog)
	if err != nil {
		t.Fatal(err)
	}
	ds := results[0].Dataset
	if ds.Schema.Len() != 1 || ds.Schema.Field(0).Name != "n" {
		t.Errorf("schema = %s", ds.Schema)
	}
	for _, s := range ds.Samples {
		if !s.Meta.Has("ns") || !s.Meta.Has("_group") {
			t.Errorf("sample %s meta = %v", s.ID, s.Meta.Pairs())
		}
	}
	if _, err := Parse(`G = GROUP(a; b AS COUNT; region_aggregate: bad; extra: 1) X;`); err == nil {
		t.Error("bad GROUP clauses accepted")
	}
}
