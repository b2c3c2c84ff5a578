package gmql

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"genogo/internal/engine"
	"genogo/internal/gdm"
)

// testCatalog builds the in-memory catalog used throughout the tests: a
// small ANNOTATIONS dataset and a small ENCODE dataset mirroring the
// paper's Section 2 setting.
func testCatalog(t *testing.T) engine.MapCatalog {
	t.Helper()
	annSchema := gdm.MustSchema(gdm.Field{Name: "name", Type: gdm.KindString})
	ann := gdm.NewDataset("ANNOTATIONS", annSchema)
	proms := gdm.NewSample("proms")
	proms.Meta.Add("annType", "promoter")
	proms.AddRegion(gdm.NewRegion("chr1", 0, 1000, gdm.StrandNone), gdm.Str("P1"))
	proms.AddRegion(gdm.NewRegion("chr1", 5000, 6000, gdm.StrandNone), gdm.Str("P2"))
	proms.SortRegions()
	ann.MustAdd(proms)
	genes := gdm.NewSample("genes")
	genes.Meta.Add("annType", "gene")
	genes.AddRegion(gdm.NewRegion("chr1", 100, 9000, gdm.StrandPlus), gdm.Str("G1"))
	ann.MustAdd(genes)

	encSchema := gdm.MustSchema(
		gdm.Field{Name: "p_value", Type: gdm.KindFloat},
		gdm.Field{Name: "signal", Type: gdm.KindFloat},
	)
	enc := gdm.NewDataset("ENCODE", encSchema)
	mk := func(id, dtype, cell string, regions ...[3]int64) {
		s := gdm.NewSample(id)
		s.Meta.Add("dataType", dtype)
		s.Meta.Add("cell", cell)
		for i, r := range regions {
			s.AddRegion(gdm.NewRegion("chr1", r[0], r[1], gdm.StrandNone),
				gdm.Float(0.01), gdm.Float(float64(r[2]+int64(i))))
		}
		s.SortRegions()
		enc.MustAdd(s)
	}
	mk("chip1", "ChipSeq", "HeLa", [3]int64{100, 200, 5}, [3]int64{5100, 5200, 7}, [3]int64{5150, 5250, 9})
	mk("chip2", "ChipSeq", "K562", [3]int64{900, 1100, 3})
	mk("rna1", "RnaSeq", "HeLa", [3]int64{0, 50, 1})
	return engine.MapCatalog{"ANNOTATIONS": ann, "ENCODE": enc}
}

// headline is the exact query of Section 2 of the paper.
const headline = `
# The paper's Section 2 example.
PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
RESULT = MAP(peak_count AS COUNT) PROMS PEAKS;
MATERIALIZE RESULT INTO result;
`

func TestHeadlineQuery(t *testing.T) {
	prog, err := Parse(headline)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Assignments) != 3 || len(prog.Materialized) != 1 {
		t.Fatalf("assignments=%d materialized=%d", len(prog.Assignments), len(prog.Materialized))
	}
	r := NewRunner(testCatalog(t))
	results, err := r.Materialize(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Target != "result" {
		t.Fatalf("results = %+v", results)
	}
	ds := results[0].Dataset
	// One output sample per ChipSeq sample (2), each with both promoters.
	if len(ds.Samples) != 2 {
		t.Fatalf("samples = %d", len(ds.Samples))
	}
	ci, ok := ds.Schema.Index("peak_count")
	if !ok {
		t.Fatalf("schema = %s", ds.Schema)
	}
	total := int64(0)
	for _, s := range ds.Samples {
		if len(s.Regions) != 2 {
			t.Fatalf("sample %s regions = %d", s.ID, len(s.Regions))
		}
		for i := range s.Regions {
			total += s.Row(i)[ci].Int()
		}
	}
	// chip1: P1 gets 1 peak, P2 gets 2. chip2: P1 gets 1 (900-1100 overlap).
	if total != 4 {
		t.Errorf("total mapped peaks = %d, want 4", total)
	}
}

func TestAllBackendsAgreeOnScript(t *testing.T) {
	prog, err := Parse(headline)
	if err != nil {
		t.Fatal(err)
	}
	cat := testCatalog(t)
	var ref *gdm.Dataset
	for _, mode := range []engine.Mode{engine.ModeSerial, engine.ModeBatch, engine.ModeStream} {
		r := &Runner{Config: engine.Config{Mode: mode, Workers: 3}, Catalog: cat}
		results, err := r.Materialize(prog)
		if err != nil {
			t.Fatal(err)
		}
		ds := results[0].Dataset
		if ref == nil {
			ref = ds
			continue
		}
		if len(ds.Samples) != len(ref.Samples) || ds.NumRegions() != ref.NumRegions() {
			t.Errorf("mode %s disagrees: %s vs %s", mode, ds, ref)
		}
	}
}

func TestParseAllOperators(t *testing.T) {
	src := `
S = SELECT(cell == 'HeLa' AND NOT dataType == 'RnaSeq'; region: p_value < 0.05 AND signal > 2) ENCODE;
P = PROJECT(region: signal, len AS right - left; metadata: cell) S;
E = EXTEND(n AS COUNT, top AS MAX(signal)) P;
M = MERGE(groupby: cell) E;
G = GROUP(cell; ns AS COUNTSAMP) E;
O = ORDER(n DESC, cell ASC; top: 3) E;
U = UNION() S ENCODE;
D = DIFFERENCE(joinby: cell; exact: false) S ENCODE;
J = JOIN(DLE(1000), DGE(0), MD(2), UP; output: LEFT; joinby: cell) S ENCODE;
MP = MAP(n AS COUNT, avg AS AVG(signal); joinby: cell) S ENCODE;
C = COVER(2, ANY) ENCODE;
F = FLAT(1, ALL; groupby: cell) ENCODE;
SU = SUMMIT(2, 3) ENCODE;
H = HISTOGRAM(1, ANY) ENCODE;
MATERIALIZE C;
MATERIALIZE J INTO 'joined/output';
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Assignments) != 14 {
		t.Fatalf("assignments = %d", len(prog.Assignments))
	}
	if prog.Materialized[1].Target != "joined/output" {
		t.Errorf("target = %q", prog.Materialized[1].Target)
	}
	// Every assignment must explain without panicking.
	for _, a := range prog.Assignments {
		if engine.Explain(a.Plan) == "" {
			t.Errorf("empty explain for %s", a.Var)
		}
	}
	// And the whole program must actually run.
	r := NewRunner(testCatalog(t))
	if _, err := r.Materialize(prog); err != nil {
		t.Fatalf("materialize: %v", err)
	}
}

func TestEvalUnmaterializedVariable(t *testing.T) {
	prog, err := Parse(`X = SELECT(dataType == 'RnaSeq') ENCODE;`)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(testCatalog(t))
	ds, err := r.Eval(prog, "X")
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Samples) != 1 || ds.Samples[0].ID != "rna1" {
		t.Errorf("samples = %v", ds.Samples)
	}
	if ds.Name != "X" {
		t.Errorf("name = %q", ds.Name)
	}
	// Materializing a program with no MATERIALIZE fails.
	if _, err := r.Materialize(prog); err == nil {
		t.Error("empty materialize accepted")
	}
}

func TestLazyEvaluation(t *testing.T) {
	// BAD references a dataset that does not exist, but nothing
	// materialized depends on it, so the program must still succeed.
	src := `
BAD = SELECT() NO_SUCH_DATASET;
OK = SELECT(dataType == 'ChipSeq') ENCODE;
MATERIALIZE OK;
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(testCatalog(t))
	results, err := r.Materialize(prog)
	if err != nil {
		t.Fatalf("lazy evaluation broken: %v", err)
	}
	if len(results[0].Dataset.Samples) != 2 {
		t.Errorf("samples = %d", len(results[0].Dataset.Samples))
	}
}

func TestSharedSubplanEvaluatedOnce(t *testing.T) {
	src := `
BASE = SELECT(dataType == 'ChipSeq') ENCODE;
A = EXTEND(n AS COUNT) BASE;
B = MERGE() BASE;
MATERIALIZE A;
MATERIALIZE B;
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// Identity: both plans must reference the same BASE node pointer, so a
	// session evaluates it once.
	aPlan := prog.Plan("A").(*engine.ExtendOp)
	bPlan := prog.Plan("B").(*engine.MergeOp)
	if aPlan.Input != bPlan.Input {
		t.Error("shared variable compiled to distinct nodes")
	}
	r := NewRunner(testCatalog(t))
	if _, err := r.Materialize(prog); err != nil {
		t.Fatal(err)
	}
}

func TestRunnerExplain(t *testing.T) {
	prog, err := Parse(headline)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(testCatalog(t))
	text := r.Explain(prog, "RESULT")
	for _, frag := range []string{"MAP", "SELECT", "SCAN ANNOTATIONS", "SCAN ENCODE"} {
		if !strings.Contains(text, frag) {
			t.Errorf("explain missing %q:\n%s", frag, text)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string // expected error fragment
	}{
		{"X = ;", "expected identifier"},
		{"X = FROBNICATE() A;", "unknown operator"},
		{"SELECT = SELECT() A;", "operator name"},
		{"X = SELECT() A; X = SELECT() B;", "assigned twice"},
		{"X = SELECT(cell == ) A;", "expected metadata value"},
		{"X = SELECT(; region: p_value <) A;", "expected expression"},
		{"X = SELECT(; quux: 1) A;", "unknown clause"},
		{"X = SELECT() A", "expected \";\""},
		{"X = SELECT(", "unterminated"},
		{"X = JOIN() A B;", "genometric predicate"},
		{"X = JOIN(DLE(x)) A B;", "expected distance"},
		{"X = JOIN(DLE(5); output: SIDEWAYS) A B;", "unknown output"},
		{"X = JOIN(MD(0)) A B;", "positive count"},
		{"X = JOIN(WOBBLE(3)) A B;", "unknown genometric clause"},
		{"X = COVER(2) A;", "expected ','"},
		{"X = COVER() A;", "accumulation bounds"},
		{"X = COVER(0, ANY) A;", "bad accumulation bound"},
		{"X = ORDER() A;", "sort key"},
		{"X = ORDER(a; top: x) A;", "top wants a number"},
		{"X = EXTEND(n AS FROB) A;", "unknown aggregate"},
		{"X = EXTEND(n AS SUM) A;", "needs an attribute"},
		{"X = EXTEND(n AS COUNT(x)) A;", "takes no attribute"},
		{"X = UNION(oops) A B;", "takes no arguments"},
		{"X = DIFFERENCE(exact: maybe) A B;", "true or false"},
		{"X = MAP(n AS COUNT) A;", "expected identifier"},
		{"MATERIALIZE ;", "expected identifier"},
		{"MATERIALIZE X INTO ;", "materialization target"},
		{"X = SELECT('unclosed) A;", "unterminated string"},
		{"X = SELECT() A; @", "unexpected character"},
		{"X = GROUP(a; n AS COUNT; extra: 1) A;", "GROUP takes"},
		{"X = MERGE(stuff) A;", "MERGE takes"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Parse(%q) error %q does not mention %q", c.src, err, c.frag)
		}
	}
}

func TestParseErrorsCarryLineNumbers(t *testing.T) {
	_, err := Parse("A = SELECT() X;\nB = BOGUS() Y;\n")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v", err)
	}
}

func TestRegionExpressionPrecedence(t *testing.T) {
	src := `X = SELECT(; region: signal + 2 * 3 == 11 OR (signal > 100 AND p_value < 1)) ENCODE;`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sel := prog.Plan("X").(*engine.SelectOp)
	text := sel.Region.String()
	// 2*3 binds tighter than +; AND binds tighter than OR.
	if !strings.Contains(text, "(2 * 3)") {
		t.Errorf("precedence wrong: %s", text)
	}
	// Evaluate: chip1 has signal 5 at the first region -> 5+6 == 11 keeps it.
	r := NewRunner(testCatalog(t))
	ds, err := r.Eval(prog, "X")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range ds.Samples {
		for _, reg := range s.Regions {
			if reg.Start == 100 {
				found = true
			}
		}
	}
	if !found {
		t.Error("region with signal 5 not selected (arith precedence broken?)")
	}
}

func TestMetaPredicateForms(t *testing.T) {
	cases := []struct {
		pred string
		want []string // sample IDs selected from ENCODE
	}{
		{"dataType == 'ChipSeq'", []string{"chip1", "chip2"}},
		{"dataType != 'ChipSeq'", []string{"rna1"}},
		{"cell == 'HeLa' AND dataType == 'ChipSeq'", []string{"chip1"}},
		{"cell == 'HeLa' OR cell == 'K562'", []string{"chip1", "chip2", "rna1"}},
		{"NOT cell == 'HeLa'", []string{"chip2"}},
		{"(cell == 'HeLa' OR cell == 'K562') AND dataType == 'ChipSeq'", []string{"chip1", "chip2"}},
		{"antibody", nil}, // bare ident = exists
		{"cell", []string{"chip1", "chip2", "rna1"}},
		{"cell == HeLa", []string{"chip1", "rna1"}}, // unquoted value
	}
	for _, c := range cases {
		prog, err := Parse("X = SELECT(" + c.pred + ") ENCODE;")
		if err != nil {
			t.Errorf("Parse(%q): %v", c.pred, err)
			continue
		}
		r := NewRunner(testCatalog(t))
		ds, err := r.Eval(prog, "X")
		if err != nil {
			t.Errorf("Eval(%q): %v", c.pred, err)
			continue
		}
		var got []string
		for _, s := range ds.Samples {
			got = append(got, s.ID)
		}
		if len(got) != len(c.want) {
			t.Errorf("%q selected %v, want %v", c.pred, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%q selected %v, want %v", c.pred, got, c.want)
				break
			}
		}
	}
}

func TestCoverVariantsFromScript(t *testing.T) {
	for _, v := range []string{"COVER", "FLAT", "SUMMIT", "HISTOGRAM"} {
		prog, err := Parse("X = " + v + "(1, ANY) ENCODE;")
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(testCatalog(t))
		ds, err := r.Eval(prog, "X")
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if len(ds.Samples) != 1 {
			t.Errorf("%s: samples = %d", v, len(ds.Samples))
		}
		if _, ok := ds.Schema.Index("acc_index"); !ok {
			t.Errorf("%s: schema = %s", v, ds.Schema)
		}
	}
}

func TestNegativeDistanceJoin(t *testing.T) {
	// DLE(-50): overlap of at least 50 bases.
	prog, err := Parse(`X = JOIN(DLE(-50); output: INT) ANNOTATIONS ENCODE;`)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(testCatalog(t))
	ds, err := r.Eval(prog, "X")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ds.Samples {
		for _, reg := range s.Regions {
			if reg.Length() < 50 {
				t.Errorf("intersection %v shorter than 50", reg)
			}
		}
	}
}

func TestOptimizerAblationEquivalence(t *testing.T) {
	src := `
A = SELECT(dataType == 'ChipSeq') ENCODE;
B = SELECT(cell == 'HeLa') A;
MATERIALIZE B;
`
	prog1, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog2, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cat := testCatalog(t)
	opt := NewRunner(cat)
	r1, err := opt.Materialize(prog1)
	if err != nil {
		t.Fatal(err)
	}
	// The reference is prog2's plan as compiled: Optimize rewrites in place,
	// and prog1's plan is the optimized one.
	b, err := engine.Run(opt.Config, prog2.Plan("B"), cat)
	if err != nil {
		t.Fatal(err)
	}
	a := r1[0].Dataset
	if len(a.Samples) != len(b.Samples) || a.NumRegions() != b.NumRegions() {
		t.Errorf("optimizer changed semantics: %s vs %s", a, b)
	}
	// The optimized plan must actually have merged the two SELECTs.
	if !strings.Contains(opt.Explain(prog1, "B"), "AND") {
		t.Errorf("selects not merged:\n%s", opt.Explain(prog1, "B"))
	}
}

// TestPublishSharesRegions: two MATERIALIZE targets bound to one plan node
// come back as separate datasets over the same region storage — here the
// catalog's own, since a metadata-only SELECT shares its input's regions —
// with metadata private to each.
func TestPublishSharesRegions(t *testing.T) {
	prog, err := Parse(`
PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
MATERIALIZE PEAKS INTO one;
MATERIALIZE PEAKS INTO two;
`)
	if err != nil {
		t.Fatal(err)
	}
	cat := testCatalog(t)
	for _, cfg := range []engine.Config{
		{Mode: engine.ModeSerial},
		{Mode: engine.ModeBatch, Workers: 3},
		{Mode: engine.ModeStream, Workers: 3},
	} {
		results, err := (&Runner{Config: cfg, Catalog: cat}).Materialize(prog)
		if err != nil {
			t.Fatal(err)
		}
		one, two := results[0].Dataset, results[1].Dataset
		if one.Name != "one" || two.Name != "two" {
			t.Fatalf("%s: names %q, %q", cfg.Mode, one.Name, two.Name)
		}
		if len(one.Samples) != 2 || len(two.Samples) != 2 {
			t.Fatalf("%s: %d and %d samples, want 2 and 2", cfg.Mode, len(one.Samples), len(two.Samples))
		}
		for i, s := range one.Samples {
			o, src := two.Samples[i], cat["ENCODE"].Sample(s.ID)
			if s == o || s.ID != o.ID {
				t.Fatalf("%s: sample %d: headers shared or misordered (%q, %q)", cfg.Mode, i, s.ID, o.ID)
			}
			if &s.Regions[0] != &o.Regions[0] || &s.Regions[0] != &src.Regions[0] {
				t.Errorf("%s: sample %s: regions were copied on the way out", cfg.Mode, s.ID)
			}
			s.Meta.Add("note", "mine")
			if o.Meta.Has("note") || src.Meta.Has("note") {
				t.Errorf("%s: sample %s: metadata added to one result leaked", cfg.Mode, s.ID)
			}
		}
	}
}

// TestJoinHugeDistanceBound: a distance bound near the int64 limit means
// "anywhere on the chromosome". The candidate window must saturate rather
// than wrap, or DLE(9223372036854775807) silently joins nothing. Checked on
// the kernel in every mode and through a parsed script, whose plan also
// runs JOIN's zone-pruning proof.
func TestJoinHugeDistanceBound(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	schema := gdm.MustSchema(gdm.Field{Name: "score", Type: gdm.KindFloat})
	mk := func(name string) *gdm.Dataset {
		ds := gdm.NewDataset(name, schema)
		s := gdm.NewSample(strings.ToLower(name))
		for i := 0; i < 50; i++ {
			start := rng.Int63n(100000)
			s.AddRegion(gdm.NewRegion(fmt.Sprintf("chr%d", 1+rng.Intn(3)), start, start+1+rng.Int63n(2000),
				gdm.StrandNone), gdm.Float(rng.Float64()))
		}
		s.SortRegions()
		ds.MustAdd(s)
		return ds
	}
	a, b := mk("A"), mk("B")
	want := 0 // every same-chromosome pair is within any bound >= 2^40
	for _, l := range a.Samples[0].Regions {
		for _, r := range b.Samples[0].Regions {
			if l.Chrom == r.Chrom {
				want++
			}
		}
	}
	modes := []engine.Mode{engine.ModeSerial, engine.ModeBatch, engine.ModeStream}
	for _, bound := range []int64{1 << 40, math.MaxInt64 - 10, math.MaxInt64} {
		for _, op := range []engine.DistOp{engine.DistLE, engine.DistLT} {
			pred := engine.GenometricPred{Conds: []engine.DistCond{{Op: op, Dist: bound}}}
			for _, mode := range modes {
				cfg := engine.Config{Mode: mode, Workers: 3}
				out, err := engine.Join(cfg, a, b, engine.JoinArgs{Pred: pred, Output: engine.OutLeft})
				if err != nil {
					t.Fatal(err)
				}
				if got := out.NumRegions(); got != want {
					t.Errorf("%s(%d) %s: %d regions, want %d", op, bound, mode, got, want)
				}
			}
		}
	}
	prog, err := Parse(`X = JOIN(DLE(9223372036854775807); output: LEFT) A B;`)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range modes {
		r := &Runner{Config: engine.Config{Mode: mode, Workers: 3}, Catalog: engine.MapCatalog{"A": a, "B": b}}
		out, err := r.Eval(prog, "X")
		if err != nil {
			t.Fatal(err)
		}
		if got := out.NumRegions(); got != want {
			t.Errorf("script, %s: %d regions, want %d", mode, got, want)
		}
	}
}
