package difftest

// Satellite audit of the two most order-sensitive kernels (ISSUE 4): JOIN
// tie-breaking under MD(k) and COVER boundary semantics. These tests pin the
// semantics with hand-built inputs whose expected outputs are computed by
// hand, and assert every backend of the matrix produces exactly them — so a
// future kernel rewrite that changes a tie-break or an off-by-one boundary
// fails here with a readable counterexample, not just in a fuzz campaign.

import (
	"testing"

	"genogo/internal/engine"
	"genogo/internal/gdm"
	"genogo/internal/gmql"
)

// runAcross runs one script on a catalog under every matrix configuration
// and asserts agreement with the serial result, returning the serial result.
func runAcross(t *testing.T, cat engine.MapCatalog, text, final string) *gdm.Dataset {
	t.Helper()
	prog, err := gmql.Parse(text)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	matrix := Matrix()
	oracle, err := (&gmql.Runner{Config: matrix[0].Cfg, Catalog: cat}).Eval(prog, final)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, ec := range matrix[1:] {
		got, err := (&gmql.Runner{Config: ec.Cfg, Catalog: cat}).Eval(prog, final)
		if err != nil {
			t.Fatalf("%s: %v", ec.Name, err)
		}
		if diff := Diff(oracle, got, 0); diff != "" {
			t.Fatalf("%s diverged from serial: %s", ec.Name, diff)
		}
	}
	return oracle
}

// TestJoinMDTieBreaking: an anchor with two experiment regions at exactly
// equal distance. MD(1) must pick deterministically — ties break by
// canonical region order, so the leftmost equidistant region wins — and
// every backend must pick the same one.
func TestJoinMDTieBreaking(t *testing.T) {
	schema := gdm.MustSchema(gdm.Field{Name: "tag", Type: gdm.KindString})
	anchors := gdm.NewDataset("A", schema)
	sa := gdm.NewSample("a1")
	sa.AddRegion(gdm.NewRegion("chr1", 100, 200, gdm.StrandNone), gdm.Str("anchor"))
	sa.SortRegions()
	anchors.MustAdd(sa)

	exps := gdm.NewDataset("B", schema)
	sb := gdm.NewSample("b1")
	// Both at distance 40 from [100,200): [40,60) on the left, [240,260) on
	// the right.
	sb.AddRegion(gdm.NewRegion("chr1", 40, 60, gdm.StrandNone), gdm.Str("leftward"))
	sb.AddRegion(gdm.NewRegion("chr1", 240, 260, gdm.StrandNone), gdm.Str("rightward"))
	sb.SortRegions()
	exps.MustAdd(sb)

	cat := engine.MapCatalog{"A": anchors, "B": exps}
	out := runAcross(t, cat, "V1 = JOIN(MD(1); output: RIGHT) A B;\nMATERIALIZE V1;\n", "V1")

	if len(out.Samples) != 1 || len(out.Samples[0].Regions) != 1 {
		t.Fatalf("MD(1) should emit exactly one region, got %s", out)
	}
	r := out.Samples[0].Regions[0]
	if r.Start != 40 || r.Stop != 60 {
		t.Fatalf("MD(1) tie must resolve to the canonically first (leftmost) region [40,60), got [%d,%d)", r.Start, r.Stop)
	}
	// tag (anchor) then right.tag (experiment) in the merged schema.
	if got := out.Samples[0].Row(0)[1].Str(); got != "leftward" {
		t.Fatalf("MD(1) tie winner should be %q, got %q", "leftward", got)
	}
}

// TestCoverBoundarySemantics: hand-computed accumulation profile. Two
// overlapping regions [0,100) and [50,150):
//
//	depth 1 on [0,50), depth 2 on [50,100), depth 1 on [100,150)
//
// COVER(2,2) must emit exactly [50,100) (half-open boundaries, no
// off-by-one at the depth transitions), HISTOGRAM(1,ANY) must emit all
// three constant-depth segments, and COVER(1,ANY) must merge the whole
// profile into [0,150) with acc_index = max depth 2.
func TestCoverBoundarySemantics(t *testing.T) {
	schema := gdm.MustSchema(gdm.Field{Name: "v", Type: gdm.KindFloat})
	ds := gdm.NewDataset("D", schema)
	s1 := gdm.NewSample("s1")
	s1.AddRegion(gdm.NewRegion("chr1", 0, 100, gdm.StrandNone), gdm.Float(1))
	s1.SortRegions()
	s2 := gdm.NewSample("s2")
	s2.AddRegion(gdm.NewRegion("chr1", 50, 150, gdm.StrandNone), gdm.Float(2))
	s2.SortRegions()
	ds.MustAdd(s1)
	ds.MustAdd(s2)
	cat := engine.MapCatalog{"D": ds}

	type want struct{ start, stop, depth int64 }
	cases := []struct {
		name, script string
		want         []want
	}{
		{"cover-2-2", "V1 = COVER(2, 2) D;\nMATERIALIZE V1;\n",
			[]want{{50, 100, 2}}},
		{"histogram-1-any", "V1 = HISTOGRAM(1, ANY) D;\nMATERIALIZE V1;\n",
			[]want{{0, 50, 1}, {50, 100, 2}, {100, 150, 1}}},
		{"cover-1-any", "V1 = COVER(1, ANY) D;\nMATERIALIZE V1;\n",
			[]want{{0, 150, 2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := runAcross(t, cat, tc.script, "V1")
			if len(out.Samples) != 1 {
				t.Fatalf("want one output sample, got %d", len(out.Samples))
			}
			regs := out.Samples[0].Regions
			if len(regs) != len(tc.want) {
				t.Fatalf("want %d regions, got %s", len(tc.want), out)
			}
			for i, w := range tc.want {
				r := regs[i]
				depth := out.Samples[0].Row(i)[0].Int()
				if r.Start != w.start || r.Stop != w.stop || depth != w.depth {
					t.Fatalf("region %d: want [%d,%d) depth %d, got [%d,%d) depth %d",
						i, w.start, w.stop, w.depth, r.Start, r.Stop, depth)
				}
			}
		})
	}
}
