package gmql

import (
	"fmt"
	"testing"

	"genogo/internal/engine"
	"genogo/internal/gdm"
)

// goldenCatalog is a fully hand-computed fixture so every expected value
// below can be verified by inspection.
//
// REFS (one sample "windows", schema: name string):
//
//	chr1 [0,100)   W1
//	chr1 [200,300) W2
//	chr2 [0,100)   W3
//
// EXPS (schema: v float):
//
//	e1 (cell=A, quality=7): chr1 [10,20) v=1; chr1 [50,120) v=2; chr1 [210,220) v=3
//	e2 (cell=B, quality=9): chr1 [90,205) v=4; chr2 [10,30) v=5
//	e3 (cell=A, quality=2): chr2 [40,60) v=6
func goldenCatalog(t *testing.T) engine.MapCatalog {
	t.Helper()
	refSchema := gdm.MustSchema(gdm.Field{Name: "name", Type: gdm.KindString})
	refs := gdm.NewDataset("REFS", refSchema)
	w := gdm.NewSample("windows")
	w.Meta.Add("annType", "window")
	w.AddRegion(gdm.NewRegion("chr1", 0, 100, gdm.StrandNone), gdm.Str("W1"))
	w.AddRegion(gdm.NewRegion("chr1", 200, 300, gdm.StrandNone), gdm.Str("W2"))
	w.AddRegion(gdm.NewRegion("chr2", 0, 100, gdm.StrandNone), gdm.Str("W3"))
	refs.MustAdd(w)

	expSchema := gdm.MustSchema(gdm.Field{Name: "v", Type: gdm.KindFloat})
	exps := gdm.NewDataset("EXPS", expSchema)
	mk := func(id, cell string, quality int, regions ...[3]int64) {
		s := gdm.NewSample(id)
		s.Meta.Add("cell", cell)
		s.Meta.Add("quality", fmt.Sprint(quality))
		for _, r := range regions {
			chrom := "chr1"
			if r[2] < 0 {
				chrom = "chr2"
				r[2] = -r[2]
			}
			s.AddRegion(gdm.NewRegion(chrom, r[0], r[1], gdm.StrandNone), gdm.Float(float64(r[2])))
		}
		s.SortRegions()
		exps.MustAdd(s)
	}
	mk("e1", "A", 7, [3]int64{10, 20, 1}, [3]int64{50, 120, 2}, [3]int64{210, 220, 3})
	mk("e2", "B", 9, [3]int64{90, 205, 4}, [3]int64{10, 30, -5})
	mk("e3", "A", 2, [3]int64{40, 60, -6})
	return engine.MapCatalog{"REFS": refs, "EXPS": exps}
}

// golden is one end-to-end case: a script, the target, and checks.
type golden struct {
	name    string
	script  string
	samples int
	regions int
	check   func(t *testing.T, ds *gdm.Dataset)
}

func TestGoldenQueries(t *testing.T) {
	cases := []golden{
		{
			name: "map-counts",
			script: `
R = MAP(n AS COUNT, total AS SUM(v)) REFS EXPS;
MATERIALIZE R;`,
			samples: 3, // 1 ref sample x 3 exp samples
			regions: 9, // 3 windows each
			check: func(t *testing.T, ds *gdm.Dataset) {
				ni, _ := ds.Schema.Index("n")
				ti, _ := ds.Schema.Index("total")
				// Hand-computed counts per (exp, window):
				// e1: W1={[10,20),[50,120)}=2 W2={[210,220)}=1 W3=0
				// e2: W1={[90,205)}=1 W2={[90,205)}=1 W3={[10,30)}=1
				// e3: W1=0 W2=0 W3={[40,60)}=1
				want := map[string][3]int64{
					"e1": {2, 1, 0}, "e2": {1, 1, 1}, "e3": {0, 0, 1},
				}
				wantSum := map[string][3]float64{
					"e1": {3, 3, 0}, "e2": {4, 4, 5}, "e3": {0, 0, 6},
				}
				for _, s := range ds.Samples {
					for exp, counts := range want {
						if !s.Meta.Matches("right.cell", "A") && !s.Meta.Matches("right.cell", "B") {
							t.Fatalf("no provenance on %s", s.ID)
						}
						_ = exp
						_ = counts
					}
				}
				// Identify output samples via their quality metadata.
				byQuality := map[string]*gdm.Sample{}
				for _, s := range ds.Samples {
					byQuality[s.Meta.First("right.quality")] = s
				}
				for exp, q := range map[string]string{"e1": "7", "e2": "9", "e3": "2"} {
					s := byQuality[q]
					if s == nil {
						t.Fatalf("output for %s missing", exp)
					}
					for wi := 0; wi < 3; wi++ {
						if got := s.Row(wi)[ni].Int(); got != want[exp][wi] {
							t.Errorf("%s window %d count = %d, want %d", exp, wi, got, want[exp][wi])
						}
						gotSum := s.Row(wi)[ti]
						if want[exp][wi] == 0 {
							if !gotSum.IsNull() {
								t.Errorf("%s window %d sum = %v, want NULL", exp, wi, gotSum)
							}
						} else if gotSum.Float() != wantSum[exp][wi] {
							t.Errorf("%s window %d sum = %v, want %v", exp, wi, gotSum, wantSum[exp][wi])
						}
					}
				}
			},
		},
		{
			name: "cover-histogram",
			script: `
H = HISTOGRAM(1, ANY) EXPS;
MATERIALIZE H;`,
			samples: 1,
			// chr1 segments: [10,20)@1 [50,90)@1 [90,120)@2 [120,205)@1
			//   [210,220)@1 — but [50,120) and [90,205) overlap in [90,120).
			// chr2: [10,30)@1 [40,60)@1.
			regions: 7,
			check: func(t *testing.T, ds *gdm.Dataset) {
				var deep int64
				for i, r := range ds.Samples[0].Regions {
					if ds.Samples[0].Row(i)[0].Int() == 2 {
						deep++
						if r.Start != 90 || r.Stop != 120 {
							t.Errorf("depth-2 segment = %v", r)
						}
					}
				}
				if deep != 1 {
					t.Errorf("depth-2 segments = %d", deep)
				}
			},
		},
		{
			name: "join-genometric",
			script: `
J = JOIN(DGE(1), DLE(100); output: CAT) REFS EXPS;
MATERIALIZE J;`,
			samples: 3,
			// Pairs with 1 <= distance <= 100:
			// e1: W1-[210..)? no (W1 ends 100, [210,220) dist 110) ;
			//     W2-[10,20) dist 180 no; W2-[50,120) dist 80 yes;
			//     W1-[50,120)? overlaps (dist<0) no; W1-[10,20) overlap no;
			//     W2-[210,220) overlap no.
			// e2: W1-[90,205)? overlap no; W2-[90,205) overlap no;
			//     W3-[10,30) overlap no.
			// e3: W3-[40,60) overlap no.
			regions: 1,
			check: func(t *testing.T, ds *gdm.Dataset) {
				var all []gdm.Region
				for _, s := range ds.Samples {
					all = append(all, s.Regions...)
				}
				if len(all) != 1 {
					t.Fatalf("joined regions = %v", all)
				}
				// CAT of W2 [200,300) and [50,120): [50,300).
				if all[0].Start != 50 || all[0].Stop != 300 {
					t.Errorf("contig = %v", all[0])
				}
			},
		},
		{
			name: "difference-union-roundtrip",
			script: `
U = UNION() EXPS EXPS;
D = DIFFERENCE() U EXPS;
MATERIALIZE D;`,
			samples: 6,
			regions: 0, // every region overlaps itself in the negative set
			check:   func(t *testing.T, ds *gdm.Dataset) {},
		},
		{
			name: "group-order-pipeline",
			script: `
G = GROUP(cell; n AS COUNTSAMP) EXPS;
O = ORDER(n DESC, quality DESC; top: 1) G;
MATERIALIZE O;`,
			samples: 1,
			regions: 3,
			check: func(t *testing.T, ds *gdm.Dataset) {
				// Group A has 2 samples; within A, e1 has quality 7 > 2.
				s := ds.Samples[0]
				if !s.Meta.Matches("cell", "A") || s.Meta.First("quality") != "7" {
					t.Errorf("top sample meta = %v", s.Meta.Pairs())
				}
				if s.Meta.First("_order") != "1" {
					t.Errorf("_order = %q", s.Meta.First("_order"))
				}
			},
		},
		{
			name: "project-computed",
			script: `
P = PROJECT(region: v, double AS v * 2, len AS right - left) EXPS;
MATERIALIZE P;`,
			samples: 3,
			regions: 6,
			check: func(t *testing.T, ds *gdm.Dataset) {
				di, _ := ds.Schema.Index("double")
				vi, _ := ds.Schema.Index("v")
				li, _ := ds.Schema.Index("len")
				for _, s := range ds.Samples {
					for i, r := range s.Regions {
						if s.Row(i)[di].Float() != 2*s.Row(i)[vi].Float() {
							t.Errorf("double = %v for v = %v", s.Row(i)[di], s.Row(i)[vi])
						}
						if int64(s.Row(i)[li].Float()) != r.Length() {
							t.Errorf("len = %v for %v", s.Row(i)[li], r)
						}
					}
				}
			},
		},
		{
			name: "merge-extend",
			script: `
M = MERGE() EXPS;
E = EXTEND(n AS COUNT, best AS MAX(v)) M;
MATERIALIZE E;`,
			samples: 1,
			regions: 6,
			check: func(t *testing.T, ds *gdm.Dataset) {
				s := ds.Samples[0]
				if s.Meta.First("n") != "6" || s.Meta.First("best") != "6" {
					t.Errorf("meta = %v", s.Meta.Pairs())
				}
			},
		},
	}
	cat := goldenCatalog(t)
	for _, c := range cases {
		for _, mode := range []engine.Mode{engine.ModeSerial, engine.ModeBatch, engine.ModeStream} {
			t.Run(fmt.Sprintf("%s/%s", c.name, mode), func(t *testing.T) {
				prog, err := Parse(c.script)
				if err != nil {
					t.Fatal(err)
				}
				r := &Runner{Config: engine.Config{Mode: mode, Workers: 2, MetaFirst: true}, Catalog: cat}
				results, err := r.Materialize(prog)
				if err != nil {
					t.Fatal(err)
				}
				ds := results[0].Dataset
				if len(ds.Samples) != c.samples {
					t.Fatalf("samples = %d, want %d", len(ds.Samples), c.samples)
				}
				if ds.NumRegions() != c.regions {
					t.Fatalf("regions = %d, want %d", ds.NumRegions(), c.regions)
				}
				if err := ds.Validate(); err != nil {
					t.Fatal(err)
				}
				c.check(t, ds)
			})
		}
	}
}
