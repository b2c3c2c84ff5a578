package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"genogo/internal/expr"
	"genogo/internal/gdm"
)

// TestOperatorInvariants checks, for every operator over a battery of random
// datasets, the DESIGN.md invariants: outputs validate (canonical region
// order, typed values, unique sample IDs) and inputs are never mutated —
// which matters more now that outputs share region storage with inputs: in
// every mode, under the race detector, and with each kind of aggregate state.
func TestOperatorInvariants(t *testing.T) {
	scoreGt := expr.Cmp{Op: expr.CmpGt, Left: expr.Attr{Name: "score"}, Right: expr.Const{Value: gdm.Float(5)}}
	ops := map[string]func(cfg Config, a, b *gdm.Dataset) (*gdm.Dataset, error){
		"select": func(cfg Config, a, _ *gdm.Dataset) (*gdm.Dataset, error) {
			return Select(cfg, a, expr.MetaExists{Attr: "cell"}, scoreGt)
		},
		"project": func(cfg Config, a, _ *gdm.Dataset) (*gdm.Dataset, error) {
			return Project(cfg, a, ProjectArgs{Regions: []ProjectItem{
				{Name: "score"},
				{Name: "mid", Expr: expr.Arith{Op: expr.OpAdd, Left: expr.Attr{Name: "left"}, Right: expr.Attr{Name: "right"}}},
			}})
		},
		"extend": func(cfg Config, a, _ *gdm.Dataset) (*gdm.Dataset, error) {
			return Extend(cfg, a, []expr.Aggregate{{Output: "n", Func: expr.AggCount}})
		},
		"merge": func(cfg Config, a, _ *gdm.Dataset) (*gdm.Dataset, error) {
			return Merge(cfg, a, []string{"cell"})
		},
		"group": func(cfg Config, a, _ *gdm.Dataset) (*gdm.Dataset, error) {
			return Group(cfg, a, GroupArgs{By: []string{"dataType"},
				MetaAggs: []expr.Aggregate{{Output: "n", Func: expr.AggCountSamp}}})
		},
		"order": func(cfg Config, a, _ *gdm.Dataset) (*gdm.Dataset, error) {
			return Order(cfg, a, OrderArgs{Keys: []OrderKey{{Attr: "cell"}}, Top: 3})
		},
		"union": func(cfg Config, a, b *gdm.Dataset) (*gdm.Dataset, error) {
			return Union(cfg, a, b)
		},
		"difference": func(cfg Config, a, b *gdm.Dataset) (*gdm.Dataset, error) {
			return Difference(cfg, a, b, DifferenceArgs{})
		},
		"map": func(cfg Config, a, b *gdm.Dataset) (*gdm.Dataset, error) {
			return Map(cfg, a, b, MapArgs{Aggs: []expr.Aggregate{
				{Output: "n", Func: expr.AggCount},
				{Output: "avg", Func: expr.AggAvg, Attr: "score"},
				{Output: "med", Func: expr.AggMedian, Attr: "score"},
				{Output: "names", Func: expr.AggBag, Attr: "name"},
				{Output: "lo", Func: expr.AggMin, Attr: "score"},
				{Output: "sum", Func: expr.AggSum, Attr: "score"},
			}})
		},
		"join": func(cfg Config, a, b *gdm.Dataset) (*gdm.Dataset, error) {
			return Join(cfg, a, b, JoinArgs{
				Pred:   GenometricPred{Conds: []DistCond{{Op: DistLE, Dist: 200}}},
				Output: OutCat,
			})
		},
		"join-md": func(cfg Config, a, b *gdm.Dataset) (*gdm.Dataset, error) {
			return Join(cfg, a, b, JoinArgs{Pred: GenometricPred{MinDistK: 2}, Output: OutLeft})
		},
		"cover": func(cfg Config, a, _ *gdm.Dataset) (*gdm.Dataset, error) {
			return Cover(cfg, a, CoverArgs{
				Min: CoverBound{Kind: BoundN, N: 2}, Max: CoverBound{Kind: BoundAny}})
		},
		"cover-aggs": func(cfg Config, a, _ *gdm.Dataset) (*gdm.Dataset, error) {
			return Cover(cfg, a, CoverArgs{
				Min: CoverBound{Kind: BoundN, N: 1}, Max: CoverBound{Kind: BoundAny},
				Aggs: []expr.Aggregate{
					{Output: "n", Func: expr.AggCount},
					{Output: "med", Func: expr.AggMedian, Attr: "score"},
					{Output: "hi", Func: expr.AggMax, Attr: "score"},
				}})
		},
	}
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		a := randomDataset(rng, fmt.Sprintf("A%d", trial), 3+trial, 40)
		b := randomDataset(rng, fmt.Sprintf("B%d", trial), 2+trial, 40)
		aClone, bClone := a.Clone(), b.Clone()
		for _, cfg := range allConfigs() {
			for name, op := range ops {
				label := fmt.Sprintf("trial %d mode=%s %s", trial, cfg.Mode, name)
				out, err := op(cfg, a, b)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if err := out.Validate(); err != nil {
					t.Errorf("%s: invalid output: %v", label, err)
				}
				datasetsEquivalent(t, label+" input A", aClone, a)
				datasetsEquivalent(t, label+" input B", bClone, b)
			}
		}
	}
}

// TestPlanOutputInvariants runs whole multi-operator plans — not single
// kernels — under Config.ValidateOutputs, which re-checks the canonical
// region order, schema-width value arity, typed values and unique sample IDs
// after EVERY plan node. This is the same switch the difftest smoke harness
// flips, so any operator that emits an unsorted or schema-violating
// intermediate fails here and there, not just on hand-picked plans.
func TestPlanOutputInvariants(t *testing.T) {
	scoreGt := expr.Cmp{Op: expr.CmpGt, Left: expr.Attr{Name: "score"}, Right: expr.Const{Value: gdm.Float(2)}}
	plans := func() map[string]Node {
		scanA := &Scan{Dataset: "A"}
		scanB := &Scan{Dataset: "B"}
		return map[string]Node{
			"select-project-extend": &ExtendOp{
				Aggs: []expr.Aggregate{{Output: "n", Func: expr.AggCount}},
				Input: &ProjectOp{
					Args: ProjectArgs{Regions: []ProjectItem{
						{Name: "score"},
						{Name: "len", Expr: expr.Arith{Op: expr.OpSub, Left: expr.Attr{Name: "right"}, Right: expr.Attr{Name: "left"}}},
					}},
					Input: &SelectOp{Input: scanA, Meta: expr.MetaExists{Attr: "cell"}, Region: scoreGt},
				},
			},
			"join-over-union": &JoinOp{
				Left:  &UnionOp{Left: scanA, Right: scanB},
				Right: scanB,
				Args: JoinArgs{Pred: GenometricPred{Conds: []DistCond{{Op: DistLE, Dist: 500}}},
					Output: OutCat},
			},
			"cover-of-map": &CoverOp{
				Input: &MapOp{Ref: scanA, Exp: scanB, Args: MapArgs{Aggs: countAgg()}},
				Args: CoverArgs{Min: CoverBound{Kind: BoundN, N: 1}, Max: CoverBound{Kind: BoundAny},
					Variant: CoverHistogram},
			},
			"order-group-difference": &OrderOp{
				Args: OrderArgs{Keys: []OrderKey{{Attr: "cell"}}, Top: 4},
				Input: &GroupOp{
					Args:  GroupArgs{By: []string{"dataType"}, MetaAggs: []expr.Aggregate{{Output: "n", Func: expr.AggCountSamp}}},
					Input: &DifferenceOp{Left: scanA, Right: scanB},
				},
			},
			"merge-of-select": &MergeOp{
				GroupBy: []string{"cell"},
				Input:   &SelectOp{Input: scanA, Region: scoreGt},
			},
		}
	}
	for trial := 0; trial < 3; trial++ {
		rng := rand.New(rand.NewSource(int64(900 + trial)))
		cat := MapCatalog{
			"A": randomDataset(rng, "A", 4, 50),
			"B": randomDataset(rng, "B", 3, 50),
		}
		for _, cfg := range allConfigs() {
			cfg.ValidateOutputs = true
			for name, plan := range plans() {
				if _, err := Run(cfg, plan, cat); err != nil {
					t.Errorf("trial %d mode=%s plan %s: %v", trial, cfg.Mode, name, err)
				}
			}
		}
	}
}

// TestValidateOutputsCatchesViolations proves the invariant check is live: a
// catalog dataset with out-of-order regions must fail the query as soon as
// any node consumes it with ValidateOutputs on.
func TestValidateOutputsCatchesViolations(t *testing.T) {
	bad := gdm.NewDataset("BAD", peakSchema())
	s := gdm.NewSample("s1")
	s.AddRegion(gdm.NewRegion("chr2", 10, 20, gdm.StrandNone), gdm.Float(1), gdm.Str("r"))
	s.AddRegion(gdm.NewRegion("chr1", 10, 20, gdm.StrandNone), gdm.Float(1), gdm.Str("r"))
	bad.Samples = append(bad.Samples, s) // bypass Add: regions deliberately unsorted
	cfg := Config{Mode: ModeSerial, ValidateOutputs: true}
	_, err := Run(cfg, &Scan{Dataset: "BAD"}, MapCatalog{"BAD": bad})
	if err == nil {
		t.Fatal("unsorted scan output passed ValidateOutputs")
	}
}

// TestMapCardinalityLawProperty: |output sample regions| == |ref sample
// regions| for every pair, across random inputs and backends.
func TestMapCardinalityLawProperty(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		ref := randomDataset(rng, "REF", 1+trial%3, 30)
		exp := randomDataset(rng, "EXP", 2, 30)
		for _, cfg := range allConfigs() {
			out, err := Map(cfg, ref, exp, MapArgs{Aggs: countAgg()})
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Samples) != len(ref.Samples)*len(exp.Samples) {
				t.Fatalf("trial %d: %d output samples, want %d",
					trial, len(out.Samples), len(ref.Samples)*len(exp.Samples))
			}
			// Each output sample corresponds to one ref sample; counts per
			// ref sample size must match.
			sizes := map[int]int{}
			for _, s := range ref.Samples {
				sizes[len(s.Regions)] += len(exp.Samples)
			}
			got := map[int]int{}
			for _, s := range out.Samples {
				got[len(s.Regions)]++
			}
			for n, want := range sizes {
				if got[n] < want {
					t.Fatalf("trial %d: %d samples with %d regions, want >= %d", trial, got[n], n, want)
				}
			}
		}
	}
}

// TestMapCountConservation: the total MAP count equals the number of
// (ref region, exp region) overlapping pairs computed by brute force.
func TestMapCountConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	ref := randomDataset(rng, "REF", 2, 50)
	exp := randomDataset(rng, "EXP", 2, 50)
	out, err := Map(Config{}, ref, exp, MapArgs{Aggs: countAgg()})
	if err != nil {
		t.Fatal(err)
	}
	ci, _ := out.Schema.Index("count")
	var got int64
	for _, s := range out.Samples {
		for i := range s.Regions {
			got += s.Row(i)[ci].Int()
		}
	}
	var want int64
	for _, rs := range ref.Samples {
		for _, es := range exp.Samples {
			for _, rr := range rs.Regions {
				for _, er := range es.Regions {
					if rr.Overlaps(er) {
						want++
					}
				}
			}
		}
	}
	if got != want {
		t.Errorf("total count = %d, brute force says %d", got, want)
	}
}

// TestDifferenceSubset: every output region exists in the left input.
func TestDifferenceSubsetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(600))
	left := randomDataset(rng, "L", 3, 60)
	right := randomDataset(rng, "R", 3, 60)
	out, err := Difference(Config{}, left, right, DifferenceArgs{})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range out.Samples {
		src := left.Samples[i]
		if len(s.Regions) > len(src.Regions) {
			t.Fatalf("difference grew sample %s", s.ID)
		}
		// Each surviving region must appear in the source (two-pointer scan
		// over sorted regions).
		j := 0
		for k, r := range s.Regions {
			for j < len(src.Regions) && fmt.Sprint(src.Regions[j], src.Row(j)) != fmt.Sprint(s.Regions[k], s.Row(k)) {
				j++
			}
			if j == len(src.Regions) {
				t.Fatalf("region %s not in source sample %s", r, s.ID)
			}
		}
	}
}

// TestUnionCountProperty: sample count adds up, region count adds up.
func TestUnionCountProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	a := randomDataset(rng, "A", 4, 30)
	b := randomDataset(rng, "B", 3, 30)
	out, err := Union(Config{}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Samples) != 7 {
		t.Errorf("samples = %d", len(out.Samples))
	}
	if out.NumRegions() != a.NumRegions()+b.NumRegions() {
		t.Errorf("regions = %d, want %d", out.NumRegions(), a.NumRegions()+b.NumRegions())
	}
}
