package engine

import (
	"math/rand"
	"strings"
	"testing"

	"genogo/internal/expr"
	"genogo/internal/gdm"
)

// headlinePlan builds the paper's Section 2 query:
//
//	PROMS  = SELECT(annType == 'promoter') ANNOTATIONS;
//	PEAKS  = SELECT(dataType == 'ChipSeq') ENCODE;
//	RESULT = MAP(peak_count AS COUNT) PROMS PEAKS;
func headlinePlan() Node {
	return &MapOp{
		Ref: &SelectOp{
			Input: &Scan{Dataset: "ANNOTATIONS"},
			Meta:  expr.MetaCmp{Attr: "annType", Op: expr.CmpEq, Value: "promoter"},
		},
		Exp: &SelectOp{
			Input: &Scan{Dataset: "ENCODE"},
			Meta:  expr.MetaCmp{Attr: "dataType", Op: expr.CmpEq, Value: "ChipSeq"},
		},
		Args: MapArgs{Aggs: []expr.Aggregate{{Output: "peak_count", Func: expr.AggCount}}},
	}
}

func headlineCatalog(t *testing.T) MapCatalog {
	anns := mkDataset(t, "ANNOTATIONS",
		mkSample("proms", map[string]string{"annType": "promoter"},
			regSpec{"chr1", 0, 1000, gdm.StrandNone, 0, "P1"},
			regSpec{"chr1", 5000, 6000, gdm.StrandNone, 0, "P2"},
		),
		mkSample("genes", map[string]string{"annType": "gene"},
			regSpec{"chr1", 0, 99999, gdm.StrandNone, 0, "G"},
		),
	)
	encode := mkDataset(t, "ENCODE",
		mkSample("chip1", map[string]string{"dataType": "ChipSeq"},
			regSpec{"chr1", 100, 200, gdm.StrandNone, 1, "pk"},
			regSpec{"chr1", 5100, 5200, gdm.StrandNone, 2, "pk"},
			regSpec{"chr1", 5150, 5250, gdm.StrandNone, 3, "pk"},
		),
		mkSample("chip2", map[string]string{"dataType": "ChipSeq"},
			regSpec{"chr1", 900, 1100, gdm.StrandNone, 4, "pk"},
		),
		mkSample("rna1", map[string]string{"dataType": "RnaSeq"},
			regSpec{"chr1", 0, 10, gdm.StrandNone, 5, "rx"},
		),
	)
	return MapCatalog{"ANNOTATIONS": anns, "ENCODE": encode}
}

func TestRunHeadlineQueryAllModes(t *testing.T) {
	cat := headlineCatalog(t)
	var ref *gdm.Dataset
	for _, cfg := range allConfigs() {
		out, err := Run(cfg, headlinePlan(), cat)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		// 1 promoter sample x 2 ChipSeq samples.
		if len(out.Samples) != 2 {
			t.Fatalf("%v: samples = %d", cfg, len(out.Samples))
		}
		ci, ok := out.Schema.Index("peak_count")
		if !ok {
			t.Fatalf("%v: schema = %s", cfg, out.Schema)
		}
		// Total peaks mapped: chip1 contributes 1 (P1) + 2 (P2); chip2
		// contributes 1 (P1, boundary overlap 900-1000).
		total := int64(0)
		for _, s := range out.Samples {
			for i := range s.Regions {
				total += s.Row(i)[ci].Int()
			}
		}
		if total != 4 {
			t.Errorf("%v: total mapped peaks = %d, want 4", cfg, total)
		}
		if ref == nil {
			ref = out
		} else {
			datasetsEquivalent(t, cfg.Mode.String(), ref, out)
		}
	}
}

// TestModeEquivalenceRandomPlans runs a library of plan shapes over random
// data on all backends and demands identical results — the core invariant
// behind the paper's framework-independence claim.
func TestModeEquivalenceRandomPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	a := randomDataset(rng, "A", 4, 60)
	b := randomDataset(rng, "B", 3, 60)
	cat := MapCatalog{"A": a, "B": b}
	scoreGt := func(v float64) expr.Node {
		return expr.Cmp{Op: expr.CmpGt, Left: expr.Attr{Name: "score"}, Right: expr.Const{Value: gdm.Float(v)}}
	}
	plans := map[string]Node{
		"select-chain": &SelectOp{
			Input:  &SelectOp{Input: &Scan{Dataset: "A"}, Region: scoreGt(2)},
			Region: scoreGt(5),
		},
		"select-project-extend": &ExtendOp{
			Input: &ProjectOp{
				Input: &SelectOp{Input: &Scan{Dataset: "A"}, Region: scoreGt(3)},
				Args: ProjectArgs{Regions: []ProjectItem{
					{Name: "score"},
					{Name: "len", Expr: expr.Arith{Op: expr.OpSub,
						Left: expr.Attr{Name: "right"}, Right: expr.Attr{Name: "left"}}},
				}},
			},
			Aggs: []expr.Aggregate{{Output: "n", Func: expr.AggCount}},
		},
		"map": &MapOp{
			Ref: &Scan{Dataset: "A"}, Exp: &Scan{Dataset: "B"},
			Args: MapArgs{Aggs: []expr.Aggregate{
				{Output: "n", Func: expr.AggCount},
				{Output: "avg", Func: expr.AggAvg, Attr: "score"},
			}},
		},
		"join": &JoinOp{
			Left: &Scan{Dataset: "A"}, Right: &Scan{Dataset: "B"},
			Args: JoinArgs{
				Pred:   GenometricPred{Conds: []DistCond{{Op: DistLE, Dist: 300}}},
				Output: OutCat,
			},
		},
		"cover": &CoverOp{
			Input: &Scan{Dataset: "A"},
			Args: CoverArgs{Min: CoverBound{Kind: BoundN, N: 2},
				Max: CoverBound{Kind: BoundAny}, Variant: CoverHistogram},
		},
		"difference-union": &DifferenceOp{
			Left:  &UnionOp{Left: &Scan{Dataset: "A"}, Right: &Scan{Dataset: "B"}},
			Right: &Scan{Dataset: "B"},
		},
		"merge-order": &OrderOp{
			Input: &ExtendOp{
				Input: &MergeOp{Input: &Scan{Dataset: "A"}, GroupBy: []string{"cell"}},
				Aggs:  []expr.Aggregate{{Output: "n", Func: expr.AggCount}},
			},
			Args: OrderArgs{Keys: []OrderKey{{Attr: "n", Desc: true}}, Top: 2},
		},
		"group": &GroupOp{
			Input: &Scan{Dataset: "A"},
			Args: GroupArgs{By: []string{"dataType"},
				MetaAggs: []expr.Aggregate{{Output: "n", Func: expr.AggCountSamp}}},
		},
	}
	for name, plan := range plans {
		var ref *gdm.Dataset
		for _, cfg := range allConfigs() {
			out, err := Run(cfg, plan, cat)
			if err != nil {
				t.Fatalf("%s %v: %v", name, cfg, err)
			}
			if ref == nil {
				ref = out
			} else {
				datasetsEquivalent(t, name+"/"+cfg.Mode.String(), ref, out)
			}
		}
	}
}

func TestRunUnknownDataset(t *testing.T) {
	_, err := Run(Config{}, &Scan{Dataset: "NOPE"}, MapCatalog{})
	if err == nil || !strings.Contains(err.Error(), "NOPE") {
		t.Errorf("err = %v", err)
	}
}

func TestRunErrorPropagation(t *testing.T) {
	cat := headlineCatalog(t)
	plans := []Node{
		&SelectOp{Input: &Scan{Dataset: "NOPE"}},
		&ProjectOp{Input: &Scan{Dataset: "ANNOTATIONS"},
			Args: ProjectArgs{Regions: []ProjectItem{{Name: "zzz"}}}},
		&MapOp{Ref: &Scan{Dataset: "NOPE"}, Exp: &Scan{Dataset: "ENCODE"}},
		&MapOp{Ref: &Scan{Dataset: "ANNOTATIONS"}, Exp: &Scan{Dataset: "NOPE"}},
		&UnionOp{Left: &Scan{Dataset: "NOPE"}, Right: &Scan{Dataset: "ENCODE"}},
		&ExtendOp{Input: &Scan{Dataset: "ANNOTATIONS"},
			Aggs: []expr.Aggregate{{Output: "x", Func: expr.AggSum, Attr: "zzz"}}},
	}
	for i, p := range plans {
		for _, cfg := range allConfigs() {
			if _, err := Run(cfg, p, cat); err == nil {
				t.Errorf("plan %d mode %s: error not propagated", i, cfg.Mode)
			}
		}
	}
}

func TestOptimizeMergesSelects(t *testing.T) {
	plan := &SelectOp{
		Input: &SelectOp{
			Input: &Scan{Dataset: "A"},
			Meta:  expr.MetaCmp{Attr: "a", Op: expr.CmpEq, Value: "1"},
		},
		Meta: expr.MetaCmp{Attr: "b", Op: expr.CmpEq, Value: "2"},
	}
	opt := Optimize(plan)
	sel, ok := opt.(*SelectOp)
	if !ok {
		t.Fatalf("optimized to %T", opt)
	}
	if _, ok := sel.Input.(*Scan); !ok {
		t.Fatalf("selects not merged: %s", Explain(opt))
	}
	if !strings.Contains(sel.Meta.String(), "AND") {
		t.Errorf("meta predicates not ANDed: %s", sel.Meta)
	}
}

func TestOptimizePushesSelectThroughUnion(t *testing.T) {
	plan := &SelectOp{
		Input: &UnionOp{Left: &Scan{Dataset: "A"}, Right: &Scan{Dataset: "B"}},
		Meta:  expr.MetaCmp{Attr: "a", Op: expr.CmpEq, Value: "1"},
	}
	opt := Optimize(plan)
	u, ok := opt.(*UnionOp)
	if !ok {
		t.Fatalf("optimized to %T: %s", opt, Explain(opt))
	}
	if _, ok := u.Left.(*SelectOp); !ok {
		t.Error("select not pushed into left branch")
	}
	if _, ok := u.Right.(*SelectOp); !ok {
		t.Error("select not pushed into right branch")
	}
}

func TestOptimizePreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	a := randomDataset(rng, "A", 4, 50)
	b := randomDataset(rng, "B", 3, 50)
	cat := MapCatalog{"A": a, "B": b}
	plan := func() Node {
		return &SelectOp{
			Input: &SelectOp{
				Input: &UnionOp{Left: &Scan{Dataset: "A"}, Right: &Scan{Dataset: "B"}},
				Meta:  expr.MetaCmp{Attr: "dataType", Op: expr.CmpEq, Value: "ChipSeq"},
			},
			Region: expr.Cmp{Op: expr.CmpGt, Left: expr.Attr{Name: "score"},
				Right: expr.Const{Value: gdm.Float(4)}},
		}
	}
	cfg := Config{Mode: ModeSerial}
	plain, err := Run(cfg, plan(), cat)
	if err != nil {
		t.Fatal(err)
	}
	optimized, err := Run(cfg, Optimize(plan()), cat)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEquivalent(t, "optimize", plain, optimized)
}

func TestStreamFusionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomDataset(rng, "A", 5, 80)
	cat := MapCatalog{"A": a}
	plan := func() Node {
		return &ExtendOp{
			Input: &ProjectOp{
				Input: &SelectOp{
					Input: &Scan{Dataset: "A"},
					Meta:  expr.MetaCmp{Attr: "dataType", Op: expr.CmpEq, Value: "ChipSeq"},
					Region: expr.Cmp{Op: expr.CmpLt, Left: expr.Attr{Name: "score"},
						Right: expr.Const{Value: gdm.Float(8)}},
				},
				Args: ProjectArgs{Regions: []ProjectItem{{Name: "score"}}},
			},
			Aggs: []expr.Aggregate{{Output: "total", Func: expr.AggSum, Attr: "score"}},
		}
	}
	fused, err := Run(Config{Mode: ModeStream, Workers: 3}, plan(), cat)
	if err != nil {
		t.Fatal(err)
	}
	unfused, err := Run(Config{Mode: ModeBatch, Workers: 3}, plan(), cat)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEquivalent(t, "fusion", fused, unfused)
}

func TestExplainCoversAllNodes(t *testing.T) {
	plan := &OrderOp{
		Args: OrderArgs{Keys: []OrderKey{{Attr: "n", Desc: true}}, Top: 3},
		Input: &GroupOp{
			Args: GroupArgs{By: []string{"cell"}, MetaAggs: []expr.Aggregate{{Output: "n", Func: expr.AggCountSamp}}},
			Input: &MergeOp{
				GroupBy: []string{"cell"},
				Input: &CoverOp{
					Args: CoverArgs{Min: CoverBound{Kind: BoundN, N: 2}, Max: CoverBound{Kind: BoundAll}},
					Input: &DifferenceOp{
						Left: &JoinOp{
							Args: JoinArgs{Pred: GenometricPred{
								Conds: []DistCond{{Op: DistLE, Dist: 100}}, MinDistK: 2, Stream: StreamUp},
								Output: OutInt},
							Left: &MapOp{
								Args: MapArgs{Aggs: []expr.Aggregate{{Output: "c", Func: expr.AggCount}}},
								Ref:  &ExtendOp{Input: &Scan{Dataset: "X"}, Aggs: []expr.Aggregate{{Output: "e", Func: expr.AggCount}}},
								Exp: &ProjectOp{Input: &Scan{Dataset: "Y"},
									Args: ProjectArgs{Regions: []ProjectItem{{Name: "a", Expr: expr.Attr{Name: "b"}}}}},
							},
							Right: &Scan{Dataset: "Z"},
						},
						Right: &UnionOp{
							Left:  &SelectOp{Input: &Scan{Dataset: "W"}},
							Right: &Scan{Dataset: "V"},
						},
					},
				},
			},
		},
	}
	text := Explain(plan)
	for _, frag := range []string{
		"ORDER", "GROUP", "MERGE", "COVER(2, ALL)", "DIFFERENCE", "JOIN",
		"DLE(100)", "MD(2)", "UP", "MAP", "EXTEND", "PROJECT", "SELECT",
		"UNION", "SCAN X", "SCAN Y", "SCAN Z", "SCAN W", "SCAN V",
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("Explain missing %q:\n%s", frag, text)
		}
	}
}

func TestModeStrings(t *testing.T) {
	if ModeSerial.String() != "serial" || ModeBatch.String() != "batch" || ModeStream.String() != "stream" {
		t.Error("mode names wrong")
	}
	if DistLE.String() != "DLE" || DistGT.String() != "DG" {
		t.Error("dist op names wrong")
	}
	if OutInt.String() != "INT" || OutCat.String() != "CAT" {
		t.Error("output names wrong")
	}
	if CoverStandard.String() != "COVER" || CoverSummit.String() != "SUMMIT" {
		t.Error("cover names wrong")
	}
	if (CoverBound{Kind: BoundAll}).String() != "ALL" || (CoverBound{Kind: BoundN, N: 3}).String() != "3" {
		t.Error("bound names wrong")
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Mode != ModeStream || cfg.Workers < 1 {
		t.Errorf("DefaultConfig = %+v", cfg)
	}
	if (Config{Mode: ModeSerial, Workers: 8}).workers() != 1 {
		t.Error("serial must use one worker")
	}
	if (Config{Mode: ModeBatch, Workers: 3}).workers() != 3 {
		t.Error("explicit workers ignored")
	}
}

// TestParseMode: ParseMode inverts Mode.String and rejects unknown names.
func TestParseMode(t *testing.T) {
	for _, m := range []Mode{ModeSerial, ModeBatch, ModeStream} {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, name := range []string{"nope", "", "Stream", Mode(9).String()} {
		if _, err := ParseMode(name); err == nil {
			t.Errorf("ParseMode(%q) accepted", name)
		}
	}
}

// TestFusedChainWithSemijoin: the stream backend must resolve the semijoin's
// external dataset even when the SELECT sits inside a fused chain.
func TestFusedChainWithSemijoin(t *testing.T) {
	cat := headlineCatalog(t)
	mkPlan := func() Node {
		return &ExtendOp{
			Input: &SelectOp{
				Input: &Scan{Dataset: "ENCODE"},
				SemiJoin: &SemiJoin{
					Attrs: []string{"dataType"},
					External: &SelectOp{
						Input: &Scan{Dataset: "ENCODE"},
						Meta:  expr.MetaCmp{Attr: "dataType", Op: expr.CmpEq, Value: "RnaSeq"},
					},
				},
			},
			Aggs: []expr.Aggregate{{Output: "n", Func: expr.AggCount}},
		}
	}
	fused, err := Run(Config{Mode: ModeStream, Workers: 2}, mkPlan(), cat)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Run(Config{Mode: ModeSerial}, mkPlan(), cat)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEquivalent(t, "semijoin fusion", serial, fused)
	if len(fused.Samples) != 1 || fused.Samples[0].ID != "rna1" {
		t.Errorf("samples = %v", fused.Samples)
	}
	// Semijoin with a broken external errors out in both paths.
	broken := &SelectOp{
		Input:    &Scan{Dataset: "ENCODE"},
		SemiJoin: &SemiJoin{Attrs: []string{"x"}, External: &Scan{Dataset: "NOPE"}},
	}
	for _, cfg := range allConfigs() {
		if _, err := Run(cfg, &ProjectOp{Input: broken, Args: ProjectArgs{}}, cat); err == nil {
			t.Errorf("%v: broken semijoin external swallowed", cfg)
		}
	}
}
