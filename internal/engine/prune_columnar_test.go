package engine

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"genogo/internal/expr"
	"genogo/internal/formats"
	"genogo/internal/gdm"
	"genogo/internal/obs"
)

// writeColumnarCatalog materializes datasets in the columnar layout under a
// temp root and returns the disk catalog — the PrunedCatalog the engine's
// partition-skipping read path needs.
func writeColumnarCatalog(t *testing.T, datasets ...*gdm.Dataset) *formats.DirCatalog {
	t.Helper()
	root := t.TempDir()
	for _, ds := range datasets {
		if err := formats.WriteDatasetColumnar(filepath.Join(root, ds.Name), ds); err != nil {
			t.Fatal(err)
		}
	}
	return formats.NewDirCatalog(root)
}

// sumSkipped totals the pruned-read accounting over a span tree.
func sumSkipped(sp *obs.Span) (consulted, skipped int, regions int64) {
	for _, s := range sp.Flatten() {
		consulted += s.PartsConsulted
		skipped += s.PartsSkipped
		regions += s.RegionsSkipped
	}
	return
}

func startCmp(op expr.CmpOp, v int64) expr.Node {
	return expr.Cmp{Op: op, Left: expr.Attr{Name: "start"}, Right: expr.Const{Value: gdm.Int(v)}}
}

func stopCmp(op expr.CmpOp, v int64) expr.Node {
	return expr.Cmp{Op: op, Left: expr.Attr{Name: "stop"}, Right: expr.Const{Value: gdm.Int(v)}}
}

// boundaryDataset has two single-chromosome partitions with hand-computed
// zone windows: sample lo spans [100,200) and sample hi spans [500,600), both
// on chr1.
func boundaryDataset(t *testing.T) *gdm.Dataset {
	t.Helper()
	return mkDataset(t, "B",
		mkSample("lo", nil, regSpec{"chr1", 100, 200, gdm.StrandNone, 1, "lo"}),
		mkSample("hi", nil, regSpec{"chr1", 500, 600, gdm.StrandNone, 2, "hi"}),
	)
}

// TestPrunedSelectBoundary pins the zone-window comparisons at their exact
// off-by-one boundaries: a partition [minStart, maxStop) must be skipped only
// when the predicate window provably clears it, and the pruned result must
// equal the unpruned result either way.
func TestPrunedSelectBoundary(t *testing.T) {
	ds := boundaryDataset(t)
	cases := []struct {
		name        string
		pred        expr.Node
		wantSkipped int
	}{
		// start >= K: lo's maxStop is 200, so 200 is reachable-in-window
		// (kept, conservative) and 201 is provably empty (skipped).
		{"ge-at-maxstop", startCmp(expr.CmpGe, 200), 0},
		{"ge-past-maxstop", startCmp(expr.CmpGe, 201), 1},
		// start > K: window Lo becomes K+1.
		{"gt-at-maxstop-minus-1", startCmp(expr.CmpGt, 199), 0},
		{"gt-at-maxstop", startCmp(expr.CmpGt, 200), 1},
		// stop <= K: hi's minStart is 500, so 500 keeps it and 499 skips it.
		{"le-at-minstart", stopCmp(expr.CmpLe, 500), 0},
		{"le-below-minstart", stopCmp(expr.CmpLe, 499), 1},
		// stop < K: window Hi becomes K-1.
		{"lt-above-minstart", stopCmp(expr.CmpLt, 501), 0},
		{"lt-at-minstart", stopCmp(expr.CmpLt, 500), 1},
		// Both partitions cleared.
		{"window-between-zones", expr.And{Left: startCmp(expr.CmpGe, 250), Right: stopCmp(expr.CmpLe, 450)}, 2},
		// Absent chromosome.
		{"absent-chrom", chromEq("chrM"), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := &SelectOp{Input: &Scan{Dataset: "B"}, Region: tc.pred}
			cat := writeColumnarCatalog(t, ds)
			got, root, err := NewSession(Config{Mode: ModeSerial}, cat).EvalProfiled(plan)
			if err != nil {
				t.Fatal(err)
			}
			consulted, skipped, _ := sumSkipped(root)
			if consulted != 2 || skipped != tc.wantSkipped {
				t.Errorf("skipped = %d of %d partitions, want %d of 2", skipped, consulted, tc.wantSkipped)
			}
			want, _, err := NewSession(Config{Mode: ModeSerial, DisablePruning: true},
				writeColumnarCatalog(t, ds)).EvalProfiled(plan)
			if err != nil {
				t.Fatal(err)
			}
			datasetsEquivalent(t, tc.name, want, got)
		})
	}
}

// TestPrunedSelectEquivalenceAllModes: pruned reads must be invisible to
// results under every scheduling mode, fused (stream) or not, on a dataset
// large enough to have partitions worth skipping — and on the
// chromosome-restricted SELECT, pruning must actually engage.
func TestPrunedSelectEquivalenceAllModes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := randomDataset(rng, "R", 6, 40)
	oracle := NewSession(Config{Mode: ModeSerial}, MapCatalog{"R": ds})
	preds := []expr.Node{
		chromEq("chr2"),
		startCmp(expr.CmpGe, 60000),
		expr.And{Left: chromEq("chr1"), Right: stopCmp(expr.CmpLe, 30000)},
	}
	configs := append(allConfigs(),
		Config{Mode: ModeBatch, Workers: 1})
	for pi, pred := range preds {
		plan := &SelectOp{Input: &Scan{Dataset: "R"}, Region: pred}
		want, err := oracle.Eval(plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range configs {
			for _, noPrune := range []bool{false, true} {
				cfg := cfg
				cfg.DisablePruning = noPrune
				got, root, err := NewSession(cfg, writeColumnarCatalog(t, ds)).EvalProfiled(plan)
				if err != nil {
					t.Fatalf("pred %d %s noprune=%v: %v", pi, cfg.Mode, noPrune, err)
				}
				datasetsEquivalent(t, cfg.Mode.String(), want, got)
				if _, skipped, _ := sumSkipped(root); pi == 0 && !noPrune && skipped == 0 {
					t.Errorf("%s: chr2 SELECT skipped no partitions:\n%s", cfg.Mode, root.Render())
				}
			}
		}
	}
}

// TestPrunedJoinDistanceBoundary pins the JOIN distance bound at its exact
// edge: regions [100,200) and [700,800) are exactly 500 apart, so DLE 500
// must keep (and match) both partitions while DLE 499 must skip them — on
// both sides, since the left prunes against the right's manifest stats and
// the right against the materialized left.
func TestPrunedJoinDistanceBoundary(t *testing.T) {
	left := mkDataset(t, "L", mkSample("l", nil, regSpec{"chr1", 100, 200, gdm.StrandNone, 1, "a"}))
	right := mkDataset(t, "R", mkSample("r", nil, regSpec{"chr1", 700, 800, gdm.StrandNone, 2, "b"}))
	mk := func(dist int64) *JoinOp {
		return &JoinOp{
			Left:  &Scan{Dataset: "L"},
			Right: &Scan{Dataset: "R"},
			Args: JoinArgs{
				Pred:   GenometricPred{Conds: []DistCond{{Op: DistLE, Dist: dist}}},
				Output: OutLeft,
			},
		}
	}
	run := func(dist int64, noPrune bool) (*gdm.Dataset, *obs.Span) {
		cfg := Config{Mode: ModeSerial, DisablePruning: noPrune}
		ds, root, err := NewSession(cfg, writeColumnarCatalog(t, left, right)).EvalProfiled(mk(dist))
		if err != nil {
			t.Fatal(err)
		}
		return ds, root
	}

	at, root := run(500, false)
	if _, skipped, _ := sumSkipped(root); skipped != 0 {
		t.Errorf("distance exactly at bound skipped %d partitions", skipped)
	}
	if n := len(at.Samples[0].Regions); n != 1 {
		t.Errorf("at-bound join output %d regions, want 1", n)
	}
	past, root := run(499, false)
	if _, skipped, _ := sumSkipped(root); skipped != 2 {
		t.Errorf("distance past bound skipped %d partitions, want 2 (both sides)", skipped)
	}
	for _, dist := range []int64{499, 500} {
		got, _ := run(dist, false)
		want, _ := run(dist, true)
		datasetsEquivalent(t, "join", want, got)
	}
	if n := len(past.Samples[0].Regions); n != 0 {
		t.Errorf("past-bound join output %d regions, want 0", n)
	}
}

// TestPrunedMapBoundary: an experiment partition exactly adjacent to the
// reference extent ([200,300) against [100,200)) provably overlaps nothing
// under half-open coordinates and must be skipped; one overlapping by a
// single base must be kept. Skipped partitions only remove zero counts, so
// pruned ≡ unpruned.
func TestPrunedMapBoundary(t *testing.T) {
	ref := mkDataset(t, "REF", mkSample("r", nil, regSpec{"chr1", 100, 200, gdm.StrandNone, 0, "g"}))
	exp := mkDataset(t, "EXP",
		mkSample("adj", nil, regSpec{"chr1", 200, 300, gdm.StrandNone, 1, "adj"}),
		mkSample("ovl", nil, regSpec{"chr1", 199, 250, gdm.StrandNone, 2, "ovl"}),
	)
	plan := &MapOp{
		Ref:  &Scan{Dataset: "REF"},
		Exp:  &Scan{Dataset: "EXP"},
		Args: MapArgs{Aggs: countAgg()},
	}
	got, root, err := NewSession(Config{Mode: ModeSerial},
		writeColumnarCatalog(t, ref, exp)).EvalProfiled(plan)
	if err != nil {
		t.Fatal(err)
	}
	consulted, skipped, _ := sumSkipped(root)
	if consulted != 2 || skipped != 1 {
		t.Errorf("map skipped %d of %d partitions, want 1 of 2", skipped, consulted)
	}
	want, _, err := NewSession(Config{Mode: ModeSerial, DisablePruning: true},
		writeColumnarCatalog(t, ref, exp)).EvalProfiled(plan)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEquivalent(t, "map", want, got)
	if !strings.Contains(root.Render(), "skipped=") {
		t.Errorf("profile missing skipped accounting:\n%s", root.Render())
	}
}

// TestPrunedScanNotCached: a pruned scan result is a query-specific subset
// and must never enter the plan-node cache — re-evaluating the same Scan node
// in full afterwards has to see every region.
func TestPrunedScanNotCached(t *testing.T) {
	ds := boundaryDataset(t)
	scan := &Scan{Dataset: "B"}
	sess := NewSession(Config{Mode: ModeSerial}, writeColumnarCatalog(t, ds))
	restricted := &SelectOp{Input: scan, Region: startCmp(expr.CmpGe, 450)}
	first, root, err := sess.EvalProfiled(restricted)
	if err != nil {
		t.Fatal(err)
	}
	if _, skipped, _ := sumSkipped(root); skipped != 1 {
		t.Fatalf("restricted select skipped %d partitions, want 1", skipped)
	}
	if n := regionCount(first); n != 1 {
		t.Fatalf("restricted select returned %d regions, want 1", n)
	}
	// The same Scan node, evaluated in full by the same session, must not see
	// the pruned subset.
	full, err := sess.Eval(scan)
	if err != nil {
		t.Fatal(err)
	}
	if n := regionCount(full); n != 2 {
		t.Errorf("full scan after pruned select returned %d regions, want 2", n)
	}
}

// sumSamples totals the samples a tree's proofs rejected by metadata: after
// the read (prunable=) and before it (skipped=).
func sumSamples(sp *obs.Span) (prunable, skipped int) {
	for _, s := range sp.Flatten() {
		prunable += s.PrunableSamples
		skipped += s.SamplesSkipped
	}
	return
}

// sumPrunable totals the after-read accounting over a span tree.
func sumPrunable(sp *obs.Span) (consulted, prunable int, regions int64) {
	for _, s := range sp.Flatten() {
		consulted += s.PruneParts
		prunable += s.PrunableParts
		regions += s.PrunableRegions
	}
	return
}

// TestPrunedEqualsPrunableProperty: each pruning operator has one proof, so
// what a traced run on an in-memory catalog (or under DisablePruning) reports
// as prunable= is exactly what a pruned read of the same data on a columnar
// catalog skips — and neither changes the result, which must equal the
// DisablePruning run's. A SELECT's metadata predicate skips exactly the
// samples it rejects, and nothing under a semijoin.
func TestPrunedEqualsPrunableProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	chroms := []string{"chr1", "chr2", "chr3", "chrX", "chrM"}
	window := func() expr.Node {
		k := rng.Int63n(110000)
		switch rng.Intn(5) {
		case 0:
			return chromEq(chroms[rng.Intn(len(chroms))])
		case 1:
			return startCmp([]expr.CmpOp{expr.CmpGe, expr.CmpGt}[rng.Intn(2)], k)
		case 2:
			return stopCmp([]expr.CmpOp{expr.CmpLe, expr.CmpLt}[rng.Intn(2)], k)
		case 3:
			return expr.And{Left: chromEq(chroms[rng.Intn(len(chroms))]), Right: stopCmp(expr.CmpLe, k)}
		default:
			return expr.And{Left: startCmp(expr.CmpGe, k), Right: stopCmp(expr.CmpLe, k+rng.Int63n(40000))}
		}
	}
	skippedBy := make(map[string]int) // the property must not hold vacuously
	for iter := 0; iter < 12; iter++ {
		// Few regions per sample keep partition windows narrow enough for
		// MAP and JOIN extents to prune something.
		a := randomDataset(rng, "A", 1+rng.Intn(5), 1+rng.Intn(8))
		b := randomDataset(rng, "B", 1+rng.Intn(5), 1+rng.Intn(8))
		mem := MapCatalog{"A": a, "B": b}
		disk := writeColumnarCatalog(t, a, b)
		dle := GenometricPred{Conds: []DistCond{{Op: DistLE, Dist: rng.Int63n(20000)}}}
		pred := window()
		meta := expr.MetaCmp{Attr: "cell", Op: expr.CmpEq, Value: []string{"HeLa", "K562", "GM12878"}[rng.Intn(3)]}
		rejected := 0 // the samples of A the metadata predicate drops
		for _, s := range a.Samples {
			if !meta.EvalMeta(s.Meta) {
				rejected++
			}
		}
		semijoin := &SemiJoin{Attrs: []string{"cell"}, External: &Scan{Dataset: "B"}}
		plans := []struct {
			name string
			plan Node
			// bothScans marks the JOIN of two Scans, the one case where the
			// pruned read goes further than the after-read count: the right
			// side prunes against the already-pruned left's extents, while
			// prunable= sees the whole left. So skipped >= prunable there.
			bothScans bool
			// samples is how many samples the metadata half must skip.
			samples int
		}{
			{"select", &SelectOp{Input: &Scan{Dataset: "A"}, Region: pred}, false, 0},
			{"select-fused", &SelectOp{Input: &SelectOp{Input: &Scan{Dataset: "A"}, Region: pred}}, false, 0},
			{"select-meta", &SelectOp{Input: &Scan{Dataset: "A"}, Meta: meta, Region: pred}, false, rejected},
			{"select-meta-only", &SelectOp{Input: &Scan{Dataset: "A"}, Meta: meta}, false, rejected},
			{"select-meta-fused", &SelectOp{Input: &SelectOp{Input: &Scan{Dataset: "A"}, Meta: meta, Region: pred}}, false, rejected},
			{"select-semijoin", &SelectOp{Input: &Scan{Dataset: "A"}, Meta: meta, Region: pred, SemiJoin: semijoin}, false, 0},
			{"map", &MapOp{Ref: &Scan{Dataset: "A"}, Exp: &Scan{Dataset: "B"}, Args: MapArgs{Aggs: countAgg()}}, false, 0},
			{"map-selected-ref", &MapOp{
				Ref:  &SelectOp{Input: &Scan{Dataset: "A"}, Meta: meta, Region: pred},
				Exp:  &Scan{Dataset: "B"},
				Args: MapArgs{Aggs: countAgg()},
			}, false, rejected},
			{"join-dle", &JoinOp{
				Left: &Scan{Dataset: "A"}, Right: &Scan{Dataset: "B"},
				Args: JoinArgs{Pred: dle, Output: OutLeft},
			}, true, 0},
		}
		for _, cfg := range allConfigs() {
			for _, tc := range plans {
				label := fmt.Sprintf("iter %d %s %s", iter, cfg.Mode, tc.name)
				_, memRoot, err := NewSession(cfg, mem).EvalProfiled(tc.plan)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got, diskRoot, err := NewSession(cfg, disk).EvalProfiled(tc.plan)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				off := cfg
				off.DisablePruning = true
				want, offRoot, err := NewSession(off, disk).EvalProfiled(tc.plan)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				datasetsEquivalent(t, label, want, got)

				pc, pp, pr := sumPrunable(memRoot)
				if oc, op, or := sumPrunable(offRoot); oc != pc || op != pp || or != pr {
					t.Errorf("%s: DisablePruning on disk reports prunable=%dr/%dof%dp, in memory %dr/%dof%dp",
						label, or, op, oc, pr, pp, pc)
				}
				sc, sp, sr := sumSkipped(diskRoot)
				equal := pc == sc && pp == sp && pr == sr
				if tc.bothScans {
					equal = pc == sc && pp <= sp && pr <= sr
				}
				if !equal {
					t.Errorf("%s: prunable=%dr/%dof%dp but skipped=%dr/%dof%dp\n%s\n%s",
						label, pr, pp, pc, sr, sp, sc, memRoot.Render(), diskRoot.Render())
				}
				if c, _, _ := sumPrunable(diskRoot); c != 0 {
					t.Errorf("%s: pruned run also reports prunable= over %d partitions", label, c)
				}
				memSamples, _ := sumSamples(memRoot)
				diskPrunable, diskSamples := sumSamples(diskRoot)
				if memSamples != tc.samples || diskSamples != tc.samples || diskPrunable != 0 {
					t.Errorf("%s: metadata skipped %d samples on disk (prunable %d in memory, %d on disk), want %d",
						label, diskSamples, memSamples, diskPrunable, tc.samples)
				}
				skippedBy[tc.name] += sp + diskSamples
			}
		}
	}
	for name, n := range skippedBy {
		if n == 0 {
			t.Errorf("%s: no iteration skipped anything", name)
		}
	}
}

func regionCount(ds *gdm.Dataset) int {
	n := 0
	for _, s := range ds.Samples {
		n += len(s.Regions)
	}
	return n
}

// countingPred is a region predicate that keeps every region and records the
// name attribute of each row it is evaluated on.
type countingPred struct{ seen *[]string }

func (p countingPred) Bind(*gdm.Schema) (expr.Bound, error) { return p, nil }
func (p countingPred) String() string                       { return "counting" }
func (p countingPred) Eval(_ *gdm.Region, row []gdm.Value) gdm.Value {
	*p.seen = append(*p.seen, row[1].Str())
	return gdm.Int(1)
}

// TestPruneZeroConfigSkipsSamples: the zero Config evaluates a SELECT's
// metadata predicate first. The pruned read never opens the samples it
// rejects, and the region predicate never runs on their regions.
func TestPruneZeroConfigSkipsSamples(t *testing.T) {
	ds := mkDataset(t, "D",
		mkSample("a", map[string]string{"cell": "HeLa"}, regSpec{"chr1", 0, 10, gdm.StrandNone, 1, "kept"}),
		mkSample("b", map[string]string{"cell": "K562"}, regSpec{"chr1", 5, 15, gdm.StrandNone, 2, "rejected"},
			regSpec{"chr2", 5, 15, gdm.StrandNone, 3, "rejected"}),
		mkSample("c", map[string]string{"cell": "HeLa"}, regSpec{"chr2", 20, 30, gdm.StrandNone, 4, "kept"}),
		mkSample("d", map[string]string{"cell": "GM12878"}, regSpec{"chr1", 40, 50, gdm.StrandNone, 5, "rejected"}),
	)
	var seen []string
	plan := &SelectOp{
		Input:  &Scan{Dataset: "D"},
		Meta:   expr.MetaCmp{Attr: "cell", Op: expr.CmpEq, Value: "HeLa"},
		Region: countingPred{&seen},
	}
	got, root, err := NewSession(Config{}, writeColumnarCatalog(t, ds)).EvalProfiled(plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, skipped := sumSamples(root); skipped != 2 {
		t.Errorf("scan skipped %d samples, want the 2 the metadata predicate rejects:\n%s", skipped, root.Render())
	}
	if len(seen) != 2 || seen[0] != "kept" || seen[1] != "kept" {
		t.Errorf("region predicate ran on rows %q, want only the 2 kept samples' rows", seen)
	}
	if len(got.Samples) != 2 || got.NumRegions() != 2 {
		t.Errorf("result has %d samples, %d regions; want 2, 2", len(got.Samples), got.NumRegions())
	}
}
