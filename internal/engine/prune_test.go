package engine

import (
	"strings"
	"testing"

	"genogo/internal/expr"
	"genogo/internal/gdm"
)

// pruneCatalog holds partitions engineered so zone maps can prove some of
// them irrelevant: sample "a" spans chr1 and chr2, sample "b" lives on chr3
// far from everything, and REF covers only chr1's low coordinates.
func pruneCatalog(t *testing.T) MapCatalog {
	t.Helper()
	d := mkDataset(t, "D",
		mkSample("a", map[string]string{"cell": "HeLa"},
			regSpec{"chr1", 100, 200, gdm.StrandNone, 1, "r1"},
			regSpec{"chr1", 300, 400, gdm.StrandNone, 2, "r2"},
			regSpec{"chr2", 1000, 1100, gdm.StrandNone, 3, "r3"}),
		mkSample("b", map[string]string{"cell": "K562"},
			regSpec{"chr3", 50000, 50100, gdm.StrandNone, 4, "r4"}),
	)
	ref := mkDataset(t, "REF",
		mkSample("r", nil,
			regSpec{"chr1", 120, 180, gdm.StrandNone, 0, "g1"}),
	)
	return MapCatalog{"D": d, "REF": ref}
}

func chromEq(chrom string) expr.Node {
	return expr.Cmp{Op: expr.CmpEq, Left: expr.Attr{Name: "chrom"}, Right: expr.Const{Value: gdm.Str(chrom)}}
}

// TestRepoPrunableSelect: a traced SELECT whose region predicate names one
// chromosome counts every other-chromosome partition as prunable, and the
// rendered profile carries the counts.
func TestRepoPrunableSelect(t *testing.T) {
	plan := &SelectOp{Input: &Scan{Dataset: "D"}, Region: chromEq("chr2")}
	for _, cfg := range allConfigs() {
		s := NewSession(cfg, pruneCatalog(t))
		_, root, err := s.EvalProfiled(plan)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Mode, err)
		}
		// Partitions: a/chr1(2r), a/chr2(1r), b/chr3(1r). chr1 and chr3 are
		// provably empty under the predicate.
		if root.PruneParts != 3 || root.PrunableParts != 2 || root.PrunableRegions != 3 {
			t.Errorf("%s: prunable = %dr/%dof%dp, want 3r/2of3p",
				cfg.Mode, root.PrunableRegions, root.PrunableParts, root.PruneParts)
		}
		if !strings.Contains(root.Render(), "prunable=3r/2of3p") {
			t.Errorf("%s: profile missing prunable field:\n%s", cfg.Mode, root.Render())
		}
	}
}

// TestRepoPrunableSelectFused: the stream backend fuses SELECT chains, and
// the innermost SELECT still measures pruning against the chain's source.
func TestRepoPrunableSelectFused(t *testing.T) {
	plan := &SelectOp{
		Input:  &SelectOp{Input: &Scan{Dataset: "D"}, Region: chromEq("chr2")},
		Region: nil,
	}
	s := NewSession(Config{Mode: ModeStream, Workers: 2}, pruneCatalog(t))
	_, root, err := s.EvalProfiled(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Fused) != 2 {
		t.Fatalf("chain not fused: %v", root.Fused)
	}
	if root.PruneParts != 3 || root.PrunableParts != 2 {
		t.Errorf("fused prunable = %dof%dp, want 2of3p", root.PrunableParts, root.PruneParts)
	}
}

// TestRepoPrunableSelectUnconstrained: a predicate with no zone-checkable
// structure records nothing — prunable= must not appear.
func TestRepoPrunableSelectUnconstrained(t *testing.T) {
	gt := expr.Cmp{Op: expr.CmpGt, Left: expr.Attr{Name: "score"}, Right: expr.Const{Value: gdm.Float(1.5)}}
	plan := &SelectOp{Input: &Scan{Dataset: "D"}, Region: gt}
	s := NewSession(Config{Mode: ModeSerial}, pruneCatalog(t))
	_, root, err := s.EvalProfiled(plan)
	if err != nil {
		t.Fatal(err)
	}
	if root.PruneParts != 0 {
		t.Errorf("unconstrained predicate consulted %d partitions", root.PruneParts)
	}
	if strings.Contains(root.Render(), "prunable=") {
		t.Errorf("profile renders prunable for unconstrained predicate:\n%s", root.Render())
	}
}

// TestRepoPrunableJoin: with a distance upper bound, partitions on absent
// chromosomes and partitions beyond the bound are prunable on both sides.
func TestRepoPrunableJoin(t *testing.T) {
	plan := &JoinOp{
		Left:  &Scan{Dataset: "REF"},
		Right: &Scan{Dataset: "D"},
		Args: JoinArgs{
			Pred:   GenometricPred{Conds: []DistCond{{Op: DistLE, Dist: 500}}},
			Output: OutLeft,
		},
	}
	s := NewSession(Config{Mode: ModeSerial}, pruneCatalog(t))
	_, root, err := s.EvalProfiled(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Left: r/chr1(1r) reaches D's chr1 extent — kept. Right: a/chr1(2r)
	// within 500 of REF — kept; a/chr2(1r) and b/chr3(1r) are on
	// chromosomes REF lacks — prunable. 4 partitions consulted, 2 prunable.
	if root.PruneParts != 4 || root.PrunableParts != 2 || root.PrunableRegions != 2 {
		t.Errorf("join prunable = %dr/%dof%dp, want 2r/2of4p",
			root.PrunableRegions, root.PrunableParts, root.PruneParts)
	}
}

// TestRepoPrunableJoinDistance: the distance bound itself prunes a
// same-chromosome partition that is too far away.
func TestRepoPrunableJoinDistance(t *testing.T) {
	left := mkDataset(t, "L",
		mkSample("l", nil, regSpec{"chr1", 100, 200, gdm.StrandNone, 0, "x"}))
	right := mkDataset(t, "R",
		mkSample("near", nil, regSpec{"chr1", 250, 300, gdm.StrandNone, 0, "y"}),
		mkSample("far", nil, regSpec{"chr1", 900000, 900100, gdm.StrandNone, 0, "z"}))
	plan := &JoinOp{
		Left:  &Scan{Dataset: "L"},
		Right: &Scan{Dataset: "R"},
		Args: JoinArgs{
			Pred:   GenometricPred{Conds: []DistCond{{Op: DistLT, Dist: 1000}}},
			Output: OutLeft,
		},
	}
	s := NewSession(Config{Mode: ModeSerial}, MapCatalog{"L": left, "R": right})
	_, root, err := s.EvalProfiled(plan)
	if err != nil {
		t.Fatal(err)
	}
	// l/chr1 kept (near is reachable); near kept; far is 899800 > 999 away.
	if root.PruneParts != 3 || root.PrunableParts != 1 || root.PrunableRegions != 1 {
		t.Errorf("distance prunable = %dr/%dof%dp, want 1r/1of3p",
			root.PrunableRegions, root.PrunableParts, root.PruneParts)
	}
}

// TestRepoPrunableMap: only experiment partitions are prunable (reference
// regions are always emitted), and only when they overlap no reference
// extent on their chromosome.
func TestRepoPrunableMap(t *testing.T) {
	plan := &MapOp{
		Ref:  &Scan{Dataset: "REF"},
		Exp:  &Scan{Dataset: "D"},
		Args: MapArgs{Aggs: countAgg()},
	}
	for _, cfg := range allConfigs() {
		s := NewSession(cfg, pruneCatalog(t))
		_, root, err := s.EvalProfiled(plan)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Mode, err)
		}
		// Experiment partitions: a/chr1 overlaps REF [120,180) — kept;
		// a/chr2 and b/chr3 have no REF extent — prunable. REF's own
		// partition is never consulted.
		if root.PruneParts != 3 || root.PrunableParts != 2 || root.PrunableRegions != 2 {
			t.Errorf("%s: map prunable = %dr/%dof%dp, want 2r/2of3p",
				cfg.Mode, root.PrunableRegions, root.PrunableParts, root.PruneParts)
		}
	}
}
