package gmql

import (
	"fmt"
	"math/rand"
	"testing"

	"genogo/internal/engine"
	"genogo/internal/gdm"
	"genogo/internal/synth"
)

// Metamorphic tests: algebraic identities that must hold for any input.
// Each case runs two scripts over the same random catalog and demands
// equal results (compared structurally, ignoring sample IDs, since several
// identities legitimately change derived IDs).

func randomCatalog(seed int64) engine.MapCatalog {
	g := synth.New(seed)
	return engine.MapCatalog{
		"E": g.Encode(synth.EncodeOptions{Samples: 10, MeanPeaks: 40}),
		"A": g.Annotations(g.Genes(60)),
	}
}

// shapeOf summarizes a dataset ignoring sample identity: the multiset of
// (regions signature, metadata-pair count) per sample.
func shapeOf(t *testing.T, ds *gdm.Dataset) map[string]int {
	t.Helper()
	out := map[string]int{}
	for _, s := range ds.Samples {
		sig := fmt.Sprintf("nreg=%d", len(s.Regions))
		for i := range s.Regions {
			sig += "|" + fmt.Sprint(s.Regions[i], s.Row(i))
		}
		out[sig]++
	}
	return out
}

func evalVar(t *testing.T, cat engine.Catalog, script, v string) *gdm.Dataset {
	t.Helper()
	prog, err := Parse(script)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(cat)
	ds, err := r.Eval(prog, v)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func shapesEqual(t *testing.T, label string, a, b *gdm.Dataset) {
	t.Helper()
	sa, sb := shapeOf(t, a), shapeOf(t, b)
	if len(sa) != len(sb) {
		t.Fatalf("%s: %d vs %d distinct sample shapes", label, len(sa), len(sb))
	}
	for k, n := range sa {
		if sb[k] != n {
			t.Fatalf("%s: shape multiplicity differs (%d vs %d) for a sample", label, n, sb[k])
		}
	}
}

func TestMetamorphicSelectCommutesWithUnion(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cat := randomCatalog(seed)
		lhs := evalVar(t, cat, `
U = UNION() E E;
X = SELECT(dataType == 'ChipSeq'; region: signal > 3) U;`, "X")
		rhs := evalVar(t, cat, `
S = SELECT(dataType == 'ChipSeq'; region: signal > 3) E;
X = UNION() S S;`, "X")
		shapesEqual(t, fmt.Sprintf("seed %d", seed), lhs, rhs)
	}
}

func TestMetamorphicDoubleSelectEqualsConjunction(t *testing.T) {
	for seed := int64(4); seed <= 6; seed++ {
		cat := randomCatalog(seed)
		lhs := evalVar(t, cat, `
A1 = SELECT(; region: signal > 2) E;
X = SELECT(; region: p_value < 0.001) A1;`, "X")
		rhs := evalVar(t, cat, `
X = SELECT(; region: signal > 2 AND p_value < 0.001) E;`, "X")
		shapesEqual(t, fmt.Sprintf("seed %d", seed), lhs, rhs)
	}
}

func TestMetamorphicDifferenceWithSelfIsEmpty(t *testing.T) {
	cat := randomCatalog(7)
	out := evalVar(t, cat, `X = DIFFERENCE() E E;`, "X")
	if out.NumRegions() != 0 {
		t.Errorf("A - A has %d regions", out.NumRegions())
	}
	if len(out.Samples) != 10 {
		t.Errorf("A - A lost samples: %d", len(out.Samples))
	}
}

func TestMetamorphicDifferenceWithEmptyIsIdentity(t *testing.T) {
	cat := randomCatalog(8)
	// An empty negative set: no sample survives an impossible predicate.
	lhs := evalVar(t, cat, `
NONE = SELECT(dataType == 'NoSuchType') E;
X = DIFFERENCE() E NONE;`, "X")
	rhs := evalVar(t, cat, `X = SELECT() E;`, "X")
	shapesEqual(t, "difference-empty", lhs, rhs)
}

func TestMetamorphicCoverIdempotentAtAny(t *testing.T) {
	// COVER(1,ANY) produces disjoint regions; covering its own output again
	// must be a fixpoint.
	cat := randomCatalog(9)
	once := evalVar(t, cat, `X = COVER(1, ANY) E;`, "X")
	cat2 := engine.MapCatalog{"C": once}
	twice := evalVar(t, cat2, `X = COVER(1, ANY) C;`, "X")
	if once.NumRegions() != twice.NumRegions() {
		t.Fatalf("cover not idempotent: %d vs %d regions", once.NumRegions(), twice.NumRegions())
	}
	for i := range once.Samples[0].Regions {
		a := once.Samples[0].Regions[i]
		b := twice.Samples[0].Regions[i]
		if a.Chrom != b.Chrom || a.Start != b.Start || a.Stop != b.Stop {
			t.Fatalf("cover moved a region: %v vs %v", a, b)
		}
	}
}

func TestMetamorphicMapCountMatchesJoinPairs(t *testing.T) {
	// Total MAP count == number of INT-join pairs (both count overlapping
	// region pairs, strand-compatibly for MAP; use unstranded data).
	g := synth.New(10)
	exp := gdm.NewDataset("E", synth.PeakSchema)
	for i := 0; i < 4; i++ {
		exp.MustAdd(g.ChipSeq(fmt.Sprintf("e%d", i), 50))
	}
	anns := g.Annotations(g.Genes(40))
	cat := engine.MapCatalog{"E": exp, "A": anns}
	mapped := evalVar(t, cat, `
P = SELECT(annType == 'promoter') A;
X = MAP(n AS COUNT) P E;`, "X")
	joined := evalVar(t, cat, `
P = SELECT(annType == 'promoter') A;
X = JOIN(DLE(-1); output: INT) P E;`, "X")
	ni, _ := mapped.Schema.Index("n")
	var total int64
	for _, s := range mapped.Samples {
		for i := range s.Regions {
			total += s.Row(i)[ni].Int()
		}
	}
	if total != int64(joined.NumRegions()) {
		t.Errorf("MAP total %d != JOIN INT pairs %d", total, joined.NumRegions())
	}
}

func TestMetamorphicMergePreservesRegionCount(t *testing.T) {
	for seed := int64(11); seed <= 13; seed++ {
		cat := randomCatalog(seed)
		in := evalVar(t, cat, `X = SELECT() E;`, "X")
		merged := evalVar(t, cat, `X = MERGE() E;`, "X")
		if merged.NumRegions() != in.NumRegions() {
			t.Errorf("seed %d: merge changed region count: %d vs %d",
				seed, merged.NumRegions(), in.NumRegions())
		}
	}
}

func TestMetamorphicProjectIdentity(t *testing.T) {
	cat := randomCatalog(14)
	lhs := evalVar(t, cat, `X = PROJECT(region: p_value, signal) E;`, "X")
	rhs := evalVar(t, cat, `X = SELECT() E;`, "X")
	shapesEqual(t, "project-identity", lhs, rhs)
}

func TestMetamorphicRandomizedPipelines(t *testing.T) {
	// Random chains of unary operators: stream (fused) and serial must
	// agree for arbitrary compositions.
	rng := rand.New(rand.NewSource(15))
	pieces := []string{
		`SELECT(; region: signal > 2)`,
		`SELECT(dataType == 'ChipSeq')`,
		`PROJECT(region: p_value, signal)`,
		`EXTEND(n AS COUNT)`,
		`SELECT(; region: p_value < 0.01)`,
	}
	for trial := 0; trial < 6; trial++ {
		depth := 2 + rng.Intn(3)
		script := ""
		prev := "E"
		for d := 0; d < depth; d++ {
			v := fmt.Sprintf("V%d", d)
			script += fmt.Sprintf("%s = %s %s;\n", v, pieces[rng.Intn(len(pieces))], prev)
			prev = v
		}
		cat := randomCatalog(int64(20 + trial))
		prog, err := Parse(script)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, script)
		}
		var ref *gdm.Dataset
		for _, mode := range []engine.Mode{engine.ModeSerial, engine.ModeStream} {
			r := &Runner{Config: engine.Config{Mode: mode, Workers: 2, MetaFirst: true}, Catalog: cat}
			ds, err := r.Eval(prog, prev)
			if err != nil {
				t.Fatalf("trial %d mode %s: %v\n%s", trial, mode, err, script)
			}
			if ref == nil {
				ref = ds
			} else {
				shapesEqual(t, fmt.Sprintf("trial %d\n%s", trial, script), ref, ds)
			}
		}
	}
}
