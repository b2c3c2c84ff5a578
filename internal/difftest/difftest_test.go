package difftest

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"genogo/internal/engine"
	"genogo/internal/gdm"
	"genogo/internal/gmql"
)

// TestGenerateDeterministic: the same seed must always yield the same
// script — campaign reports and minimized reproducers depend on it.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a := Generate(seed)
		b := Generate(seed)
		if a.Text() != b.Text() {
			t.Fatalf("seed %d: non-deterministic generation:\n%s\n--- vs ---\n%s", seed, a.Text(), b.Text())
		}
	}
}

// TestGeneratedScriptsParse: the generator's contract is random-but-VALID
// scripts — every one must parse.
func TestGeneratedScriptsParse(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		s := Generate(seed)
		if _, err := gmql.Parse(s.Text()); err != nil {
			t.Fatalf("seed %d: generated script does not parse: %v\n%s", seed, err, s.Text())
		}
	}
}

// TestGeneratorCoversAllOperators: over a few hundred seeds every operator
// of the grammar must appear — otherwise the oracle is silently blind to an
// operator.
func TestGeneratorCoversAllOperators(t *testing.T) {
	ops := map[string]int{}
	for seed := int64(1); seed <= 300; seed++ {
		for op, n := range Generate(seed).Ops {
			ops[op] += n
		}
	}
	for _, want := range []string{
		"SELECT", "PROJECT", "EXTEND", "MERGE", "GROUP", "ORDER",
		"UNION", "DIFFERENCE", "JOIN", "MAP", "COVER",
	} {
		if ops[want] == 0 {
			t.Errorf("operator %s never generated in 300 seeds (coverage: %v)", want, ops)
		}
	}
}

// TestSmokeCampaign is the tier-1 differential smoke: >= 200 generated
// scripts across the full serial/batch/fused-stream × workers matrix
// (the 1-, 2- and 3-member federation sampled every 25th case), with zero
// divergences. This is the
// acceptance gate every perf PR runs against.
func TestSmokeCampaign(t *testing.T) {
	seeds := 220
	fedEvery := 25
	if testing.Short() {
		seeds = 40
	}
	rep := RunCampaign(CampaignOptions{
		Start:           1,
		Seeds:           seeds,
		DatasetSeed:     1,
		Federation:      !testing.Short(),
		FederationEvery: fedEvery,
		Jobs:            4,
	})
	if len(rep.Diverged) != 0 {
		for _, d := range rep.Diverged {
			t.Errorf("seed %d diverged:\n%s\nminimized:\n%s\nresults: %+v",
				d.Seed, d.Script, d.Minimized, d.Results)
		}
		t.Fatalf("%d/%d cases diverged", len(rep.Diverged), rep.Seeds)
	}
	if !rep.CatalogUnchanged {
		t.Error("the shared catalog changed during the campaign: something wrote through shared region storage")
	}
	if !testing.Short() && !(slices.Contains(rep.Configs, "federation/2") && slices.Contains(rep.Configs, "federation/3")) {
		t.Errorf("configs %v lack the 2- and 3-member federation fan-out", rep.Configs)
	}
	if rep.Agreed+rep.OracleErrors != seeds {
		t.Fatalf("case accounting broken: agreed %d + oracle errors %d != %d",
			rep.Agreed, rep.OracleErrors, seeds)
	}
	// Oracle errors mean the generator emitted a script the engine rejects
	// in every mode. A few are tolerable (they still check error-agreement);
	// a flood means the generator is broken and the campaign is hollow.
	if rep.OracleErrors > seeds/10 {
		t.Fatalf("too many oracle errors: %d of %d — generator emits mostly invalid scripts",
			rep.OracleErrors, seeds)
	}
	t.Logf("campaign: %d agreed, %d oracle errors, coverage %v", rep.Agreed, rep.OracleErrors, rep.OpCoverage)
}

// TestCatalogDigestsCatchSharedWrite proves the immutability check is live: a
// consumer writing through the region storage a published result shares with
// its catalog input changes the digest the campaign compares.
func TestCatalogDigestsCatchSharedWrite(t *testing.T) {
	cat := BuildCatalog(1)
	before := catalogDigests(cat)
	prog, err := gmql.Parse("X = SELECT() ENCODE; MATERIALIZE X;")
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&gmql.Runner{Config: engine.Config{MetaFirst: true}, Catalog: cat}).Eval(prog, "X")
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(before, catalogDigests(cat)) {
		t.Fatal("evaluating a query changed the catalog")
	}
	res.Samples[0].Regions[0].Start++
	after := catalogDigests(cat)
	if after["ENCODE"] == before["ENCODE"] {
		t.Error("a write through a result's shared regions left the ENCODE digest unchanged")
	}
	if after["PEAKS"] != before["PEAKS"] || after["ANNOT"] != before["ANNOT"] {
		t.Error("untouched datasets changed digest")
	}
}

// TestNormalizerDetectsDrift: the comparator must actually catch the
// failure classes it claims to — coordinates, values, metadata, sample and
// region counts — and must tolerate float noise below the tolerance.
func TestNormalizerDetectsDrift(t *testing.T) {
	cat := BuildCatalog(1)
	base := cat["ENCODE"]

	mutate := func(f func(ds *gdm.Dataset)) *gdm.Dataset {
		m := base.Clone()
		f(m)
		return m
	}

	cases := []struct {
		name string
		ds   *gdm.Dataset
		want string // substring of the expected diff; "" = no diff
	}{
		{"identical", base.Clone(), ""},
		{"shifted-coordinate", mutate(func(ds *gdm.Dataset) {
			ds.Samples[0].Regions[0].Start++
		}), "coordinates"},
		{"dropped-region", mutate(func(ds *gdm.Dataset) {
			s := ds.Samples[1]
			s.Regions = s.Regions[:len(s.Regions)-1]
		}), "region count"},
		{"dropped-sample", mutate(func(ds *gdm.Dataset) {
			ds.Samples = ds.Samples[:len(ds.Samples)-1]
		}), "sample count"},
		{"changed-value", mutate(func(ds *gdm.Dataset) {
			ds.Samples[0].Row(0)[1] = gdm.Float(999)
		}), "attribute signal"},
		{"changed-meta", mutate(func(ds *gdm.Dataset) {
			ds.Samples[0].Meta.Set("cell", "Hacked")
		}), "metadata"},
		{"float-noise-below-tolerance", mutate(func(ds *gdm.Dataset) {
			v := ds.Samples[0].Row(0)[1].Float()
			ds.Samples[0].Row(0)[1] = gdm.Float(v * (1 + 1e-13))
		}), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diff := Diff(base, tc.ds, 0)
			if tc.want == "" && diff != "" {
				t.Fatalf("unexpected diff: %s", diff)
			}
			if tc.want != "" && !strings.Contains(diff, tc.want) {
				t.Fatalf("diff %q does not mention %q", diff, tc.want)
			}
		})
	}
}

// TestMinimizeFindsEarliestDivergence: given a synthetic failure predicate
// ("any script containing V2 fails"), the minimizer must return V2's
// dependency closure, not the whole script.
func TestMinimizeFindsEarliestDivergence(t *testing.T) {
	// Find a seed whose script has >= 3 statements with a middle variable.
	var script *Script
	for seed := int64(1); seed < 100; seed++ {
		s := Generate(seed)
		if len(s.Stmts) >= 3 {
			script = s
			break
		}
	}
	if script == nil {
		t.Fatal("no >=3-statement script in 100 seeds")
	}
	culprit := script.Stmts[1].Var
	min := Minimize(script, func(text, final string) bool {
		return strings.Contains(text, culprit+" = ")
	})
	if !strings.Contains(min, culprit+" = ") {
		t.Fatalf("minimized script lost the culprit %s:\n%s", culprit, min)
	}
	if !strings.Contains(min, "MATERIALIZE "+culprit+" ") {
		t.Fatalf("minimized script should materialize the culprit %s, got:\n%s", culprit, min)
	}
	// It must be a strict sub-script whenever later statements exist.
	if strings.Count(min, ";") >= strings.Count(script.Text(), ";") {
		t.Fatalf("minimizer did not shrink:\nfull:\n%s\nminimized:\n%s", script.Text(), min)
	}
	// The minimized text must itself parse.
	if _, err := gmql.Parse(min); err != nil {
		t.Fatalf("minimized script does not parse: %v\n%s", err, min)
	}
}

// TestCatalogDeterministic: the dataset seed fully determines the catalog —
// reproducers would be useless otherwise.
func TestCatalogDeterministic(t *testing.T) {
	a := BuildCatalog(7)
	b := BuildCatalog(7)
	for _, name := range []string{"ENCODE", "PEAKS", "ANNOT"} {
		if diff := Diff(a[name], b[name], 0); diff != "" {
			t.Fatalf("catalog %s not deterministic: %s", name, diff)
		}
	}
}
