package genospace

import (
	"math/rand"
	"strings"
	"testing"

	"genogo/internal/engine"
	"genogo/internal/expr"
	"genogo/internal/gdm"
	"genogo/internal/synth"
)

// mapResult builds a genuine MAP result: genes as reference, synthetic
// experiments mapped onto them.
func mapResult(t *testing.T, nGenes, nExps int) *gdm.Dataset {
	t.Helper()
	g := synth.New(21)
	genes := g.Genes(nGenes)
	ref := g.Annotations(genes)
	refProms, err := engine.Select(engine.Config{MetaFirst: true}, ref,
		expr.MetaCmp{Attr: "annType", Op: expr.CmpEq, Value: "promoter"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	exp := gdm.NewDataset("EXPS", synth.PeakSchema)
	for i := 0; i < nExps; i++ {
		exp.MustAdd(g.ChipSeq("exp"+string(rune('a'+i)), 800))
	}
	out, err := engine.Map(engine.Config{MetaFirst: true}, refProms, exp, engine.MapArgs{
		Aggs: []expr.Aggregate{{Output: "count", Func: expr.AggCount}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFromMapResult(t *testing.T) {
	ds := mapResult(t, 50, 4)
	gs, err := FromMapResult(ds, "count")
	if err != nil {
		t.Fatal(err)
	}
	if gs.NumRegions() != 50 || gs.NumExperiments() != 4 {
		t.Fatalf("dims = %dx%d", gs.NumRegions(), gs.NumExperiments())
	}
	// Spot-check the matrix against the dataset.
	ci, _ := ds.Schema.Index("count")
	for j, s := range ds.Samples {
		for i := range s.Regions {
			if gs.Values[i][j] != float64(s.Row(i)[ci].Int()) {
				t.Fatalf("Values[%d][%d] = %v, dataset says %v", i, j, gs.Values[i][j], s.Row(i)[ci])
			}
		}
	}
	// Region labels come from the name attribute.
	if !strings.HasPrefix(gs.RegionLabel(0), "GENE") {
		t.Errorf("label = %q", gs.RegionLabel(0))
	}
	if len(gs.Row(0)) != 4 {
		t.Errorf("row length = %d", len(gs.Row(0)))
	}
}

func TestFromMapResultErrors(t *testing.T) {
	ds := mapResult(t, 10, 2)
	if _, err := FromMapResult(ds, "zzz"); err == nil {
		t.Error("unknown attribute accepted")
	}
	empty := gdm.NewDataset("E", ds.Schema)
	if _, err := FromMapResult(empty, "count"); err == nil {
		t.Error("empty dataset accepted")
	}
	// Region mismatch between samples.
	broken := ds.Clone()
	broken.Samples[1].Regions = broken.Samples[1].Regions[1:]
	if _, err := FromMapResult(broken, "count"); err == nil {
		t.Error("ragged samples accepted")
	}
	shifted := ds.Clone()
	shifted.Samples[1].Regions[0].Start += 7
	if _, err := FromMapResult(shifted, "count"); err == nil {
		t.Error("misaligned regions accepted")
	}
}

// handSpace builds a small genome space with planted correlations.
func handSpace() *GenomeSpace {
	regions := []gdm.Region{
		gdm.NewRegion("chr1", 0, 10, gdm.StrandNone),
		gdm.NewRegion("chr1", 20, 30, gdm.StrandNone),
		gdm.NewRegion("chr1", 40, 50, gdm.StrandNone),
		gdm.NewRegion("chr2", 0, 10, gdm.StrandNone),
	}
	return &GenomeSpace{
		Regions:     regions,
		RegionNames: []string{"A", "B", "C", "D"},
		Experiments: []string{"e1", "e2", "e3", "e4"},
		Values: [][]float64{
			{1, 2, 3, 4}, // A
			{2, 4, 6, 8}, // B: perfectly correlated with A
			{8, 6, 4, 2}, // C: anti-correlated
			{0, 0, 5, 0}, // D: mostly silent
		},
	}
}

func TestBuildNetworkCorrelation(t *testing.T) {
	gs := handSpace()
	net, err := gs.BuildNetwork(MetricCorrelation, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumNodes() != 4 {
		t.Fatalf("nodes = %d", net.NumNodes())
	}
	if net.NumEdges() != 1 {
		t.Fatalf("edges = %v", net.Edges)
	}
	e := net.Edges[0]
	if net.Nodes[e.A] != "A" || net.Nodes[e.B] != "B" || e.Weight < 0.99 {
		t.Errorf("edge = %+v", e)
	}
	if net.Degree(e.A) != 1 || net.Degree(3) != 0 {
		t.Error("degrees wrong")
	}
}

func TestBuildNetworkCoActivity(t *testing.T) {
	gs := handSpace()
	net, err := gs.BuildNetwork(MetricCoActivity, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	// A, B, C are non-zero in all 4 experiments: 3 pairwise edges at 1.0.
	if net.NumEdges() != 3 {
		t.Fatalf("edges = %v", net.Edges)
	}
	if _, err := gs.BuildNetwork(EdgeMetric(99), 0); err == nil {
		t.Error("unknown metric accepted")
	}
}

func TestTopHubsAndComponents(t *testing.T) {
	gs := handSpace()
	net, err := gs.BuildNetwork(MetricCoActivity, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	hubs := net.TopHubs(2)
	if len(hubs) != 2 || hubs[0].Degree != 2 {
		t.Errorf("hubs = %v", hubs)
	}
	comps := net.ConnectedComponents()
	// {A,B,C} and {D}.
	if len(comps) != 2 || comps[0] != 3 || comps[1] != 1 {
		t.Errorf("components = %v", comps)
	}
	if got := net.TopHubs(100); len(got) != 4 {
		t.Errorf("TopHubs(100) = %d", len(got))
	}
}

func TestRegionLabelFallback(t *testing.T) {
	gs := handSpace()
	gs.RegionNames = nil
	if got := gs.RegionLabel(0); got != "chr1:0-10" {
		t.Errorf("fallback label = %q", got)
	}
}

func TestEndToEndFigure4(t *testing.T) {
	// The full Fig. 4 path: MAP result -> genome space -> gene network.
	ds := mapResult(t, 40, 6)
	gs, err := FromMapResult(ds, "count")
	if err != nil {
		t.Fatal(err)
	}
	net, err := gs.BuildNetwork(MetricCorrelation, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumNodes() != 40 {
		t.Fatalf("nodes = %d", net.NumNodes())
	}
	total := 0
	for _, c := range net.ConnectedComponents() {
		total += c
	}
	if total != 40 {
		t.Errorf("component sizes sum to %d", total)
	}
}

func TestNetworkDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_ = rng
	a := mapResult(t, 30, 5)
	b := mapResult(t, 30, 5)
	ga, _ := FromMapResult(a, "count")
	gb, _ := FromMapResult(b, "count")
	na, _ := ga.BuildNetwork(MetricCorrelation, 0.6)
	nb, _ := gb.BuildNetwork(MetricCorrelation, 0.6)
	if na.NumEdges() != nb.NumEdges() {
		t.Errorf("nondeterministic network: %d vs %d edges", na.NumEdges(), nb.NumEdges())
	}
}
