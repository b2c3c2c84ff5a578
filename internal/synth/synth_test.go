package synth

import (
	"fmt"
	"testing"

	"genogo/internal/gdm"
)

func TestHumanLikeGenome(t *testing.T) {
	g := HumanLike()
	if len(g.Chroms) != 24 {
		t.Fatalf("chroms = %d", len(g.Chroms))
	}
	if g.Chroms[0].Name != "chr1" || g.Chroms[23].Name != "chrY" {
		t.Errorf("chrom order wrong: %v", g.Chroms)
	}
	if g.TotalLength() < 25e6 || g.TotalLength() > 35e6 {
		t.Errorf("total length = %d", g.TotalLength())
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := New(7).ChipSeq("s", 100)
	b := New(7).ChipSeq("s", 100)
	if len(a.Regions) != len(b.Regions) {
		t.Fatal("lengths differ")
	}
	for i := range a.Regions {
		if fmt.Sprint(a.Regions[i], a.Row(i)) != fmt.Sprint(b.Regions[i], b.Row(i)) {
			t.Fatalf("region %d differs: %s vs %s", i, a.Regions[i], b.Regions[i])
		}
	}
	c := New(8).ChipSeq("s", 100)
	same := true
	for i := range a.Regions {
		if fmt.Sprint(a.Regions[i], a.Row(i)) != fmt.Sprint(c.Regions[i], c.Row(i)) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestChipSeqSample(t *testing.T) {
	s := New(1).ChipSeq("x", 500)
	if len(s.Regions) != 500 {
		t.Fatalf("regions = %d", len(s.Regions))
	}
	if !s.RegionsSorted() {
		t.Error("regions unsorted")
	}
	for i, r := range s.Regions {
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		p := s.Row(i)[0].Float()
		if p <= 0 || p > 0.01 {
			t.Fatalf("p_value = %g", p)
		}
		if s.Row(i)[1].Float() < 1 {
			t.Fatalf("signal = %v", s.Row(i)[1])
		}
		if r.Length() < 50 || r.Length() > 100000 {
			t.Fatalf("length = %d", r.Length())
		}
	}
}

func TestEncodeDataset(t *testing.T) {
	ds := New(2).Encode(EncodeOptions{Samples: 200, MeanPeaks: 50})
	if len(ds.Samples) != 200 {
		t.Fatalf("samples = %d", len(ds.Samples))
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	chip, withAntibody, missingMeta := 0, 0, 0
	minPeaks, maxPeaks := 1<<60, 0
	for _, s := range ds.Samples {
		if s.Meta.Matches("dataType", "ChipSeq") {
			chip++
			if s.Meta.Has("antibody") {
				withAntibody++
			}
		}
		if !s.Meta.Has("treatment") || !s.Meta.Has("karyotype") || !s.Meta.Has("sex") {
			missingMeta++
		}
		if n := len(s.Regions); n < minPeaks {
			minPeaks = n
		}
		if n := len(s.Regions); n > maxPeaks {
			maxPeaks = n
		}
	}
	if chip < 80 || chip > 160 {
		t.Errorf("ChipSeq samples = %d, want ~120", chip)
	}
	if withAntibody != chip {
		t.Errorf("ChipSeq without antibody: %d/%d", chip-withAntibody, chip)
	}
	if missingMeta == 0 {
		t.Error("no sample has missing metadata — LIMS sloppiness not reproduced")
	}
	// Heavy tail: max should dwarf min.
	if maxPeaks < 10*minPeaks {
		t.Errorf("peak counts not heavy-tailed: min=%d max=%d", minPeaks, maxPeaks)
	}
}

func TestGenesAndAnnotations(t *testing.T) {
	g := New(3)
	genes := g.Genes(300)
	if len(genes) != 300 {
		t.Fatalf("genes = %d", len(genes))
	}
	seen := map[string]bool{}
	for _, gene := range genes {
		if seen[gene.Name] {
			t.Fatalf("duplicate gene name %s", gene.Name)
		}
		seen[gene.Name] = true
		if gene.Promoter.Chrom != gene.Chrom {
			t.Fatal("promoter on wrong chromosome")
		}
		if gene.Strand == gdm.StrandPlus {
			if gene.Promoter.Start != gene.TSS-2000 || gene.Promoter.Stop != gene.TSS+200 {
				t.Fatalf("plus promoter = %v for TSS %d", gene.Promoter, gene.TSS)
			}
		} else {
			end := gene.TSS + gene.Length
			if gene.Promoter.Start != end-200 || gene.Promoter.Stop != end+2000 {
				t.Fatalf("minus promoter = %v for gene end %d", gene.Promoter, end)
			}
		}
	}
	ds := g.Annotations(genes)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ds.Samples) != 2 {
		t.Fatalf("annotation samples = %d", len(ds.Samples))
	}
	proms := ds.Sample("promoters")
	if proms == nil || !proms.Meta.Matches("annType", "promoter") {
		t.Fatal("promoters sample missing")
	}
	if len(proms.Regions) != 300 {
		t.Errorf("promoter regions = %d", len(proms.Regions))
	}
}

func TestFigure2Dataset(t *testing.T) {
	ds := Figure2Dataset()
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.Name != "PEAKS" {
		t.Errorf("name = %q", ds.Name)
	}
	if ds.Schema.Len() != 1 || ds.Schema.Field(0).Name != "p_value" {
		t.Errorf("schema = %s", ds.Schema)
	}
	s1, s2 := ds.Sample("1"), ds.Sample("2")
	if s1 == nil || s2 == nil {
		t.Fatal("samples 1/2 missing")
	}
	// Exactly as the paper describes the figure.
	if len(s1.Regions) != 5 || len(s2.Regions) != 4 {
		t.Errorf("region counts = %d,%d; paper says 5,4", len(s1.Regions), len(s2.Regions))
	}
	if len(s1.Meta.Attrs()) != 4 || len(s2.Meta.Attrs()) != 3 {
		t.Errorf("metadata counts = %d,%d; paper says 4,3", len(s1.Meta.Attrs()), len(s2.Meta.Attrs()))
	}
	if !s1.Meta.Matches("karyotype", "cancer") {
		t.Error("sample 1 must have karyotype cancer")
	}
	if !s2.Meta.Matches("sex", "female") {
		t.Error("sample 2 must be female")
	}
	for _, r := range s1.Regions {
		if r.Strand == gdm.StrandNone {
			t.Error("sample 1 regions must be stranded")
		}
	}
	for _, r := range s2.Regions {
		if r.Strand != gdm.StrandNone {
			t.Error("sample 2 regions must be unstranded")
		}
	}
	chroms := map[string]bool{}
	for _, s := range ds.Samples {
		for _, r := range s.Regions {
			chroms[r.Chrom] = true
		}
	}
	if len(chroms) != 2 || !chroms["chr1"] || !chroms["chr2"] {
		t.Errorf("chromosomes = %v, paper says chr1 and chr2", chroms)
	}
}

func TestCTCFScenario(t *testing.T) {
	sc := New(4).CTCF(80)
	for _, ds := range []*gdm.Dataset{sc.Loops, sc.Marks, sc.Promoters} {
		if err := ds.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if len(sc.Loops.Samples[0].Regions) != 80 {
		t.Errorf("loops = %d", len(sc.Loops.Samples[0].Regions))
	}
	if len(sc.Marks.Samples) != 3 {
		t.Fatalf("mark samples = %d", len(sc.Marks.Samples))
	}
	if len(sc.TruePairs) == 0 {
		t.Fatal("no true pairs planted")
	}
	if sc.Enhancers <= len(sc.TruePairs) {
		t.Error("every enhancer is a true pair — no decoys")
	}
	// Every true pair's enhancer must lie inside some loop together with
	// the gene promoter (check one structural invariant: the loop sample
	// contains spans wide enough).
	for pair := range sc.TruePairs {
		if pair == "" {
			t.Fatal("empty pair key")
		}
	}
}

func TestReplicationScenario(t *testing.T) {
	sc := New(5).Replication(200)
	for _, ds := range []*gdm.Dataset{sc.Expression, sc.Breakpoints, sc.Mutations, sc.ReplicationTiming} {
		if err := ds.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if len(sc.FragileGenes) == 0 || len(sc.FragileGenes) > 80 {
		t.Fatalf("fragile genes = %d", len(sc.FragileGenes))
	}
	control := sc.Expression.Sample("control")
	induced := sc.Expression.Sample("induced")
	if len(control.Regions) != 200 || len(induced.Regions) != 200 {
		t.Fatal("expression samples must cover all genes")
	}
	gi, _ := sc.Expression.Schema.Index("gene")
	ei, _ := sc.Expression.Schema.Index("expression")
	// Fragile genes must show a sharp induced/control expression drop.
	exprOf := func(s *gdm.Sample, gene string) float64 {
		for i := range s.Regions {
			if s.Row(i)[gi].Str() == gene {
				return s.Row(i)[ei].Float()
			}
		}
		t.Fatalf("gene %s not found", gene)
		return 0
	}
	checked := 0
	for gene := range sc.FragileGenes {
		ratio := exprOf(induced, gene) / exprOf(control, gene)
		if ratio > 0.5 {
			t.Errorf("fragile gene %s ratio %.2f, want < 0.5", gene, ratio)
		}
		checked++
		if checked >= 10 {
			break
		}
	}
	// Breakpoints must be enriched: fragile genes carry most of them.
	if len(sc.Breakpoints.Samples[0].Regions) < 4*len(sc.FragileGenes) {
		t.Errorf("breakpoints = %d for %d fragile genes",
			len(sc.Breakpoints.Samples[0].Regions), len(sc.FragileGenes))
	}
	// Induced mutations outnumber control mutations.
	mc := sc.Mutations.Sample("mut_control")
	mi := sc.Mutations.Sample("mut_induced")
	if len(mi.Regions) <= len(mc.Regions) {
		t.Errorf("induced %d <= control %d mutations", len(mi.Regions), len(mc.Regions))
	}
	// Timing signal covers every chromosome contiguously.
	ts := sc.ReplicationTiming.Samples[0]
	if len(ts.Regions) < 100 {
		t.Errorf("timing bins = %d", len(ts.Regions))
	}
}
