package synth

import (
	"fmt"
	"math"

	"genogo/internal/gdm"
)

// Figure2Dataset reproduces Fig. 2 of the paper exactly as described in the
// text: the PEAKS dataset for ChIP-Seq data with two samples whose regions
// fall within two chromosomes, whose variable schema is the single attribute
// P_VALUE, where sample 1 has 5 stranded regions and 4 metadata attributes
// (karyotype "cancer" among them) and sample 2 has 4 unstranded regions and
// 3 metadata attributes (including sex "female"). Coordinate values are
// representative — the paper's figure is an illustration, not data.
func Figure2Dataset() *gdm.Dataset {
	schema := gdm.MustSchema(gdm.Field{Name: "p_value", Type: gdm.KindFloat})
	ds := gdm.NewDataset("PEAKS", schema)

	s1 := gdm.NewSample("1")
	s1.Meta.Add("antibody_target", "CTCF")
	s1.Meta.Add("cell", "HeLa-S3")
	s1.Meta.Add("dataType", "ChipSeq")
	s1.Meta.Add("karyotype", "cancer")
	s1.AddRegion(gdm.NewRegion("chr1", 2756, 2906, gdm.StrandPlus), gdm.Float(0.000012))
	s1.AddRegion(gdm.NewRegion("chr1", 12924, 13074, gdm.StrandMinus), gdm.Float(0.000073))
	s1.AddRegion(gdm.NewRegion("chr1", 31312, 31462, gdm.StrandPlus), gdm.Float(0.000032))
	s1.AddRegion(gdm.NewRegion("chr2", 878, 1028, gdm.StrandMinus), gdm.Float(0.000011))
	s1.AddRegion(gdm.NewRegion("chr2", 22065, 22215, gdm.StrandPlus), gdm.Float(0.000002))
	s1.SortRegions()
	ds.MustAdd(s1)

	s2 := gdm.NewSample("2")
	s2.Meta.Add("antibody_target", "CTCF")
	s2.Meta.Add("cell", "GM12878")
	s2.Meta.Add("sex", "female")
	s2.AddRegion(gdm.NewRegion("chr1", 2740, 2890, gdm.StrandNone), gdm.Float(0.000034))
	s2.AddRegion(gdm.NewRegion("chr1", 40100, 40250, gdm.StrandNone), gdm.Float(0.000051))
	s2.AddRegion(gdm.NewRegion("chr2", 940, 1090, gdm.StrandNone), gdm.Float(0.000021))
	s2.AddRegion(gdm.NewRegion("chr2", 22608, 22758, gdm.StrandNone), gdm.Float(0.000066))
	s2.SortRegions()
	ds.MustAdd(s2)
	return ds
}

// CTCFScenario is the Fig. 3 setting: CTCF loops, three methylation-mark
// experiments identifying enhancers and promoters, gene annotations, and the
// planted enhancer-to-gene regulation pairs a correct analysis must recover.
type CTCFScenario struct {
	// Loops holds one sample of CTCF loop spans (attribute: loop id).
	Loops *gdm.Dataset
	// Marks holds one sample per methylation experiment: H3K27ac (active
	// enhancers and promoters), H3K4me1 (enhancers), H3K4me3 (promoters).
	Marks *gdm.Dataset
	// Promoters is the RefSeq-like promoter annotation (attribute: gene).
	Promoters *gdm.Dataset
	// TruePairs maps "enhancerName\x1fgeneName" for the planted pairs: an
	// active enhancer regulating an active gene within a shared CTCF loop.
	TruePairs map[string]bool
	// Enhancers counts all generated enhancers (for precision accounting).
	Enhancers int
}

// PairKey builds a TruePairs key.
func PairKey(enhancer, gene string) string { return enhancer + "\x1f" + gene }

// CTCF generates the Fig. 3 scenario with nLoops CTCF loops. Inside ~60% of
// the loops it plants an active gene and 1–3 active enhancers (marked by
// H3K27ac+H3K4me1) regulating it; the other loops and the inter-loop space
// receive inactive enhancers and genes that a correct query must not pair.
func (g *Generator) CTCF(nLoops int) *CTCFScenario {
	sc := &CTCFScenario{TruePairs: make(map[string]bool)}
	loopSchema := gdm.MustSchema(gdm.Field{Name: "loop", Type: gdm.KindString})
	loops := gdm.NewDataset("CTCF_LOOPS", loopSchema)
	loopSample := gdm.NewSample("loops")
	loopSample.Meta.Add("assay", "ChIA-PET")
	loopSample.Meta.Add("factor", "CTCF")

	markSchema := gdm.MustSchema(gdm.Field{Name: "signal", Type: gdm.KindFloat})
	marks := gdm.NewDataset("MARKS", markSchema)
	k27 := gdm.NewSample("H3K27ac")
	k27.Meta.Add("antibody", "H3K27ac")
	k27.Meta.Add("dataType", "ChipSeq")
	k4me1 := gdm.NewSample("H3K4me1")
	k4me1.Meta.Add("antibody", "H3K4me1")
	k4me1.Meta.Add("dataType", "ChipSeq")
	k4me3 := gdm.NewSample("H3K4me3")
	k4me3.Meta.Add("antibody", "H3K4me3")
	k4me3.Meta.Add("dataType", "ChipSeq")

	proms := gdm.NewDataset("PROMOTERS", AnnotationSchema)
	promSample := gdm.NewSample("promoters")
	promSample.Meta.Add("annType", "promoter")

	mark := func(s *gdm.Sample, chrom string, start, stop int64) {
		s.AddRegion(gdm.NewRegion(chrom, start, stop, gdm.StrandNone), gdm.Float(1+g.rng.ExpFloat64()*3))
	}

	for li := 0; li < nLoops; li++ {
		c := g.randomChrom()
		span := int64(50000 + g.rng.Int63n(150000)) // 50-200 kb loops
		start := g.rng.Int63n(max64(c.Length-span, 1))
		loopName := fmt.Sprintf("LOOP%04d", li)
		loopSample.AddRegion(gdm.NewRegion(c.Name, start, start+span, gdm.StrandNone), gdm.Str(loopName))

		active := g.rng.Float64() < 0.6
		geneName := fmt.Sprintf("LGENE%04d", li)
		// Gene promoter inside the loop.
		ptss := start + span/2 + g.rng.Int63n(span/8)
		promSample.AddRegion(gdm.NewRegion(c.Name, ptss-2000, ptss+200, gdm.StrandPlus), gdm.Str(geneName))
		if active {
			// Active promoter: H3K4me3 + H3K27ac at the promoter.
			mark(k4me3, c.Name, ptss-1500, ptss+100)
			mark(k27, c.Name, ptss-1200, ptss+150)
		}
		nEnh := 1 + g.rng.Intn(3)
		for e := 0; e < nEnh; e++ {
			sc.Enhancers++
			eName := fmt.Sprintf("ENH%04d_%d", li, e)
			// Enhancer inside the first half of the loop, away from the
			// promoter.
			epos := start + 2000 + g.rng.Int63n(max64(span/2-6000, 1))
			eStart, eStop := epos, epos+1500
			// Every enhancer gets H3K4me1 (the enhancer mark).
			mark(k4me1, c.Name, eStart, eStop)
			enhActive := active && g.rng.Float64() < 0.8
			if enhActive {
				// Active enhancer: also H3K27ac.
				mark(k27, c.Name, eStart+100, eStop-100)
				sc.TruePairs[PairKey(eName, geneName)] = true
			}
			_ = eName
		}
	}
	// Decoy enhancers outside any loop: active-looking but pairable with no
	// gene through a loop.
	for d := 0; d < nLoops; d++ {
		sc.Enhancers++
		c := g.randomChrom()
		pos := g.rng.Int63n(max64(c.Length-2000, 1))
		mark(k4me1, c.Name, pos, pos+1500)
		if g.rng.Float64() < 0.5 {
			mark(k27, c.Name, pos+100, pos+1400)
		}
	}

	loopSample.SortRegions()
	k27.SortRegions()
	k4me1.SortRegions()
	k4me3.SortRegions()
	promSample.SortRegions()
	loops.MustAdd(loopSample)
	marks.MustAdd(k27)
	marks.MustAdd(k4me1)
	marks.MustAdd(k4me3)
	proms.MustAdd(promSample)
	sc.Loops = loops
	sc.Marks = marks
	sc.Promoters = proms
	return sc
}

// ReplicationScenario is the Section 3 open problem: correlating
// cancer-inducing mutations and DNA breaks with gene dis-regulation under
// oncogene induction.
type ReplicationScenario struct {
	// Expression holds two samples (condition control / induced): gene
	// regions with attributes gene (string) and expression (float).
	Expression *gdm.Dataset
	// Breakpoints holds one sample of DNA break positions.
	Breakpoints *gdm.Dataset
	// Mutations holds two samples of point mutations (condition control /
	// induced).
	Mutations *gdm.Dataset
	// ReplicationTiming holds one signal sample (replication time along the
	// genome).
	ReplicationTiming *gdm.Dataset
	// FragileGenes names the planted dis-regulated genes whose bodies carry
	// breakpoint and mutation enrichment in the induced condition.
	FragileGenes map[string]bool
}

// ExpressionSchema is the schema of expression samples.
var ExpressionSchema = gdm.MustSchema(
	gdm.Field{Name: "gene", Type: gdm.KindString},
	gdm.Field{Name: "expression", Type: gdm.KindFloat},
)

// BreakSchema is the schema of breakpoint samples.
var BreakSchema = gdm.MustSchema(
	gdm.Field{Name: "support", Type: gdm.KindInt},
)

// MutationSchema is the schema of mutation samples (VCF-reduced).
var MutationSchema = gdm.MustSchema(
	gdm.Field{Name: "ref", Type: gdm.KindString},
	gdm.Field{Name: "alt", Type: gdm.KindString},
)

// Replication generates the Section 3 scenario over nGenes genes. A planted
// ~15% of genes are "fragile": upon oncogene induction their expression
// drops sharply and their bodies accumulate breakpoints and mutations; a
// correct GMQL pipeline recovers exactly these genes.
func (g *Generator) Replication(nGenes int) *ReplicationScenario {
	sc := &ReplicationScenario{FragileGenes: make(map[string]bool)}
	genes := g.Genes(nGenes)

	expr := gdm.NewDataset("EXPRESSION", ExpressionSchema)
	control := gdm.NewSample("control")
	control.Meta.Add("condition", "control")
	induced := gdm.NewSample("induced")
	induced.Meta.Add("condition", "oncogene_induced")

	breaks := gdm.NewDataset("BREAKS", BreakSchema)
	bp := gdm.NewSample("breaks")
	bp.Meta.Add("assay", "BLESS")

	muts := gdm.NewDataset("MUTATIONS", MutationSchema)
	mutControl := gdm.NewSample("mut_control")
	mutControl.Meta.Add("condition", "control")
	mutInduced := gdm.NewSample("mut_induced")
	mutInduced.Meta.Add("condition", "oncogene_induced")

	bases := []string{"A", "C", "G", "T"}
	addMut := func(s *gdm.Sample, chrom string, pos int64) {
		ref := bases[g.rng.Intn(4)]
		alt := bases[g.rng.Intn(4)]
		for alt == ref {
			alt = bases[g.rng.Intn(4)]
		}
		s.AddRegion(gdm.NewRegion(chrom, pos, pos+1, gdm.StrandNone), gdm.Str(ref), gdm.Str(alt))
	}

	for _, gene := range genes {
		base := 5 + g.rng.ExpFloat64()*20
		fragile := g.rng.Float64() < 0.15
		exprInduced := base * (0.8 + g.rng.Float64()*0.4)
		if fragile {
			sc.FragileGenes[gene.Name] = true
			exprInduced = base * (0.05 + g.rng.Float64()*0.15) // sharp drop
		}
		body := gdm.NewRegion(gene.Chrom, gene.TSS, gene.TSS+gene.Length, gene.Strand)
		control.AddRegion(body, gdm.Str(gene.Name), gdm.Float(base))
		induced.AddRegion(body, gdm.Str(gene.Name), gdm.Float(exprInduced))

		// Background mutation/breakpoint rate everywhere; strong enrichment
		// in fragile gene bodies.
		nBreaks := g.rng.Intn(2)
		nMuts := g.rng.Intn(3)
		if fragile {
			nBreaks += 4 + g.rng.Intn(5)
			nMuts += 6 + g.rng.Intn(8)
		}
		for b := 0; b < nBreaks; b++ {
			pos := gene.TSS + g.rng.Int63n(gene.Length)
			bp.AddRegion(gdm.NewRegion(gene.Chrom, pos, pos+50, gdm.StrandNone),
				gdm.Int(int64(2+g.rng.Intn(30))))
		}
		for m := 0; m < nMuts; m++ {
			addMut(mutInduced, gene.Chrom, gene.TSS+g.rng.Int63n(gene.Length))
		}
		// Control condition keeps only the background rate.
		for m := 0; m < g.rng.Intn(3); m++ {
			addMut(mutControl, gene.Chrom, gene.TSS+g.rng.Int63n(gene.Length))
		}
	}

	// Replication timing signal: a smooth wave per chromosome, 100 kb bins.
	timing := gdm.NewDataset("REPLICATION_TIMING", gdm.MustSchema(
		gdm.Field{Name: "value", Type: gdm.KindFloat}))
	ts := gdm.NewSample("repli_seq")
	ts.Meta.Add("assay", "Repli-seq")
	const bin = 100000
	for _, c := range g.Genome.Chroms {
		phase := g.rng.Float64() * 2 * math.Pi
		for pos := int64(0); pos < c.Length; pos += bin {
			stop := pos + bin
			if stop > c.Length {
				stop = c.Length
			}
			v := math.Sin(float64(pos)/5e5+phase)*0.5 + 0.5
			ts.AddRegion(gdm.NewRegion(c.Name, pos, stop, gdm.StrandNone), gdm.Float(v))
		}
	}
	ts.SortRegions()
	timing.MustAdd(ts)

	for _, s := range []*gdm.Sample{control, induced, bp, mutControl, mutInduced} {
		s.SortRegions()
	}
	expr.MustAdd(control)
	expr.MustAdd(induced)
	breaks.MustAdd(bp)
	muts.MustAdd(mutControl)
	muts.MustAdd(mutInduced)
	sc.Expression = expr
	sc.Breakpoints = breaks
	sc.Mutations = muts
	sc.ReplicationTiming = timing
	return sc
}
