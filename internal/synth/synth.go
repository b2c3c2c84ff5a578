// Package synth generates the synthetic genomic data this reproduction uses
// in place of the repositories the paper queries (ENCODE, TCGA, annotation
// databases). Every generator is deterministic given its seed.
//
// The generators are calibrated to preserve what the paper's operators are
// sensitive to: region counts per sample (heavy-tailed, like real ChIP-seq
// peak calls), region lengths, overlap densities against annotation tracks,
// and LIMS-style metadata distributions (including the deliberate
// sloppiness — missing attributes — that Section 1 complains about).
package synth

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"genogo/internal/gdm"
)

// ChromInfo is one chromosome of the synthetic genome.
type ChromInfo struct {
	Name   string
	Length int64
}

// Genome is the coordinate space data is generated on.
type Genome struct {
	Chroms []ChromInfo
}

// TotalLength returns the genome size in bases.
func (g Genome) TotalLength() int64 {
	var t int64
	for _, c := range g.Chroms {
		t += c.Length
	}
	return t
}

// HumanLike returns a genome with the 24 human chromosomes at 1/100 of
// their real size — large enough that region densities match reality, small
// enough for laptop-scale benchmarking.
func HumanLike() Genome {
	// Real hg19 lengths in Mb, divided by 100 (so chr1 is ~2.5 Mb here).
	mb := []struct {
		name string
		mb   float64
	}{
		{"chr1", 249}, {"chr2", 243}, {"chr3", 198}, {"chr4", 191}, {"chr5", 181},
		{"chr6", 171}, {"chr7", 159}, {"chr8", 146}, {"chr9", 141}, {"chr10", 136},
		{"chr11", 135}, {"chr12", 134}, {"chr13", 115}, {"chr14", 107}, {"chr15", 103},
		{"chr16", 90}, {"chr17", 81}, {"chr18", 78}, {"chr19", 59}, {"chr20", 63},
		{"chr21", 48}, {"chr22", 51}, {"chrX", 155}, {"chrY", 59},
	}
	g := Genome{Chroms: make([]ChromInfo, len(mb))}
	for i, c := range mb {
		g.Chroms[i] = ChromInfo{Name: c.name, Length: int64(c.mb * 1e4)}
	}
	return g
}

// Generator produces synthetic samples and datasets.
type Generator struct {
	rng    *rand.Rand
	Genome Genome
}

// New returns a generator over the human-like genome.
func New(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed)), Genome: HumanLike()}
}

// randomChrom picks a chromosome weighted by length, so region density is
// uniform along the genome.
func (g *Generator) randomChrom() ChromInfo {
	total := g.Genome.TotalLength()
	p := g.rng.Int63n(total)
	for _, c := range g.Genome.Chroms {
		if p < c.Length {
			return c
		}
		p -= c.Length
	}
	return g.Genome.Chroms[len(g.Genome.Chroms)-1]
}

// PeakSchema is the region schema of synthetic ChIP-seq samples — the PEAKS
// schema of Fig. 2 of the paper (p_value) plus the signal strength real
// callers emit.
var PeakSchema = gdm.MustSchema(
	gdm.Field{Name: "p_value", Type: gdm.KindFloat},
	gdm.Field{Name: "signal", Type: gdm.KindFloat},
)

// Metadata vocabularies, echoing ENCODE controlled terms.
var (
	cells      = []string{"HeLa-S3", "K562", "GM12878", "HepG2", "H1-hESC", "MCF-7"}
	antibodies = []string{"CTCF", "POLR2A", "MYC", "REST", "EP300", "H3K27ac", "H3K4me1", "H3K4me3"}
	treatments = []string{"none", "IFNg", "TNFa", "estradiol"}
	karyotypes = []string{"cancer", "normal"}
	sexes      = []string{"female", "male"}
)

// ChipSeq generates one ChIP-seq peak sample: nPeaks peaks of log-normal
// length at uniform positions, with plausible p-values and signals.
func (g *Generator) ChipSeq(id string, nPeaks int) *gdm.Sample {
	s := gdm.NewSample(id)
	for i := 0; i < nPeaks; i++ {
		c := g.randomChrom()
		length := int64(math.Exp(g.rng.NormFloat64()*0.5+5.5)) + 50 // ~300b median
		start := g.rng.Int63n(max64(c.Length-length, 1))
		s.AddRegion(gdm.NewRegion(c.Name, start, start+length, gdm.StrandNone),
			gdm.Float(math.Pow(10, -2-8*g.rng.Float64())), // p in [1e-10, 1e-2]
			gdm.Float(1+g.rng.ExpFloat64()*5))
	}
	s.SortRegions()
	return s
}

// EncodeOptions tunes the synthetic ENCODE repository.
type EncodeOptions struct {
	Samples int
	// MeanPeaks is the mean of the heavy-tailed per-sample peak count.
	MeanPeaks int
	// ChipFraction is the fraction of samples with dataType ChipSeq
	// (the rest split between RnaSeq and DnaseSeq). Default 0.6.
	ChipFraction float64
	// MissingMeta is the probability that an optional metadata attribute is
	// omitted, reproducing the LIMS sloppiness of Section 1. Default 0.2.
	MissingMeta float64
}

// Encode generates an ENCODE-like dataset: Samples samples whose peak counts
// follow a heavy-tailed distribution around MeanPeaks, with ENCODE-ish
// metadata (dataType, cell, antibody, treatment, karyotype, sex) where some
// optional attributes are randomly missing.
func (g *Generator) Encode(opt EncodeOptions) *gdm.Dataset {
	if opt.ChipFraction == 0 {
		opt.ChipFraction = 0.6
	}
	if opt.MissingMeta == 0 {
		opt.MissingMeta = 0.2
	}
	ds := gdm.NewDataset("ENCODE", PeakSchema)
	for i := 0; i < opt.Samples; i++ {
		// Pareto-ish peak count: most samples small, a few huge (MeanPeaks
		// is the scale; the realized mean is ~1.9x the scale).
		u := g.rng.Float64()
		n := int(float64(opt.MeanPeaks) * 0.4 / (1 - u*0.99))
		if n < 1 {
			n = 1
		}
		s := g.ChipSeq(fmt.Sprintf("enc%05d", i), n)
		switch {
		case g.rng.Float64() < opt.ChipFraction:
			s.Meta.Add("dataType", "ChipSeq")
			s.Meta.Add("antibody", antibodies[g.rng.Intn(len(antibodies))])
		case g.rng.Float64() < 0.5:
			s.Meta.Add("dataType", "RnaSeq")
		default:
			s.Meta.Add("dataType", "DnaseSeq")
		}
		s.Meta.Add("cell", cells[g.rng.Intn(len(cells))])
		if g.rng.Float64() > opt.MissingMeta {
			s.Meta.Add("treatment", treatments[g.rng.Intn(len(treatments))])
		}
		if g.rng.Float64() > opt.MissingMeta {
			s.Meta.Add("karyotype", karyotypes[g.rng.Intn(len(karyotypes))])
		}
		if g.rng.Float64() > opt.MissingMeta {
			s.Meta.Add("sex", sexes[g.rng.Intn(len(sexes))])
		}
		ds.MustAdd(s)
	}
	return ds
}

// AnnotationSchema is the region schema of the synthetic annotation tracks
// (UCSC/RefSeq stand-in): a feature name.
var AnnotationSchema = gdm.MustSchema(
	gdm.Field{Name: "name", Type: gdm.KindString},
)

// Gene is one synthetic gene placement, used by scenario generators to plant
// ground truth. Its promoter's name attribute is the gene's Name.
type Gene struct {
	Name     string
	Chrom    string
	TSS      int64 // transcription start site
	Strand   gdm.Strand
	Length   int64
	Promoter gdm.Region
}

// Genes places nGenes genes at uniform positions with log-normal lengths.
// The promoter of a gene spans [TSS-2000, TSS+200) on its strand.
func (g *Generator) Genes(nGenes int) []Gene {
	genes := make([]Gene, nGenes)
	for i := range genes {
		c := g.randomChrom()
		length := int64(math.Exp(g.rng.NormFloat64()*1.0+9.0)) + 1000 // ~10kb median
		strand := gdm.StrandPlus
		if g.rng.Intn(2) == 1 {
			strand = gdm.StrandMinus
		}
		tss := g.rng.Int63n(max64(c.Length-length-3000, 1)) + 2500
		name := fmt.Sprintf("GENE%05d", i)
		var prom gdm.Region
		if strand == gdm.StrandPlus {
			prom = gdm.NewRegion(c.Name, tss-2000, tss+200, strand)
		} else {
			// TSS of a minus-strand gene is its right end.
			prom = gdm.NewRegion(c.Name, tss+length-200, tss+length+2000, strand)
		}
		genes[i] = Gene{Name: name, Chrom: c.Name, TSS: tss, Strand: strand, Length: length, Promoter: prom}
	}
	sort.Slice(genes, func(a, b int) bool {
		if genes[a].Chrom != genes[b].Chrom {
			return gdm.CompareChrom(genes[a].Chrom, genes[b].Chrom) < 0
		}
		return genes[a].TSS < genes[b].TSS
	})
	return genes
}

// Annotations builds the ANNOTATIONS dataset of the paper's headline query
// from gene placements: a "promoters" sample (annType=promoter), a "genes"
// sample (annType=gene), both with the UCSC-style name attribute.
func (g *Generator) Annotations(genes []Gene) *gdm.Dataset {
	ds := gdm.NewDataset("ANNOTATIONS", AnnotationSchema)
	proms := gdm.NewSample("promoters")
	proms.Meta.Add("annType", "promoter")
	proms.Meta.Add("provider", "UCSC")
	geneSample := gdm.NewSample("genes")
	geneSample.Meta.Add("annType", "gene")
	geneSample.Meta.Add("provider", "RefSeq")
	for _, gene := range genes {
		proms.AddRegion(gene.Promoter, gdm.Str(gene.Name))
		geneSample.AddRegion(gdm.NewRegion(gene.Chrom, gene.TSS, gene.TSS+gene.Length,
			gene.Strand), gdm.Str(gene.Name))
	}
	proms.SortRegions()
	geneSample.SortRegions()
	ds.MustAdd(proms)
	ds.MustAdd(geneSample)
	return ds
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
