package synth

import (
	"fmt"
	"math"

	"genogo/internal/gdm"
)

// TCGA-like generation: the paper's second flagship repository is The
// Cancer Genome Atlas — per-patient somatic mutation samples with rich
// clinical metadata. This generator plants driver genes whose mutation
// rates differ per cancer subtype, so genotype-phenotype analyses
// (Section 4.1) have recoverable signal.

// TCGAOptions tunes the synthetic cohort.
type TCGAOptions struct {
	Patients int
	// Genes is the shared gene universe; generated when nil.
	Genes []Gene
	// DriversPerSubtype plants this many driver genes per subtype
	// (default 3).
	DriversPerSubtype int
}

// TCGAScenario is the generated cohort plus its planted ground truth.
type TCGAScenario struct {
	// Mutations holds one sample per patient (schema: gene, ref, alt,
	// vaf float) with clinical metadata: subtype, stage, age, sex, vital.
	Mutations *gdm.Dataset
	// GeneAnnotations is the shared gene track (attribute: name).
	GeneAnnotations *gdm.Dataset
	// Drivers maps subtype -> the planted driver gene names.
	Drivers map[string][]string
	// Subtypes lists the cohort's cancer subtypes.
	Subtypes []string
}

// TCGASchema is the mutation sample schema.
var TCGASchema = gdm.MustSchema(
	gdm.Field{Name: "gene", Type: gdm.KindString},
	gdm.Field{Name: "ref", Type: gdm.KindString},
	gdm.Field{Name: "alt", Type: gdm.KindString},
	gdm.Field{Name: "vaf", Type: gdm.KindFloat}, // variant allele frequency
)

// TCGA generates a synthetic pan-cancer cohort.
func (g *Generator) TCGA(opt TCGAOptions) *TCGAScenario {
	if opt.DriversPerSubtype == 0 {
		opt.DriversPerSubtype = 3
	}
	genes := opt.Genes
	if genes == nil {
		genes = g.Genes(200)
	}
	subtypes := []string{"BRCA", "LUAD", "COAD"}
	sc := &TCGAScenario{
		Mutations: gdm.NewDataset("TCGA", TCGASchema),
		Drivers:   make(map[string][]string),
		Subtypes:  subtypes,
	}
	sc.GeneAnnotations = g.Annotations(genes)

	// Plant disjoint driver sets.
	perm := g.rng.Perm(len(genes))
	next := 0
	driverOf := make(map[string]map[string]bool) // subtype -> gene set
	for _, st := range subtypes {
		set := make(map[string]bool, opt.DriversPerSubtype)
		for d := 0; d < opt.DriversPerSubtype && next < len(perm); d++ {
			name := genes[perm[next]].Name
			next++
			set[name] = true
			sc.Drivers[st] = append(sc.Drivers[st], name)
		}
		driverOf[st] = set
	}

	bases := []string{"A", "C", "G", "T"}
	for p := 0; p < opt.Patients; p++ {
		subtype := subtypes[g.rng.Intn(len(subtypes))]
		s := gdm.NewSample(fmt.Sprintf("TCGA-%02d-%04d", g.rng.Intn(30), p))
		s.Meta.Add("subtype", subtype)
		s.Meta.Add("disease", "cancer")
		s.Meta.Add("stage", []string{"I", "II", "III", "IV"}[g.rng.Intn(4)])
		s.Meta.Add("age", fmt.Sprint(35+g.rng.Intn(50)))
		s.Meta.Add("sex", sexes[g.rng.Intn(len(sexes))])
		if g.rng.Float64() < 0.8 {
			s.Meta.Add("vital_status", []string{"alive", "deceased"}[g.rng.Intn(2)])
		}
		for _, gene := range genes {
			// Background somatic rate ~6%; drivers of the patient's own
			// subtype mutate in ~70% of patients.
			rate := 0.06
			if driverOf[subtype][gene.Name] {
				rate = 0.7
			}
			if g.rng.Float64() >= rate {
				continue
			}
			nMut := 1 + g.rng.Intn(2)
			for m := 0; m < nMut; m++ {
				pos := gene.TSS + g.rng.Int63n(max64(gene.Length, 1))
				ref := bases[g.rng.Intn(4)]
				alt := bases[g.rng.Intn(4)]
				for alt == ref {
					alt = bases[g.rng.Intn(4)]
				}
				vaf := math.Min(0.95, 0.05+g.rng.ExpFloat64()*0.2)
				s.AddRegion(gdm.NewRegion(gene.Chrom, pos, pos+1, gdm.StrandNone),
					gdm.Str(gene.Name), gdm.Str(ref), gdm.Str(alt), gdm.Float(vaf))
			}
		}
		s.SortRegions()
		sc.Mutations.MustAdd(s)
	}
	return sc
}
