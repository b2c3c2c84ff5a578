// tcga_drivers runs a TCGA-style driver-gene analysis: GMQL selects a
// cancer subtype's patients and maps their somatic mutations onto the gene
// annotation track; the hypergeometric enrichment test (GREAT's gene-based
// statistic) then ranks genes mutated in significantly more patients of the
// subtype than chance allows. The synthetic cohort plants known drivers, so
// recovery is measurable — the genotype-phenotype correlation analysis of
// Section 4.1 end to end.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"genogo/internal/engine"
	"genogo/internal/gmql"
	"genogo/internal/stats"
	"genogo/internal/synth"
)

func main() {
	patients := flag.Int("patients", 150, "cohort size")
	subtype := flag.String("subtype", "BRCA", "cancer subtype to analyze")
	flag.Parse()

	sc := synth.New(2020).TCGA(synth.TCGAOptions{Patients: *patients})
	catalog := engine.MapCatalog{
		"TCGA":        sc.Mutations,
		"ANNOTATIONS": sc.GeneAnnotations,
	}

	// GMQL: per-patient mutation counts over every gene, for the subtype's
	// patients.
	script := fmt.Sprintf(`
GENES = SELECT(annType == 'gene') ANNOTATIONS;
COHORT = SELECT(subtype == '%s') TCGA;
PERGENE = MAP(muts AS COUNT) GENES COHORT;
MATERIALIZE PERGENE;
`, *subtype)
	prog, err := gmql.Parse(script)
	if err != nil {
		log.Fatal(err)
	}
	runner := gmql.NewRunner(catalog)
	results, err := runner.Materialize(prog)
	if err != nil {
		log.Fatal(err)
	}
	perGene := results[0].Dataset

	// Count, per gene, how many cohort patients carry >= 1 mutation in it.
	gi, _ := perGene.Schema.Index("name")
	mi, _ := perGene.Schema.Index("muts")
	patientsWith := map[string]int{}
	cohort := len(perGene.Samples)
	for _, s := range perGene.Samples {
		for i := range s.Regions {
			if row := s.Row(i); row[mi].Int() > 0 {
				patientsWith[row[gi].Str()]++
			}
		}
	}

	// Hypergeometric framing (GREAT's gene-based test): the population is
	// every (gene, patient) cell of the cohort matrix, of which
	// mutatedCells are successes; each gene draws one cell per patient.
	// P[X >= k] asks how surprising the gene's k mutated patients are
	// against the cohort-wide mutation density.
	totalCells, mutatedCells := 0, 0
	for _, s := range perGene.Samples {
		for i := range s.Regions {
			totalCells++
			if s.Row(i)[mi].Int() > 0 {
				mutatedCells++
			}
		}
	}
	avgMutatedPerGene := float64(mutatedCells) / float64(totalCells) * float64(cohort)

	type hit struct {
		gene string
		k    int
		p    float64
	}
	var hits []hit
	for gene, k := range patientsWith {
		p := stats.HypergeometricPUpper(k, mutatedCells, cohort, totalCells)
		hits = append(hits, hit{gene, k, p})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].p != hits[j].p {
			return hits[i].p < hits[j].p
		}
		return hits[i].k > hits[j].k
	})

	planted := map[string]bool{}
	for _, d := range sc.Drivers[*subtype] {
		planted[d] = true
	}
	fmt.Printf("=== %s cohort: %d patients, %d genes tested ===\n", *subtype, cohort, len(hits))
	fmt.Printf("background: ~%.1f mutated patients per gene\n\n", avgMutatedPerGene)
	fmt.Printf("%-12s %-9s %-12s %s\n", "gene", "patients", "p-value", "planted driver?")
	recovered := 0
	for i, h := range hits {
		if i >= 8 {
			break
		}
		mark := ""
		if planted[h.gene] {
			mark = "YES"
			if i < len(planted) {
				recovered++
			}
		}
		fmt.Printf("%-12s %-9d %-12.3g %s\n", h.gene, h.k, h.p, mark)
	}
	fmt.Printf("\nplanted drivers recovered in top %d: %d of %d\n",
		len(planted), recovered, len(planted))
}
