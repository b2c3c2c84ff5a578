// breakpoints reproduces the Section 3 open problem: correlating
// cancer-inducing mutations and DNA string breaks with abnormal gene
// activity under oncogene induction. Exactly as the paper sketches, GMQL
// extracts differentially dis-regulated genes, intersects them with regions
// where string breaks occur, and counts the mutations in the two
// experimental conditions; the synthetic scenario plants fragile genes so
// the pipeline's recovery is measurable.
package main

import (
	"flag"
	"fmt"
	"log"

	"genogo/internal/engine"
	"genogo/internal/gmql"
	"genogo/internal/stats"
	"genogo/internal/synth"
)

const script = `
CONTROL = SELECT(condition == 'control') EXPRESSION;
INDUCED = SELECT(condition == 'oncogene_induced') EXPRESSION;

# Pair each gene's control and induced expression on identical coordinates.
BOTH = JOIN(DLE(-1); output: LEFT) CONTROL INDUCED;

# Differentially dis-regulated: induced expression dropped below 50%.
DISREG = SELECT(; region: right.expression < expression / 2) BOTH;

# Intersect dis-regulated genes with DNA break regions.
BROKEN = JOIN(DLE(0); output: LEFT) DISREG BREAKS;

# Count mutations per candidate gene; MAP pairs the candidate regions with
# each mutation sample (one per condition), so conditions stay separate.
MUTS = MAP(mutations AS COUNT) BROKEN MUTATIONS;
MATERIALIZE MUTS INTO muts;
MATERIALIZE DISREG INTO disreg;
`

func main() {
	genes := flag.Int("genes", 300, "genes in the scenario")
	flag.Parse()

	sc := synth.New(55).Replication(*genes)
	catalog := engine.MapCatalog{
		"EXPRESSION": sc.Expression,
		"BREAKS":     sc.Breakpoints,
		"MUTATIONS":  sc.Mutations,
	}
	prog, err := gmql.Parse(script)
	if err != nil {
		log.Fatal(err)
	}
	runner := gmql.NewRunner(catalog)
	results, err := runner.Materialize(prog)
	if err != nil {
		log.Fatal(err)
	}
	var muts, disreg = results[0].Dataset, results[1].Dataset

	// Dis-regulation recovery vs. planted fragile genes.
	gi, _ := disreg.Schema.Index("gene")
	found := map[string]bool{}
	for _, s := range disreg.Samples {
		for i := range s.Regions {
			found[s.Row(i)[gi].Str()] = true
		}
	}
	tp, fp := 0, 0
	for g := range found {
		if sc.FragileGenes[g] {
			tp++
		} else {
			fp++
		}
	}
	fn := 0
	for g := range sc.FragileGenes {
		if !found[g] {
			fn++
		}
	}
	p, r, f1 := stats.PrecisionRecallF1(tp, fp, fn)
	fmt.Println("=== Section 3: dis-regulated genes vs planted fragile genes ===")
	fmt.Printf("planted fragile genes: %d, recovered: %d\n", len(sc.FragileGenes), len(found))
	fmt.Printf("precision=%.3f recall=%.3f F1=%.3f\n", p, r, f1)

	// Mutation enrichment per condition: the MAP result pairs each broken
	// dis-regulated gene with both mutation samples.
	mi, _ := muts.Schema.Index("mutations")
	ggi, _ := muts.Schema.Index("gene")
	perCondition := map[string][]float64{}
	for _, s := range muts.Samples {
		cond := s.Meta.First("right.condition")
		for i := range s.Regions {
			perCondition[cond] = append(perCondition[cond], float64(s.Row(i)[mi].Int()))
		}
		_ = ggi
	}
	fmt.Println("\n=== Mutations in broken dis-regulated gene bodies, per condition ===")
	for _, cond := range []string{"control", "oncogene_induced"} {
		sum := stats.Describe(perCondition[cond])
		fmt.Printf("%-17s genes=%d mean=%.2f median=%.1f max=%.0f\n",
			cond, sum.N, sum.Mean, sum.Median, sum.Max)
	}
	ctrl := stats.Mean(perCondition["control"])
	ind := stats.Mean(perCondition["oncogene_induced"])
	fmt.Printf("\ninduced/control mutation fold change: %.1fx\n", stats.FoldChange(ctrl, ind))
}
