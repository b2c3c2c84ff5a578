// ctcf_loops reproduces the Fig. 3 analysis: testing whether active
// enhancers regulate active genes when both are enclosed within CTCF loops.
// GMQL extracts candidate gene-enhancer pairs by intersecting the CTCF loop
// regions, the three methylation experiments (H3K27ac, H3K4me1, H3K4me3)
// and the RefSeq-like promoters; the synthetic scenario plants ground-truth
// pairs so the pipeline's precision and recall are measurable.
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

// The Fig. 3 query: enhancers are H3K4me1 marks carrying H3K27ac (active);
// promoters are active when marked by H3K4me3 and H3K27ac; candidate pairs
// are (active enhancer, active promoter) inside one CTCF loop.
const script = `
K27AC  = SELECT(antibody == 'H3K27ac') MARKS;
K4ME1  = SELECT(antibody == 'H3K4me1') MARKS;
K4ME3  = SELECT(antibody == 'H3K4me3') MARKS;

# Active enhancers: H3K4me1 regions with an H3K27ac region on top.
ACT_ENH = JOIN(DLE(-1); output: LEFT) K4ME1 K27AC;

# Active promoters: promoter annotations marked by H3K4me3 and H3K27ac.
MARKED  = JOIN(DLE(-1); output: LEFT) PROMOTERS K4ME3;
ACT_PROM = JOIN(DLE(-1); output: LEFT) MARKED K27AC;

# Enhancer inside a loop; keep the loop span and the loop id.
ENH_LOOP = JOIN(DLE(0); output: RIGHT) ACT_ENH CTCF_LOOPS;

# Promoter inside the same loop span.
PAIRS = JOIN(DLE(0); output: INT) ENH_LOOP ACT_PROM;
MATERIALIZE PAIRS INTO pairs;
`

func main() {
	loops := flag.Int("loops", 150, "CTCF loops to generate")
	flag.Parse()

	sc := synth.New(33).CTCF(*loops)
	catalog := engine.MapCatalog{
		"CTCF_LOOPS": sc.Loops,
		"MARKS":      sc.Marks,
		"PROMOTERS":  sc.Promoters,
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
	pairs := results[0].Dataset

	// Evaluate against the planted truth: a recovered pair is (loop id,
	// gene) — the loop id identifies the enhancer's loop, and planted true
	// pairs are always within one loop, so pair recovery per loop+gene is
	// the right granularity.
	li, ok := pairs.Schema.Index("loop")
	if !ok {
		log.Fatalf("no loop attribute in schema %s", pairs.Schema)
	}
	gi, ok := pairs.Schema.Index("name")
	if !ok {
		log.Fatalf("no gene attribute in schema %s", pairs.Schema)
	}
	found := map[string]bool{}
	for _, s := range pairs.Samples {
		for i := range s.Regions {
			row := s.Row(i)
			found[row[li].Str()+"\x1f"+row[gi].Str()] = true
		}
	}
	// Planted truth at the same granularity.
	truth := map[string]bool{}
	for pair := range sc.TruePairs {
		// ENH0042_1 -> LOOP0042; gene names carry the loop index too.
		var loopIdx, enhIdx int
		var gene string
		if _, err := fmt.Sscanf(pair, "ENH%4d_%d\x1f%s", &loopIdx, &enhIdx, &gene); err == nil {
			truth[fmt.Sprintf("LOOP%04d\x1f%s", loopIdx, gene)] = true
		}
	}
	tp, fp := 0, 0
	for k := range found {
		if truth[k] {
			tp++
		} else {
			fp++
		}
	}
	fn := 0
	for k := range truth {
		if !found[k] {
			fn++
		}
	}
	p, r, f1 := stats.PrecisionRecallF1(tp, fp, fn)

	fmt.Println("=== Fig. 3: enhancer-gene pairs through CTCF loops ===")
	fmt.Printf("loops generated:        %d\n", *loops)
	fmt.Printf("enhancers generated:    %d (true regulating: %d)\n", sc.Enhancers, len(sc.TruePairs))
	fmt.Printf("candidate (loop,gene):  %d recovered\n", len(found))
	fmt.Printf("precision=%.3f recall=%.3f F1=%.3f\n", p, r, f1)
}
