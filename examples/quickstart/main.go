// Quickstart reproduces Fig. 2 of the paper — the GDM schema and instances
// for NGS ChIP-Seq data — and runs a first GMQL query over it, showing the
// public API end to end: build a dataset, parse a script, execute, inspect.
package main

import (
	"fmt"
	"log"

	"genogo/internal/engine"
	"genogo/internal/gmql"
	"genogo/internal/synth"
)

func main() {
	// The PEAKS dataset exactly as Fig. 2 describes it: two ChIP-seq
	// samples, fixed coordinate attributes + one variable attribute
	// (p_value), metadata as id-attribute-value triples.
	peaks := synth.Figure2Dataset()

	fmt.Println("=== GDM regions (Fig. 2, upper part) ===")
	fmt.Printf("schema: id | chr | left | right | strand | %s\n", peaks.Schema.Names()[0])
	for _, s := range peaks.Samples {
		for i, r := range s.Regions {
			fmt.Printf("  %s | %s | %d | %d | %s | %s\n",
				s.ID, r.Chrom, r.Start, r.Stop, r.Strand, s.Row(i)[0])
		}
	}
	fmt.Println("\n=== GDM metadata (Fig. 2, lower part) ===")
	for _, s := range peaks.Samples {
		for _, p := range s.Meta.Pairs() {
			fmt.Printf("  %s | %s | %s\n", s.ID, p[0], p[1])
		}
	}

	// A first GMQL query: select the cancer sample, keep its strongest
	// peaks, and compute per-sample statistics.
	script := `
CANCER = SELECT(karyotype == 'cancer'; region: p_value < 0.00005) PEAKS;
STATS  = EXTEND(n AS COUNT, best AS MIN(p_value)) CANCER;
MATERIALIZE STATS INTO stats;
`
	prog, err := gmql.Parse(script)
	if err != nil {
		log.Fatal(err)
	}
	runner := gmql.NewRunner(engine.MapCatalog{"PEAKS": peaks})
	results, err := runner.Materialize(prog)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n=== Query result ===")
	for _, res := range results {
		for _, s := range res.Dataset.Samples {
			fmt.Printf("sample %s: %d strong peaks, best p-value %s\n",
				s.ID, len(s.Regions), s.Meta.First("best"))
			for i, r := range s.Regions {
				fmt.Printf("  %s %v\n", r, s.Row(i))
			}
		}
	}
}
