package federation

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"genogo/internal/catalog"
	"genogo/internal/engine"
	"genogo/internal/expr"
	"genogo/internal/formats"
	"genogo/internal/gmql"
	"genogo/internal/obs"
	"genogo/internal/synth"
)

// TestRepoObservabilityReport regenerates the EXPERIMENTS.md "Repository
// observability" table: per-workload pruning opportunity (zone-map counts
// from traced runs), estimator log2-ratio error with flat constants vs zone
// statistics, and the write-path overhead of computing the manifest stats
// block. Gated behind REPO_REPORT=1 because it is a measurement, not a
// correctness check.
func TestRepoObservabilityReport(t *testing.T) {
	if os.Getenv("REPO_REPORT") == "" {
		t.Skip("set REPO_REPORT=1 to run the measurement")
	}
	g := synth.New(20)
	enc := g.Encode(synth.EncodeOptions{Samples: 20, MeanPeaks: 200})
	anns := g.Annotations(g.Genes(120))
	cat := engine.MapCatalog{"ENCODE": enc, "ANNOTATIONS": anns}

	workloads := []struct {
		name   string
		script string
	}{
		{"headline MAP (promoter peak counts)", fedScript},
		{"chr1-restricted SELECT", `RESULT = SELECT(; region: chr == 'chr1') ENCODE;
MATERIALIZE RESULT;`},
		{"windowed SELECT (chr2 low coords)", `RESULT = SELECT(; region: chr == 'chr2' AND left < 1000000) ENCODE;
MATERIALIZE RESULT;`},
	}

	stats := computedStats(enc, anns)

	fmt.Println("| workload | prunable regions | prunable partitions | est log2err (flat) | est log2err (zones) |")
	fmt.Println("|---|---|---|---|---|")
	for _, w := range workloads {
		prog, err := gmql.Parse(w.script)
		if err != nil {
			t.Fatal(err)
		}
		r := &gmql.Runner{Config: engine.Config{Mode: engine.ModeSerial}, Catalog: cat}
		ds, sp, err := r.EvalProfiled(prog, "RESULT")
		if err != nil {
			t.Fatal(err)
		}
		var consulted, prunableParts int
		var prunableRegions, inRegions int64
		for _, s := range sp.Flatten() {
			if s.PruneParts == 0 {
				continue
			}
			consulted += s.PruneParts
			prunableParts += s.PrunableParts
			prunableRegions += s.PrunableRegions
			inRegions += int64(s.RegionsIn)
		}
		plan := engine.Optimize(prog.Plan("RESULT"))
		actual := int64(ds.NumRegions())
		zoneErr := obs.Log2Ratio(int64(EstimatePlan(plan, stats).Regions), actual)
		// A disjunction is never window-analyzable, so hiding the region
		// predicate in one makes the estimator use its flat constant.
		if sel, ok := plan.(*engine.SelectOp); ok && sel.Region != nil {
			sel.Region = expr.Or{Left: sel.Region, Right: sel.Region}
		}
		flatErr := obs.Log2Ratio(int64(EstimatePlan(plan, stats).Regions), actual)
		fmt.Printf("| %s | %d/%d (%.0f%%) | %d/%d | %+.2f | %+.2f |\n",
			w.name, prunableRegions, inRegions, pct(prunableRegions, inRegions),
			prunableParts, consulted, flatErr, zoneErr)
	}

	// Write-path overhead: full WriteDatasetColumnar (which computes the
	// stats block inline) vs the stats computation alone.
	dir := t.TempDir()
	const rounds = 5
	var writeNS, statsNS int64
	for i := 0; i < rounds; i++ {
		target := filepath.Join(dir, fmt.Sprintf("W%d", i))
		start := time.Now()
		if err := formats.WriteDatasetColumnar(target, enc); err != nil {
			t.Fatal(err)
		}
		writeNS += time.Since(start).Nanoseconds()
		start = time.Now()
		_ = catalog.Compute(enc)
		statsNS += time.Since(start).Nanoseconds()
	}
	fmt.Printf("\nwrite path: %.1fms/write, stats block %.2fms (%.1f%% of the write)\n",
		float64(writeNS)/float64(rounds)/1e6,
		float64(statsNS)/float64(rounds)/1e6,
		100*float64(statsNS)/float64(writeNS))
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
