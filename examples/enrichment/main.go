// enrichment imitates the GREAT service of Section 4.3 / ref [18]: custom
// queries "augmented with powerful statistics to indicate the significance
// of query results". For a ChIP-seq peak sample, each annotation track is
// scored by the binomial enrichment of peak-annotation overlaps against the
// genomic background fraction the track covers, and ranked by significance.
package main

import (
	"fmt"
	"log"
	"sort"

	"genogo/internal/engine"
	"genogo/internal/expr"
	"genogo/internal/gdm"
	"genogo/internal/stats"
	"genogo/internal/synth"
)

func main() {
	g := synth.New(99)
	genes := g.Genes(400)
	annotations := g.Annotations(genes)
	genomeLen := g.Genome.TotalLength()

	// A peak sample planted to bind promoters: half its peaks sit on
	// promoters, half are background.
	peaks := gdm.NewSample("tf_chip")
	peaks.Meta.Add("antibody", "MYC")
	for i, gene := range genes {
		if i%2 == 0 {
			p := gene.Promoter
			peaks.AddRegion(gdm.NewRegion(p.Chrom, p.Center()-100, p.Center()+100, gdm.StrandNone),
				gdm.Float(0.0001), gdm.Float(5))
		}
	}
	bg := g.ChipSeq("bg", 200)
	peaks.Regions = append(peaks.Regions, bg.Regions...)
	peaks.Values = append(peaks.Values, bg.Values...)
	peaks.SortRegions()
	peakDS := gdm.NewDataset("PEAKS", synth.PeakSchema)
	peakDS.MustAdd(peaks)

	cfg := engine.DefaultConfig()
	type row struct {
		track   string
		covered float64 // genome fraction covered by the track
		hits    int     // peaks overlapping the track
		z       float64
		pUpper  float64
	}
	var rows []row
	n := len(peaks.Regions)

	for _, track := range annotations.Samples {
		// Track coverage fraction of the genome (merged to avoid double
		// counting).
		trackDS := gdm.NewDataset("T", annotations.Schema)
		trackDS.MustAdd(track.Clone())
		merged, err := engine.Cover(cfg, trackDS, engine.CoverArgs{
			Min: engine.CoverBound{Kind: engine.BoundAny},
			Max: engine.CoverBound{Kind: engine.BoundAny},
		})
		if err != nil {
			log.Fatal(err)
		}
		var covered int64
		for _, r := range merged.Samples[0].Regions {
			covered += r.Length()
		}
		p := float64(covered) / float64(genomeLen)

		// Count peaks hitting the track: MAP the peaks onto the merged
		// track and count regions with at least one overlap — then invert:
		// we want per-peak hits, so map track onto peaks.
		mapped, err := engine.Map(cfg, peakDS, merged, engine.MapArgs{
			Aggs: []expr.Aggregate{{Output: "hits", Func: expr.AggCount}},
		})
		if err != nil {
			log.Fatal(err)
		}
		hi, _ := mapped.Schema.Index("hits")
		hits := 0
		for i := range mapped.Samples[0].Regions {
			if mapped.Samples[0].Row(i)[hi].Int() > 0 {
				hits++
			}
		}
		rows = append(rows, row{
			track:   track.ID,
			covered: p,
			hits:    hits,
			z:       stats.BinomialZ(hits, n, p),
			pUpper:  stats.BinomialPUpper(hits, n, p),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].z > rows[j].z })

	fmt.Println("=== GREAT-style enrichment of tf_chip peaks ===")
	fmt.Printf("%d peaks tested against %d annotation tracks\n\n", n, len(rows))
	fmt.Printf("%-12s %-14s %-8s %-10s %s\n", "track", "genome frac", "hits", "z-score", "p-value")
	for _, r := range rows {
		fmt.Printf("%-12s %-14.5f %-8d %-10.1f %.3g\n", r.track, r.covered, r.hits, r.z, r.pUpper)
	}
	fmt.Println("\npromoters should dominate: the sample was planted to bind them.")
}
