// pipeline walks the three phases of genomic data analysis of Fig. 1:
// primary analysis (simulated reads), secondary analysis (alignment-free
// peak calling on read pileups), and tertiary analysis (multi-sample sense
// making with GMQL). The first two phases are deliberately simple — the
// paper's thesis is that computer science should empower the third.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"genogo/internal/engine"
	"genogo/internal/gdm"
	"genogo/internal/gmql"
	"genogo/internal/intervals"
	"genogo/internal/synth"
)

// primaryAnalysis simulates NGS read production: short reads sampled around
// unknown binding sites ("the machine reads the DNA").
func primaryAnalysis(rng *rand.Rand, genome synth.Genome, sites []gdm.Region, readsPerSite int) []gdm.Region {
	var reads []gdm.Region
	const readLen = 100
	for _, site := range sites {
		for i := 0; i < readsPerSite; i++ {
			offset := rng.Int63n(400) - 200
			start := site.Center() + offset - readLen/2
			if start < 0 {
				start = 0
			}
			reads = append(reads, gdm.NewRegion(site.Chrom, start, start+readLen, gdm.StrandNone))
		}
	}
	// Background noise reads.
	for i := 0; i < len(sites)*readsPerSite/4; i++ {
		c := genome.Chroms[rng.Intn(len(genome.Chroms))]
		start := rng.Int63n(c.Length - readLen)
		reads = append(reads, gdm.NewRegion(c.Name, start, start+readLen, gdm.StrandNone))
	}
	return reads
}

// secondaryAnalysis calls peaks from aligned reads: pileup depth >= minDepth
// becomes a peak (a toy caller — exactly the part the paper declines to
// reinvent).
func secondaryAnalysis(id string, reads []gdm.Region, minDepth int) *gdm.Sample {
	s := gdm.NewSample(id)
	byChrom := map[string][]intervals.Entry{}
	for _, r := range reads {
		byChrom[r.Chrom] = append(byChrom[r.Chrom], intervals.Entry{Start: r.Start, Stop: r.Stop})
	}
	for chrom, es := range byChrom {
		intervals.SortEntries(es)
		for _, seg := range intervals.Coverage(es) {
			if seg.Depth >= minDepth {
				s.AddRegion(gdm.NewRegion(chrom, seg.Start, seg.Stop, gdm.StrandNone),
					gdm.Float(1.0/float64(seg.Depth)), gdm.Float(float64(seg.Depth)))
			}
		}
	}
	s.SortRegions()
	return s
}

const tertiaryScript = `
GENES = SELECT(annType == 'promoter') ANNOTATIONS;
PEAKS = SELECT(dataType == 'ChipSeq') CALLED;
CONSENSUS = COVER(2, ANY) PEAKS;
ONGENES = MAP(peaks AS COUNT) GENES CONSENSUS;
MATERIALIZE ONGENES INTO ongenes;
`

func main() {
	replicas := flag.Int("replicas", 3, "replicate experiments to simulate")
	sites := flag.Int("sites", 80, "true binding sites")
	flag.Parse()

	g := synth.New(66)
	rng := rand.New(rand.NewSource(77))
	genes := g.Genes(100)
	annotations := g.Annotations(genes)

	// Plant true binding sites at some promoters.
	var trueSites []gdm.Region
	for i, gene := range genes {
		if i >= *sites {
			break
		}
		trueSites = append(trueSites, gene.Promoter)
	}

	fmt.Println("=== Phase 1: primary analysis (read production) ===")
	called := gdm.NewDataset("CALLED", synth.PeakSchema)
	totalReads := 0
	for rep := 0; rep < *replicas; rep++ {
		reads := primaryAnalysis(rng, g.Genome, trueSites, 20)
		totalReads += len(reads)
		fmt.Printf("replicate %d: %d reads\n", rep+1, len(reads))

		sample := secondaryAnalysis(fmt.Sprintf("rep%d", rep+1), reads, 5)
		sample.Meta.Add("dataType", "ChipSeq")
		sample.Meta.Add("replicate", fmt.Sprint(rep+1))
		if err := called.Add(sample); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("\n=== Phase 2: secondary analysis (peak calling) ===")
	for _, s := range called.Samples {
		fmt.Printf("%s: %d peaks called\n", s.ID, len(s.Regions))
	}

	fmt.Println("\n=== Phase 3: tertiary analysis (GMQL sense making) ===")
	prog, err := gmql.Parse(tertiaryScript)
	if err != nil {
		log.Fatal(err)
	}
	runner := gmql.NewRunner(engine.MapCatalog{"CALLED": called, "ANNOTATIONS": annotations})
	results, err := runner.Materialize(prog)
	if err != nil {
		log.Fatal(err)
	}
	ongenes := results[0].Dataset
	pi, _ := ongenes.Schema.Index("peaks")
	bound := 0
	for _, s := range ongenes.Samples {
		for i := range s.Regions {
			if s.Row(i)[pi].Int() > 0 {
				bound++
			}
		}
	}
	fmt.Printf("consensus peaks (>=2 replicas): %d of %d promoters bound\n",
		bound, ongenes.NumRegions())
	fmt.Printf("(planted binding sites at %d gene promoters from %d reads)\n", *sites, totalReads)
}
