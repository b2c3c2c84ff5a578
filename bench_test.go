// Benchmarks regenerating every quantitative claim of the paper. Each
// BenchmarkE* function corresponds to one experiment of DESIGN.md /
// EXPERIMENTS.md; BenchmarkAblation* functions cover the design-choice
// ablations DESIGN.md calls out. Custom metrics are attached with
// b.ReportMetric so the bench output doubles as the experiment's data rows.
package genogo_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"genogo/internal/engine"
	"genogo/internal/federation"
	"genogo/internal/gdm"
	"genogo/internal/genomenet"
	"genogo/internal/genospace"
	"genogo/internal/gmql"
	"genogo/internal/meta"
	"genogo/internal/ontology"
	"genogo/internal/resilience"
	"genogo/internal/synth"
)

// ---------------------------------------------------------------------------
// Shared fixtures. Generated once, reused by every bench (generation is
// excluded from timings).

type fixture struct {
	encode      map[int]*gdm.Dataset // ENCODE slices by sample count
	annotations *gdm.Dataset
	ctcf        *synth.CTCFScenario
	replication *synth.ReplicationScenario
}

var (
	fixOnce sync.Once
	fix     fixture
)

// encodeSizes is the sample-count sweep of the headline experiment:
// 1/64 .. ~1/8 of the paper's 2,423 samples.
var encodeSizes = []int{38, 76, 151, 303}

func load() fixture {
	fixOnce.Do(func() {
		fix.encode = make(map[int]*gdm.Dataset)
		for _, n := range encodeSizes {
			g := synth.New(int64(1000 + n))
			fix.encode[n] = g.Encode(synth.EncodeOptions{Samples: n, MeanPeaks: 700})
		}
		g := synth.New(4000)
		fix.annotations = g.Annotations(g.Genes(2060)) // ~1/64 of 131,780 promoters
		fix.ctcf = synth.New(4100).CTCF(150)
		fix.replication = synth.New(4200).Replication(400)
	})
	return fix
}

const headlineScript = `
PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
RESULT = MAP(peak_count AS COUNT) PROMS PEAKS;
MATERIALIZE RESULT INTO result;
`

func runScript(b *testing.B, script, target string, cfg engine.Config, cat engine.Catalog) *gdm.Dataset {
	b.Helper()
	prog, err := gmql.Parse(script)
	if err != nil {
		b.Fatal(err)
	}
	runner := &gmql.Runner{Config: cfg, Catalog: cat}
	results, err := runner.Materialize(prog)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range results {
		if r.Var == target || r.Target == target {
			return r.Dataset
		}
	}
	return results[0].Dataset
}

// ---------------------------------------------------------------------------
// E2 — the Section 2 headline query: scaled sweep + extrapolation against
// the paper's 2,423 samples / 83,899,526 peaks / 131,780 promoters / 29 GB.

func BenchmarkE2HeadlineMap(b *testing.B) {
	f := load()
	const (
		paperSamples   = 2423
		paperPromoters = 131780
		paperGB        = 29.0
	)
	for _, n := range encodeSizes {
		b.Run(fmt.Sprintf("samples=%d", n), func(b *testing.B) {
			cat := engine.MapCatalog{"ENCODE": f.encode[n], "ANNOTATIONS": f.annotations}
			cfg := engine.DefaultConfig()
			var out *gdm.Dataset
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = runScript(b, headlineScript, "result", cfg, cat)
			}
			b.StopTimer()
			chip := 0
			peaks := 0
			for _, s := range f.encode[n].Samples {
				if s.Meta.Matches("dataType", "ChipSeq") {
					chip++
					peaks += len(s.Regions)
				}
			}
			proms := len(f.annotations.Sample("promoters").Regions)
			// MAP cardinality law: |result regions| = chip samples x promoters.
			if out.NumRegions() != chip*proms {
				b.Fatalf("cardinality law violated: %d != %d x %d", out.NumRegions(), chip, proms)
			}
			bytesPerRow := float64(out.EstimateBytes()) / float64(out.NumRegions())
			projectedGB := bytesPerRow * paperSamples * paperPromoters / 1e9
			b.ReportMetric(float64(peaks), "peaks")
			b.ReportMetric(float64(out.NumRegions()), "result_regions")
			b.ReportMetric(projectedGB, "projectedGB_at_paper_scale")
			b.ReportMetric(projectedGB/paperGB, "ratio_vs_paper_29GB")
		})
	}
}

// ---------------------------------------------------------------------------
// E4 — Fig. 3: candidate enhancer-gene pairs through CTCF loops.

const ctcfScript = `
K27AC  = SELECT(antibody == 'H3K27ac') MARKS;
K4ME1  = SELECT(antibody == 'H3K4me1') MARKS;
K4ME3  = SELECT(antibody == 'H3K4me3') MARKS;
ACT_ENH = JOIN(DLE(-1); output: LEFT) K4ME1 K27AC;
MARKED  = JOIN(DLE(-1); output: LEFT) PROMOTERS K4ME3;
ACT_PROM = JOIN(DLE(-1); output: LEFT) MARKED K27AC;
ENH_LOOP = JOIN(DLE(0); output: RIGHT) ACT_ENH CTCF_LOOPS;
PAIRS = JOIN(DLE(0); output: INT) ENH_LOOP ACT_PROM;
MATERIALIZE PAIRS INTO pairs;
`

func BenchmarkE4CTCFPairs(b *testing.B) {
	f := load()
	cat := engine.MapCatalog{
		"CTCF_LOOPS": f.ctcf.Loops, "MARKS": f.ctcf.Marks, "PROMOTERS": f.ctcf.Promoters,
	}
	cfg := engine.DefaultConfig()
	var pairs *gdm.Dataset
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs = runScript(b, ctcfScript, "pairs", cfg, cat)
	}
	b.StopTimer()
	li, _ := pairs.Schema.Index("loop")
	gi, _ := pairs.Schema.Index("name")
	found := map[string]bool{}
	for _, s := range pairs.Samples {
		for i := range s.Regions {
			found[s.Row(i)[li].Str()+"\x1f"+s.Row(i)[gi].Str()] = true
		}
	}
	truth := map[string]bool{}
	for pair := range f.ctcf.TruePairs {
		var loopIdx, enhIdx int
		var gene string
		if _, err := fmt.Sscanf(pair, "ENH%4d_%d\x1f%s", &loopIdx, &enhIdx, &gene); err == nil {
			truth[fmt.Sprintf("LOOP%04d\x1f%s", loopIdx, gene)] = true
		}
	}
	tp := 0
	for k := range found {
		if truth[k] {
			tp++
		}
	}
	if len(found) > 0 {
		b.ReportMetric(float64(tp)/float64(len(found)), "precision")
	}
	if len(truth) > 0 {
		b.ReportMetric(float64(tp)/float64(len(truth)), "recall")
	}
	b.ReportMetric(float64(len(found)), "pairs_found")
}

// ---------------------------------------------------------------------------
// E5 — Fig. 4: MAP result -> genome space -> gene network.

func BenchmarkE5GenomeSpaceNetwork(b *testing.B) {
	f := load()
	script := `
GENES = SELECT(annType == 'gene') ANNOTATIONS;
PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
SPACE = MAP(count AS COUNT) GENES PEAKS;
MATERIALIZE SPACE;
`
	cat := engine.MapCatalog{"ENCODE": f.encode[38], "ANNOTATIONS": f.annotations}
	cfg := engine.DefaultConfig()
	space := runScript(b, script, "SPACE", cfg, cat)
	// Network building is quadratic in genes; restrict to the first 200.
	small := gdm.NewDataset(space.Name, space.Schema)
	for _, s := range space.Samples {
		w := space.Schema.Len()
		ns := &gdm.Sample{ID: s.ID, Meta: s.Meta, Regions: s.Regions[:200], Values: s.Values[:200*w]}
		small.Samples = append(small.Samples, ns)
	}
	b.ResetTimer()
	var edges, nodes int
	for i := 0; i < b.N; i++ {
		gs, err := genospace.FromMapResult(small, "count")
		if err != nil {
			b.Fatal(err)
		}
		net, err := gs.BuildNetwork(genospace.MetricCorrelation, 0.7)
		if err != nil {
			b.Fatal(err)
		}
		edges, nodes = net.NumEdges(), net.NumNodes()
	}
	b.ReportMetric(float64(nodes), "nodes")
	b.ReportMetric(float64(edges), "edges")
}

// ---------------------------------------------------------------------------
// E6 — Section 3: breakpoints / mutations / dis-regulation pipeline.

const breakScript = `
CONTROL = SELECT(condition == 'control') EXPRESSION;
INDUCED = SELECT(condition == 'oncogene_induced') EXPRESSION;
BOTH = JOIN(DLE(-1); output: LEFT) CONTROL INDUCED;
DISREG = SELECT(; region: right.expression < expression / 2) BOTH;
BROKEN = JOIN(DLE(0); output: LEFT) DISREG BREAKS;
MUTS = MAP(mutations AS COUNT) BROKEN MUTATIONS;
MATERIALIZE MUTS INTO muts;
`

func BenchmarkE6Breakpoints(b *testing.B) {
	f := load()
	cat := engine.MapCatalog{
		"EXPRESSION": f.replication.Expression,
		"BREAKS":     f.replication.Breakpoints,
		"MUTATIONS":  f.replication.Mutations,
	}
	cfg := engine.DefaultConfig()
	var muts *gdm.Dataset
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		muts = runScript(b, breakScript, "muts", cfg, cat)
	}
	b.StopTimer()
	mi, _ := muts.Schema.Index("mutations")
	perCond := map[string]float64{}
	counts := map[string]float64{}
	for _, s := range muts.Samples {
		cond := s.Meta.First("right.condition")
		for i := range s.Regions {
			perCond[cond] += float64(s.Row(i)[mi].Int())
			counts[cond]++
		}
	}
	ctrl := perCond["control"] / maxf(counts["control"], 1)
	ind := perCond["oncogene_induced"] / maxf(counts["oncogene_induced"], 1)
	b.ReportMetric(ind/maxf(ctrl, 1e-9), "mutation_fold_change")
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// E7 — the Flink-vs-Spark comparison of ref [10]: three genomic queries on
// three backends, sweeping dataset size. The serial backend is the single-
// machine baseline; batch materializes stage-by-stage (Spark-like); stream
// fuses and pipelines (Flink-like).

func BenchmarkE7EngineComparison(b *testing.B) {
	f := load()
	queries := map[string]string{
		"map": `
P = SELECT(annType == 'promoter') ANNOTATIONS;
E = SELECT(dataType == 'ChipSeq') ENCODE;
R = MAP(n AS COUNT) P E;
MATERIALIZE R;`,
		"join": `
P = SELECT(annType == 'promoter') ANNOTATIONS;
E = SELECT(dataType == 'ChipSeq'; region: p_value < 0.0001) ENCODE;
R = JOIN(DLE(10000); output: CAT) P E;
MATERIALIZE R;`,
		"cover": `
E = SELECT(dataType == 'ChipSeq') ENCODE;
R = HISTOGRAM(2, ANY) E;
MATERIALIZE R;`,
	}
	modes := map[string]engine.Config{
		"serial": {Mode: engine.ModeSerial, MetaFirst: true},
		"batch":  {Mode: engine.ModeBatch, MetaFirst: true},
		"stream": {Mode: engine.ModeStream, MetaFirst: true},
	}
	for qname, script := range queries {
		for _, n := range []int{38, 151} {
			for mname, cfg := range modes {
				b.Run(fmt.Sprintf("query=%s/samples=%d/engine=%s", qname, n, mname), func(b *testing.B) {
					cat := engine.MapCatalog{"ENCODE": f.encode[n], "ANNOTATIONS": f.annotations}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						runScript(b, script, "R", cfg, cat)
					}
				})
			}
		}
	}
}

// ---------------------------------------------------------------------------
// E8 — Section 4.3: ontology-mediated metadata search vs keyword search.

func BenchmarkE8OntologySearch(b *testing.B) {
	f := load()
	store := meta.NewStore()
	store.AddDataset(f.encode[303])
	o := ontology.Biomedical()
	store.AnnotateWith(o)
	relevant := map[string]bool{}
	cancerCells := map[string]bool{"HeLa-S3": true, "K562": true, "HepG2": true, "MCF-7": true}
	for _, s := range f.encode[303].Samples {
		if cancerCells[s.Meta.First("cell")] {
			relevant["ENCODE/"+s.ID] = true
		}
	}
	b.Run("keyword", func(b *testing.B) {
		var hits []meta.Entry
		for i := 0; i < b.N; i++ {
			hits = store.SearchKeyword("cancer")
		}
		p, r := meta.PrecisionRecall(hits, relevant)
		b.ReportMetric(p, "precision")
		b.ReportMetric(r, "recall")
	})
	b.Run("ontological", func(b *testing.B) {
		var hits []meta.Entry
		for i := 0; i < b.N; i++ {
			hits = store.SearchOntological(o, "cancer")
		}
		p, r := meta.PrecisionRecall(hits, relevant)
		b.ReportMetric(p, "precision")
		b.ReportMetric(r, "recall")
	})
}

// ---------------------------------------------------------------------------
// E9 — Section 4.4: federated query shipping vs naive data shipping.

func BenchmarkE9Federation(b *testing.B) {
	g1 := synth.New(7000)
	g2 := synth.New(7001)
	mk := func(g *synth.Generator) *federation.Server {
		enc := g.Encode(synth.EncodeOptions{Samples: 30, MeanPeaks: 300})
		anns := g.Annotations(g.Genes(250))
		return federation.NewServer("node", engine.Config{Mode: engine.ModeSerial, MetaFirst: true}, enc, anns)
	}
	ts1 := httptest.NewServer(mk(g1).Handler())
	defer ts1.Close()
	ts2 := httptest.NewServer(mk(g2).Handler())
	defer ts2.Close()

	b.Run("federated", func(b *testing.B) {
		var bytes int64
		for i := 0; i < b.N; i++ {
			fed := &federation.Federator{Clients: []*federation.Client{
				federation.NewClient(ts1.URL), federation.NewClient(ts2.URL)}}
			if _, _, err := fed.Query(context.Background(), headlineScript, "RESULT", 8); err != nil {
				b.Fatal(err)
			}
			bytes = fed.BytesMoved()
		}
		b.ReportMetric(float64(bytes)/1e6, "MB_moved")
	})
	b.Run("naive", func(b *testing.B) {
		var bytes int64
		for i := 0; i < b.N; i++ {
			fed := &federation.Federator{Clients: []*federation.Client{
				federation.NewClient(ts1.URL), federation.NewClient(ts2.URL)}}
			if _, err := fed.QueryNaive(context.Background(), headlineScript, "RESULT",
				[]string{"ANNOTATIONS", "ENCODE"},
				engine.Config{Mode: engine.ModeSerial, MetaFirst: true}); err != nil {
				b.Fatal(err)
			}
			bytes = fed.BytesMoved()
		}
		b.ReportMetric(float64(bytes)/1e6, "MB_moved")
	})
}

// BenchmarkE9ChaosAblation re-runs the federated query with a seeded fault
// injector between client and nodes at 0%, 10% and 30% per-request fault
// rates (two thirds 503s, one third dropped connections), retries enabled,
// under the partial-results policy. Reported per rate: the fraction of
// queries that completed with no partial report (full_success), the fraction
// of (query, node) legs that contributed results (node_success), and the
// traffic — failed legs still cost bytes for the attempts made.
func BenchmarkE9ChaosAblation(b *testing.B) {
	g1 := synth.New(7100)
	g2 := synth.New(7101)
	mk := func(g *synth.Generator) *federation.Server {
		enc := g.Encode(synth.EncodeOptions{Samples: 30, MeanPeaks: 300})
		anns := g.Annotations(g.Genes(250))
		return federation.NewServer("node", engine.Config{Mode: engine.ModeSerial, MetaFirst: true}, enc, anns)
	}
	ts1 := httptest.NewServer(mk(g1).Handler())
	defer ts1.Close()
	ts2 := httptest.NewServer(mk(g2).Handler())
	defer ts2.Close()
	urls := []string{ts1.URL, ts2.URL}

	for _, rate := range []float64{0, 0.10, 0.30} {
		b.Run(fmt.Sprintf("fault%.0f%%", rate*100), func(b *testing.B) {
			var fullOK, nodeOK, bytes int64
			for i := 0; i < b.N; i++ {
				var clients []*federation.Client
				for n, u := range urls {
					clients = append(clients, federation.NewClient(u,
						federation.WithTransport(&resilience.ChaosTransport{
							Seed:      int64(1000*i + n),
							ErrorRate: rate * 2 / 3,
							DropRate:  rate / 3,
						}),
						federation.WithRetrier(&resilience.Retrier{
							MaxAttempts: 4,
							BaseDelay:   time.Millisecond,
							MaxDelay:    5 * time.Millisecond,
						})))
				}
				fed := &federation.Federator{Clients: clients,
					Policy: federation.Policy{AllowPartial: true}}
				_, report, err := fed.Query(context.Background(), headlineScript, "RESULT", 8)
				bytes += fed.BytesMoved()
				failed := 0
				if report != nil {
					failed = len(report.Failed)
				}
				if err == nil && report == nil {
					fullOK++
				}
				if err == nil {
					nodeOK += int64(len(urls) - failed)
				}
			}
			b.ReportMetric(float64(fullOK)/float64(b.N), "full_success")
			b.ReportMetric(float64(nodeOK)/float64(int64(len(urls))*int64(b.N)), "node_success")
			b.ReportMetric(float64(bytes)/float64(b.N)/1e6, "MB_moved")
		})
	}
}

// ---------------------------------------------------------------------------
// E10 — Section 4.5: publish / crawl / index / search cycle.

func BenchmarkE10GenomeNet(b *testing.B) {
	var urls []string
	for i := 0; i < 3; i++ {
		g := synth.New(int64(8000 + i))
		h := genomenet.NewHost(fmt.Sprintf("lab%d", i))
		ds := g.Encode(synth.EncodeOptions{Samples: 15, MeanPeaks: 50})
		ds.Name = fmt.Sprintf("LAB%d_CHIP", i)
		h.Publish(ds, true)
		ts := httptest.NewServer(h.Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	b.Run("crawl", func(b *testing.B) {
		var indexed int
		for i := 0; i < b.N; i++ {
			svc := genomenet.NewSearchService(ontology.Biomedical())
			if err := svc.Crawl(context.Background(), urls, genomenet.CrawlOptions{FetchBodies: 1}, nil); err != nil {
				b.Fatal(err)
			}
			indexed = svc.NumIndexed()
		}
		b.ReportMetric(float64(indexed), "datasets_indexed")
	})
	svc := genomenet.NewSearchService(ontology.Biomedical())
	if err := svc.Crawl(context.Background(), urls, genomenet.CrawlOptions{FetchBodies: 1}, nil); err != nil {
		b.Fatal(err)
	}
	b.Run("keyword-search", func(b *testing.B) {
		var hits int
		for i := 0; i < b.N; i++ {
			hits = len(svc.Search("CTCF", false))
		}
		b.ReportMetric(float64(hits), "hits")
	})
	b.Run("region-search", func(b *testing.B) {
		query := gdm.NewSample("q")
		query.AddRegion(gdm.NewRegion("chr1", 0, 2_000_000, gdm.StrandNone))
		var ranked int
		for i := 0; i < b.N; i++ {
			out, err := svc.RegionSearch(query, genomenet.FeatureOverlapCount, 3)
			if err != nil {
				b.Fatal(err)
			}
			ranked = len(out)
		}
		b.ReportMetric(float64(ranked), "datasets_ranked")
	})
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md design decisions).

// BenchmarkAblationMetaFirst measures the meta-first optimization: the
// metadata predicate prunes samples before any region is touched.
func BenchmarkAblationMetaFirst(b *testing.B) {
	f := load()
	script := `
X = SELECT(antibody == 'CTCF'; region: p_value < 0.001) ENCODE;
Y = EXTEND(n AS COUNT) X;
MATERIALIZE Y;
`
	for _, metaFirst := range []bool{true, false} {
		b.Run(fmt.Sprintf("metaFirst=%v", metaFirst), func(b *testing.B) {
			cfg := engine.Config{Mode: engine.ModeStream, MetaFirst: metaFirst}
			cat := engine.MapCatalog{"ENCODE": f.encode[303]}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runScript(b, script, "Y", cfg, cat)
			}
		})
	}
}

// BenchmarkAblationBinWidth sweeps the genometric bin width of the MAP
// kernel (0 = per-chromosome sorted sweep; otherwise binned tree probes).
func BenchmarkAblationBinWidth(b *testing.B) {
	f := load()
	for _, width := range []int64{0, 100000, 1000000} {
		b.Run(fmt.Sprintf("binWidth=%d", width), func(b *testing.B) {
			cfg := engine.Config{Mode: engine.ModeStream, MetaFirst: true, BinWidth: width}
			cat := engine.MapCatalog{"ENCODE": f.encode[151], "ANNOTATIONS": f.annotations}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runScript(b, headlineScript, "result", cfg, cat)
			}
		})
	}
}

// BenchmarkAblationFusion measures stream-mode operator fusion on a chain
// of sample-local operators: on a unary chain the only difference between
// ModeStream and ModeBatch is that stream fuses it.
func BenchmarkAblationFusion(b *testing.B) {
	f := load()
	script := `
A = SELECT(dataType == 'ChipSeq') ENCODE;
B = SELECT(; region: p_value < 0.001) A;
C = PROJECT(region: signal) B;
D = EXTEND(n AS COUNT, s AS SUM(signal)) C;
MATERIALIZE D;
`
	for _, mode := range []engine.Mode{engine.ModeStream, engine.ModeBatch} {
		b.Run(fmt.Sprintf("mode=%s", mode), func(b *testing.B) {
			cfg := engine.Config{Mode: mode, MetaFirst: true}
			cat := engine.MapCatalog{"ENCODE": f.encode[303]}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runScript(b, script, "D", cfg, cat)
			}
		})
	}
}

// BenchmarkAblationWorkers sweeps the worker pool (parallel speedup).
func BenchmarkAblationWorkers(b *testing.B) {
	f := load()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := engine.Config{Mode: engine.ModeStream, MetaFirst: true, Workers: w}
			cat := engine.MapCatalog{"ENCODE": f.encode[151], "ANNOTATIONS": f.annotations}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runScript(b, headlineScript, "result", cfg, cat)
			}
		})
	}
}
