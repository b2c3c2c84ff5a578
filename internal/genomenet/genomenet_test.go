package genomenet

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"genogo/internal/gdm"
	"genogo/internal/ontology"
	"genogo/internal/synth"
)

// newHost publishes two public datasets and one private one.
func newHost(t *testing.T, name string, seed int64) (*Host, *httptest.Server) {
	t.Helper()
	g := synth.New(seed)
	h := NewHost(name)
	pub1 := g.Encode(synth.EncodeOptions{Samples: 6, MeanPeaks: 20})
	pub1.Name = name + "_CHIP"
	h.Publish(pub1, true)
	pub2 := g.Annotations(g.Genes(30))
	pub2.Name = name + "_ANNS"
	h.Publish(pub2, true)
	private := g.Encode(synth.EncodeOptions{Samples: 2, MeanPeaks: 5})
	private.Name = name + "_SECRET"
	h.Publish(private, false)
	ts := httptest.NewServer(h.Handler())
	t.Cleanup(ts.Close)
	return h, ts
}

func TestManifestHidesPrivateLinks(t *testing.T) {
	_, ts := newHost(t, "lab1", 1)
	svc := NewSearchService(nil)
	if err := svc.Crawl(context.Background(), []string{ts.URL}, CrawlOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	if svc.NumIndexed() != 2 {
		t.Fatalf("indexed = %d, want 2 (private link must stay invisible)", svc.NumIndexed())
	}
	for _, line := range svc.CrawlLog {
		if line == ts.URL+"/lab1_SECRET" {
			t.Error("crawler visited a private link")
		}
	}
}

func TestCrawlAndKeywordSearch(t *testing.T) {
	_, ts1 := newHost(t, "lab1", 2)
	_, ts2 := newHost(t, "lab2", 3)
	svc := NewSearchService(nil)
	if err := svc.Crawl(context.Background(), []string{ts1.URL, ts2.URL}, CrawlOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	if svc.NumIndexed() != 4 {
		t.Fatalf("indexed = %d", svc.NumIndexed())
	}
	hits := svc.Search("ChipSeq", false)
	if len(hits) == 0 {
		t.Fatal("no hits for ChipSeq")
	}
	for _, h := range hits {
		if h.DataURL == "" || h.Dataset == "" || h.Sample == "" {
			t.Errorf("incomplete snippet %+v", h)
		}
		if h.InRepo {
			t.Error("metadata-only crawl claims cached body")
		}
		if h.Matched == "" {
			t.Errorf("snippet without matched pair: %+v", h)
		}
	}
	if hits := svc.Search("flux-capacitor", false); len(hits) != 0 {
		t.Errorf("phantom hits: %v", hits)
	}
}

func TestCrawlWithBodiesAndSnippetInRepo(t *testing.T) {
	_, ts := newHost(t, "lab1", 4)
	svc := NewSearchService(nil)
	if err := svc.Crawl(context.Background(), []string{ts.URL}, CrawlOptions{FetchBodies: 1}, nil); err != nil {
		t.Fatal(err)
	}
	inRepo := 0
	for _, d := range svc.datasets {
		if d.Cached {
			inRepo++
		}
	}
	if inRepo != 1 {
		t.Fatalf("cached bodies = %d, want 1 (non-intrusive limit)", inRepo)
	}
}

func TestOntologicalSearchOverCrawl(t *testing.T) {
	// Deterministic corpus: one sample says "cancer" verbatim, one is a
	// K562 (a cancer cell line, but never says "cancer"), one is normal.
	h := NewHost("lab")
	ds := gdm.NewDataset("CORPUS", gdm.MustSchema())
	verbatim := gdm.NewSample("verbatim")
	verbatim.Meta.Add("karyotype", "cancer")
	ds.MustAdd(verbatim)
	k562 := gdm.NewSample("k562only")
	k562.Meta.Add("cell", "K562")
	ds.MustAdd(k562)
	normal := gdm.NewSample("normal")
	normal.Meta.Add("cell", "GM12878")
	ds.MustAdd(normal)
	h.Publish(ds, true)
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	svc := NewSearchService(ontology.Biomedical())
	if err := svc.Crawl(context.Background(), []string{ts.URL}, CrawlOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	plain := svc.Search("cancer", false)
	if len(plain) != 1 || plain[0].Sample != "verbatim" {
		t.Fatalf("keyword cancer = %v", plain)
	}
	onto := svc.Search("cancer", true)
	got := map[string]bool{}
	for _, s := range onto {
		got[s.Sample] = true
	}
	if !got["verbatim"] || !got["k562only"] || got["normal"] {
		t.Errorf("ontological cancer = %v", got)
	}
}

func TestRegionSearchRanking(t *testing.T) {
	// Build two hosts: one whose dataset is dense around the query regions,
	// one far away. Ranking must put the dense one first.
	hotSchema := synth.PeakSchema
	hot := gdm.NewDataset("HOT", hotSchema)
	hs := gdm.NewSample("hs")
	hs.Meta.Add("dataType", "ChipSeq")
	for i := int64(0); i < 50; i++ {
		hs.AddRegion(gdm.NewRegion("chr1", 1000+i*10, 1000+i*10+20, gdm.StrandNone),
			gdm.Float(0.001), gdm.Float(2))
	}
	hs.SortRegions()
	hot.MustAdd(hs)

	cold := gdm.NewDataset("COLD", hotSchema)
	cs := gdm.NewSample("cs")
	cs.Meta.Add("dataType", "ChipSeq")
	cs.AddRegion(gdm.NewRegion("chr9", 1, 2, gdm.StrandNone), gdm.Float(0.001), gdm.Float(2))
	cold.MustAdd(cs)

	h1 := NewHost("hot")
	h1.Publish(hot, true)
	ts1 := httptest.NewServer(h1.Handler())
	defer ts1.Close()
	h2 := NewHost("cold")
	h2.Publish(cold, true)
	ts2 := httptest.NewServer(h2.Handler())
	defer ts2.Close()

	svc := NewSearchService(nil)
	if err := svc.Crawl(context.Background(), []string{ts1.URL, ts2.URL}, CrawlOptions{FetchBodies: 10}, nil); err != nil {
		t.Fatal(err)
	}
	query := gdm.NewSample("q")
	query.AddRegion(gdm.NewRegion("chr1", 900, 1600, gdm.StrandNone))
	query.AddRegion(gdm.NewRegion("chr2", 0, 100, gdm.StrandNone))

	ranked, err := svc.RegionSearch(query, FeatureOverlapCount, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 2 {
		t.Fatalf("ranked = %v", ranked)
	}
	if ranked[0].Dataset != "HOT" || ranked[0].Score <= ranked[1].Score {
		t.Errorf("ranking wrong: %v", ranked)
	}
	cov, err := svc.RegionSearch(query, FeatureCoverage, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cov) != 1 || cov[0].Dataset != "HOT" || cov[0].Score != 0.5 {
		t.Errorf("coverage ranking = %v", cov)
	}
	if _, err := svc.RegionSearch(query, RegionFeature(99), 0); err == nil {
		t.Error("unknown feature accepted")
	}
}

func TestSearchPrecisionRecallOnSeededCorpus(t *testing.T) {
	// Plant samples with a known attribute and verify retrieval metrics.
	h := NewHost("lab")
	ds := gdm.NewDataset("SEED", gdm.MustSchema())
	relevant := map[string]bool{}
	for i := 0; i < 20; i++ {
		s := gdm.NewSample(fmtSample(i))
		if i%4 == 0 {
			s.Meta.Add("antibody", "CTCF")
			relevant[s.ID] = true
		} else {
			s.Meta.Add("antibody", "POLR2A")
		}
		ds.MustAdd(s)
	}
	h.Publish(ds, true)
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()
	svc := NewSearchService(nil)
	if err := svc.Crawl(context.Background(), []string{ts.URL}, CrawlOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	hits := svc.Search("CTCF", false)
	if len(hits) != len(relevant) {
		t.Fatalf("hits = %d, want %d", len(hits), len(relevant))
	}
	for _, hit := range hits {
		if !relevant[hit.Sample] {
			t.Errorf("false positive %s", hit.Sample)
		}
	}
}

func fmtSample(i int) string { return "s" + string(rune('a'+i%26)) + string(rune('0'+i/26)) }

func TestCrawlErrors(t *testing.T) {
	svc := NewSearchService(nil)
	if err := svc.Crawl(context.Background(), []string{"http://127.0.0.1:1"}, CrawlOptions{}, nil); err == nil {
		t.Error("unreachable host crawl succeeded")
	}
}

func TestIncrementalRecrawl(t *testing.T) {
	g := synth.New(41)
	h := NewHost("lab")
	ds := g.Encode(synth.EncodeOptions{Samples: 4, MeanPeaks: 10})
	ds.Name = "CHIP"
	h.Publish(ds, true)
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	svc := NewSearchService(nil)
	if err := svc.Crawl(context.Background(), []string{ts.URL}, CrawlOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	if svc.LastCrawl.Updated != 1 || svc.LastCrawl.Skipped != 0 {
		t.Fatalf("first crawl stats = %+v", svc.LastCrawl)
	}
	firstHits := len(svc.Search("ChipSeq", false))
	if firstHits == 0 {
		t.Fatal("nothing indexed")
	}

	// Unchanged re-crawl: everything skipped, index intact.
	if err := svc.Crawl(context.Background(), []string{ts.URL}, CrawlOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	if svc.LastCrawl.Skipped != 1 || svc.LastCrawl.Updated != 0 {
		t.Fatalf("re-crawl stats = %+v", svc.LastCrawl)
	}
	if got := len(svc.Search("ChipSeq", false)); got != firstHits {
		t.Fatalf("re-crawl changed index: %d vs %d hits", got, firstHits)
	}

	// Change the dataset: the fingerprint moves, the crawler re-fetches,
	// and old entries are REPLACED (no duplicates).
	changed := ds.Clone()
	changed.Name = "CHIP"
	for _, s := range changed.Samples {
		s.Meta.Set("dataType", "RnaSeq")
	}
	h.Publish(changed, true)
	if err := svc.Crawl(context.Background(), []string{ts.URL}, CrawlOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	if svc.LastCrawl.Updated != 1 {
		t.Fatalf("changed crawl stats = %+v", svc.LastCrawl)
	}
	if got := len(svc.Search("ChipSeq", false)); got != 0 {
		t.Fatalf("stale entries survived: %d hits", got)
	}
	if got := len(svc.Search("RnaSeq", false)); got != 4 {
		t.Fatalf("new entries missing: %d hits", got)
	}
}

// TestFingerprintSensitivity: a link's fingerprint on the served /manifest
// follows the content: republishing the same content keeps it, a metadata
// change or a coordinate change moves it.
func TestFingerprintSensitivity(t *testing.T) {
	g := synth.New(42)
	a := g.Encode(synth.EncodeOptions{Samples: 3, MeanPeaks: 5})
	h := NewHost("lab")
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()
	served := func(ds *gdm.Dataset) string {
		t.Helper()
		h.Publish(ds, true)
		entries, err := fetchManifest(context.Background(), ts.Client(), CrawlOptions{}, ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Fingerprint == "" {
			t.Fatalf("manifest = %+v, want one fingerprinted link", entries)
		}
		return entries[0].Fingerprint
	}
	fp := served(a)
	if served(a.Clone()) != fp {
		t.Error("republishing the same content moved the fingerprint")
	}
	b := a.Clone()
	b.Samples[0].Meta.Add("new", "attr")
	if served(b) == fp {
		t.Error("metadata change not detected")
	}
	c := a.Clone()
	c.Samples[0].Regions[0].Start++
	if served(c) == fp {
		t.Error("coordinate change not detected")
	}
}

// republish publishes a copy of ds with every sample's metadata attr set to
// value: the same name, new content.
func republish(h *Host, ds *gdm.Dataset, attr, value string) {
	next := ds.Clone()
	next.Name = ds.Name
	for _, s := range next.Samples {
		s.Meta.Set(attr, value)
	}
	h.Publish(next, true)
}

// wholeChr1 is a region query covering all of chr1.
func wholeChr1() *gdm.Sample {
	q := gdm.NewSample("q")
	q.AddRegion(gdm.NewRegion("chr1", 0, 1<<40, gdm.StrandNone))
	return q
}

// TestCrawlDropsStaleBody: a link whose fingerprint moved is re-indexed;
// when the re-crawl does not fetch the new body, the body cached from the old
// content is dropped rather than ranked and reported as the dataset's.
func TestCrawlDropsStaleBody(t *testing.T) {
	g := synth.New(43)
	h := NewHost("lab")
	ds := g.Encode(synth.EncodeOptions{Samples: 4, MeanPeaks: 10})
	ds.Name = "CHIP"
	h.Publish(ds, true)
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	svc := NewSearchService(nil)
	if err := svc.Crawl(context.Background(), []string{ts.URL}, CrawlOptions{FetchBodies: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if ranked, err := svc.RegionSearch(wholeChr1(), FeatureOverlapCount, 0); err != nil || len(ranked) != 1 {
		t.Fatalf("first crawl: ranked %v, %v; want the cached CHIP", ranked, err)
	}

	republish(h, ds, "dataType", "RnaSeq")
	if err := svc.Crawl(context.Background(), []string{ts.URL}, CrawlOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	if svc.LastCrawl.Updated != 1 {
		t.Fatalf("re-crawl stats = %+v, want CHIP re-indexed", svc.LastCrawl)
	}
	for _, hit := range svc.Search("RnaSeq", false) {
		if hit.InRepo {
			t.Errorf("snippet %+v claims a cached body the crawl did not fetch", hit)
		}
	}
	if ranked, err := svc.RegionSearch(wholeChr1(), FeatureOverlapCount, 0); err != nil || len(ranked) != 0 {
		t.Errorf("region search after the change ranked %v, %v; want nothing (the old body is stale)", ranked, err)
	}
}

// TestRegionSearchDuringRecrawl: region searches run while the host
// republishes and the service re-crawls, re-indexing and re-caching the
// body each time (CI runs this under -race).
func TestRegionSearchDuringRecrawl(t *testing.T) {
	g := synth.New(44)
	h := NewHost("lab")
	ds := g.Encode(synth.EncodeOptions{Samples: 4, MeanPeaks: 10})
	ds.Name = "CHIP"
	h.Publish(ds, true)
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()
	svc := NewSearchService(nil)
	opt := CrawlOptions{FetchBodies: 1}
	if err := svc.Crawl(context.Background(), []string{ts.URL}, opt, nil); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	searched := make(chan error, 1)
	go func() {
		defer close(searched)
		for {
			select {
			case <-stop:
				return
			default:
			}
			ranked, err := svc.RegionSearch(wholeChr1(), FeatureOverlapCount, 0)
			if err == nil && (len(ranked) != 1 || ranked[0].Dataset != "CHIP") {
				err = fmt.Errorf("ranked %v, want CHIP", ranked)
			}
			if err != nil {
				searched <- err
				return
			}
		}
	}()
	for round := range 5 {
		republish(h, ds, "round", fmt.Sprint(round))
		if err := svc.Crawl(context.Background(), []string{ts.URL}, opt, nil); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	if err := <-searched; err != nil {
		t.Fatal(err)
	}
}
