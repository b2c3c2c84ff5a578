// Package genomenet implements the paper's most far-fetching vision
// (Section 4.5): an Internet of Genomes. Research centers publish links to
// their experimental data with metadata under a simple protocol; a third
// party runs crawlers that download the metadata (and, non-intrusively,
// some datasets); a search service indexes everything and answers keyword
// queries with result snippets, plus feature-based region search where
// features are computed on demand and results ranked by them.
package genomenet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"genogo/internal/engine"
	"genogo/internal/expr"
	"genogo/internal/formats"
	"genogo/internal/gdm"
	"genogo/internal/meta"
	"genogo/internal/obs"
	"genogo/internal/ontology"
	"genogo/internal/resilience"
)

// Crawler metrics, registered against the process-wide registry at package
// init so the genomenet binary's /metrics reports them.
var (
	metricPagesCrawled = obs.Default().Counter("genogo_genomenet_pages_crawled_total",
		"Pages (manifests, metadata, dataset bodies) fetched successfully by the crawler.")
	metricHostsSkipped = obs.Default().Counter("genogo_genomenet_hosts_skipped_total",
		"Hosts a degraded crawl gave up on (SkipFailedHosts).")
	metricLinksIndexed = obs.Default().Counter("genogo_genomenet_links_indexed_total",
		"Links (re)fetched and committed to the search index.")
)

// Crawler resilience defaults.
const (
	// DefaultCrawlTimeout bounds each HTTP request of the default crawl
	// client.
	DefaultCrawlTimeout = 30 * time.Second
	// DefaultMaxBodyBytes caps each fetched payload, bounding the memory a
	// misbehaving host can make the crawler allocate.
	DefaultMaxBodyBytes = 256 << 20
)

// ManifestEntry is one published link: the unit of the publishing protocol.
type ManifestEntry struct {
	Name    string `json:"name"`
	MetaURL string `json:"meta_url"`
	DataURL string `json:"data_url"`
	Public  bool   `json:"public"` // visible to crawlers
	Samples int    `json:"samples"`
	Regions int    `json:"regions"`
	// Fingerprint is the dataset's content digest (gdm.Dataset.ContentDigest,
	// as the host's catalog resolved it once: a member's manifest digest, or
	// one scan). It changes whenever the content changes, letting crawlers
	// skip unchanged links on re-crawls (polite incremental crawling).
	Fingerprint string `json:"fingerprint"`
}

// Host is a research center's publishing endpoint. It follows the protocol
// the paper prescribes: publish a link to genomic data in its native format
// with suitable metadata, optionally making the link public (visible to
// crawler visits). What it publishes is its catalog: every dataset the
// catalog holds, less the names published private.
type Host struct {
	Name    string
	cat     *formats.DirCatalog
	mu      sync.Mutex
	private map[string]bool
}

// NewHost builds a host over an empty in-memory catalog; Publish fills it.
func NewHost(name string) *Host { return NewCatalogHost(name, &formats.DirCatalog{}) }

// NewCatalogHost builds a host that publishes every dataset cat holds
// (formats.ServeRepository's warmed catalog, on a node), all public until
// Publish says otherwise.
func NewCatalogHost(name string, cat *formats.DirCatalog) *Host {
	return &Host{Name: name, cat: cat, private: make(map[string]bool)}
}

// Publish registers a dataset in the host's catalog, replacing any under its
// name; public links are visible to crawlers, private ones are served only
// to clients that already know the URL (reviewers with a download link, in
// the paper's telling).
func (h *Host) Publish(ds *gdm.Dataset, public bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cat.Add(ds)
	if public {
		delete(h.private, ds.Name)
	} else {
		h.private[ds.Name] = true
	}
}

// Handler serves the publishing protocol:
//
//	GET /manifest            JSON list of PUBLIC links
//	GET /meta/{name}         metadata of every sample (crawlers index this)
//	GET /data/{name}         full dataset stream (native format)
func (h *Host) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/manifest", func(w http.ResponseWriter, r *http.Request) {
		h.mu.Lock()
		held := h.cat.Held()
		entries := make([]ManifestEntry, 0, len(held))
		for _, ds := range held {
			if h.private[ds.Name] {
				continue
			}
			st, _ := h.cat.Stats(ds.Name)
			samples, regions, _ := st.Totals()
			entries = append(entries, ManifestEntry{
				Name:        ds.Name,
				MetaURL:     "/meta/" + ds.Name,
				DataURL:     "/data/" + ds.Name,
				Public:      true,
				Samples:     samples,
				Regions:     regions,
				Fingerprint: st.Digest,
			})
		}
		h.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(entries)
	})
	mux.HandleFunc("/meta/", func(w http.ResponseWriter, r *http.Request) {
		ds, err := h.cat.Dataset(strings.TrimPrefix(r.URL.Path, "/meta/"))
		if err != nil {
			http.Error(w, "unknown dataset", http.StatusNotFound)
			return
		}
		// One line per sample: id<TAB>attr=value;attr=value;...
		var b strings.Builder
		for _, s := range ds.Samples {
			b.WriteString(s.ID)
			b.WriteByte('\t')
			pairs := s.Meta.Pairs()
			for i, p := range pairs {
				if i > 0 {
					b.WriteByte(';')
				}
				b.WriteString(p[0])
				b.WriteByte('=')
				b.WriteString(p[1])
			}
			b.WriteByte('\n')
		}
		w.Header().Set("Content-Type", "text/plain")
		_, _ = io.WriteString(w, b.String())
	})
	mux.HandleFunc("/data/", func(w http.ResponseWriter, r *http.Request) {
		ds, err := h.cat.Dataset(strings.TrimPrefix(r.URL.Path, "/data/"))
		if err != nil {
			http.Error(w, "unknown dataset", http.StatusNotFound)
			return
		}
		formats.ServeDataset(w, ds)
	})
	return mux
}

// IndexedDataset is one crawled dataset in the search service.
type IndexedDataset struct {
	HostURL string
	Name    string
	Samples int
	Regions int
	// Cached is true when the crawler also downloaded the dataset body
	// (the paper: "storing some of the samples within a large repository").
	Cached bool
}

// Snippet is one search hit, as the paper describes: an indication of the
// dataset, where it lives, and whether the repository holds a copy.
type Snippet struct {
	HostURL string
	Dataset string
	Sample  string
	Matched string // the metadata pair(s) that matched, abbreviated
	InRepo  bool   // dataset body cached in the search repository
	DataURL string // where to download the original, asynchronously
}

// CrawlStats summarizes one crawl pass.
type CrawlStats struct {
	Visited int // public links seen in manifests
	Updated int // links whose metadata was (re)fetched and indexed
	Skipped int // links skipped because their fingerprint was unchanged
	// FailedHosts lists the hosts a degraded crawl (SkipFailedHosts) gave
	// up on, with the failure appended after a tab.
	FailedHosts []string
}

// SearchService is the third-party crawler + index + search system.
type SearchService struct {
	mu           sync.Mutex
	store        *meta.Store
	onto         *ontology.Ontology
	datasets     map[string]IndexedDataset // key: host|name
	cache        map[string]*gdm.Dataset   // cached bodies
	metaOf       map[string]*gdm.Metadata  // key: host|name|sample
	fingerprints map[string]string         // key: host|name
	CrawlLog     []string
	LastCrawl    CrawlStats
}

// NewSearchService builds an empty service. The ontology may be nil
// (keyword-only search).
func NewSearchService(onto *ontology.Ontology) *SearchService {
	return &SearchService{
		store:        meta.NewStore(),
		onto:         onto,
		datasets:     make(map[string]IndexedDataset),
		cache:        make(map[string]*gdm.Dataset),
		metaOf:       make(map[string]*gdm.Metadata),
		fingerprints: make(map[string]string),
	}
}

// CrawlOptions tunes a crawl pass.
type CrawlOptions struct {
	// FetchBodies caches dataset bodies up to this many datasets per host
	// (0 = metadata only). The paper's crawler downloads metadata always
	// and datasets "with an agreed, non-intrusive protocol".
	FetchBodies int
	// Retrier retries transient fetch failures (nil = no retries).
	Retrier *resilience.Retrier
	// SkipFailedHosts degrades instead of aborting: a host whose fetches
	// keep failing is recorded in CrawlStats.FailedHosts and the crawl
	// moves on to the next host. Entries already committed stay indexed.
	SkipFailedHosts bool
	// MaxBodyBytes caps each fetched payload; <= 0 means
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64
}

func (o CrawlOptions) maxBody() int64 {
	if o.MaxBodyBytes > 0 {
		return o.MaxBodyBytes
	}
	return DefaultMaxBodyBytes
}

// defaultCrawlClient is the crawler's own HTTP client — never
// http.DefaultClient, whose missing timeout would let one dead host hang a
// crawl forever.
var defaultCrawlClient = &http.Client{Timeout: DefaultCrawlTimeout}

// Crawl visits every host: fetch manifest, fetch metadata of every public
// link, optionally fetch dataset bodies, and index everything. A link is
// committed to the index only after every fetch it needs has succeeded, so
// a host that dies mid-crawl can never leave partially indexed garbage —
// the index always reflects some consistent set of fully crawled links.
func (s *SearchService) Crawl(ctx context.Context, hostURLs []string, opt CrawlOptions, httpc *http.Client) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if httpc == nil {
		httpc = defaultCrawlClient
	}
	stats := CrawlStats{}
	dirty := false
	finish := func(err error) error {
		if dirty {
			s.rebuildIndex()
		}
		s.mu.Lock()
		s.LastCrawl = stats
		s.mu.Unlock()
		return err
	}
	for _, base := range hostURLs {
		err := s.crawlHost(ctx, base, opt, httpc, &stats, &dirty)
		if err == nil {
			continue
		}
		if !opt.SkipFailedHosts {
			return finish(err)
		}
		metricHostsSkipped.Inc()
		stats.FailedHosts = append(stats.FailedHosts, base+"\t"+err.Error())
	}
	return finish(nil)
}

// crawlHost crawls one host's public links, committing each link only once
// all its fetches succeeded.
func (s *SearchService) crawlHost(ctx context.Context, base string, opt CrawlOptions, httpc *http.Client, stats *CrawlStats, dirty *bool) error {
	entries, err := fetchManifest(ctx, httpc, opt, base)
	if err != nil {
		return fmt.Errorf("genomenet: crawl %s: %w", base, err)
	}
	fetched := 0
	for _, e := range entries {
		if !e.Public {
			continue
		}
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("genomenet: crawl %s: %w", base, cerr)
		}
		stats.Visited++
		key := base + "|" + e.Name
		s.mu.Lock()
		unchanged := e.Fingerprint != "" && s.fingerprints[key] == e.Fingerprint
		s.mu.Unlock()
		if unchanged {
			stats.Skipped++
			continue
		}
		// Fetch everything the link needs BEFORE touching the index.
		metaLines, err := fetchText(ctx, httpc, opt, base+e.MetaURL)
		if err != nil {
			return fmt.Errorf("genomenet: crawl %s/%s: %w", base, e.Name, err)
		}
		var body *gdm.Dataset
		if fetched < opt.FetchBodies {
			body, err = fetchDataset(ctx, httpc, opt, base+e.DataURL)
			if err != nil {
				return fmt.Errorf("genomenet: crawl %s/%s body: %w", base, e.Name, err)
			}
			fetched++
		}
		s.commit(base, e, metaLines, body)
		*dirty = true
		metricLinksIndexed.Inc()
		stats.Updated++
	}
	return nil
}

// rebuildIndex reconstructs the metadata store from the retained per-sample
// metadata, so re-crawled datasets replace (rather than duplicate) their
// previous entries.
func (s *SearchService) rebuildIndex() {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.metaOf))
	for k := range s.metaOf {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s.store = meta.NewStore()
	for _, k := range keys {
		// k is host|name|sample.
		cut := strings.LastIndex(k, "|")
		s.store.Add(meta.Entry{Dataset: k[:cut], Sample: k[cut+1:], Meta: s.metaOf[k]})
	}
	if s.onto != nil {
		s.store.AnnotateWith(s.onto)
	}
}

// fetchBytes performs one capped, optionally retried GET.
func fetchBytes(ctx context.Context, c *http.Client, opt CrawlOptions, url string) ([]byte, error) {
	var body []byte
	op := func(ctx context.Context) error {
		body = nil
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := c.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		limit := opt.maxBody()
		b, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
		if err != nil {
			return err
		}
		if int64(len(b)) > limit {
			return fmt.Errorf("%s: response exceeds %d-byte cap", url, limit)
		}
		if resp.StatusCode != http.StatusOK {
			return &resilience.StatusError{Code: resp.StatusCode, Status: resp.Status}
		}
		body = b
		return nil
	}
	if err := opt.Retrier.Do(ctx, op); err != nil {
		return nil, err
	}
	metricPagesCrawled.Inc()
	return body, nil
}

func fetchManifest(ctx context.Context, c *http.Client, opt CrawlOptions, base string) ([]ManifestEntry, error) {
	body, err := fetchBytes(ctx, c, opt, base+"/manifest")
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	var out []ManifestEntry
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	return out, nil
}

func fetchText(ctx context.Context, c *http.Client, opt CrawlOptions, url string) (string, error) {
	body, err := fetchBytes(ctx, c, opt, url)
	if err != nil {
		return "", fmt.Errorf("%s: %w", url, err)
	}
	return string(body), nil
}

func fetchDataset(ctx context.Context, c *http.Client, opt CrawlOptions, url string) (*gdm.Dataset, error) {
	body, err := fetchBytes(ctx, c, opt, url)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", url, err)
	}
	return formats.DecodeFrame(body)
}

// commit records one fully fetched link: its metadata lines, stored per
// sample in place of any previous crawl's entries for the dataset, its
// fingerprint, and its body when this crawl fetched one. A body cached from
// the link's earlier content is dropped otherwise: it no longer describes
// the dataset. The search index itself is rebuilt once at the end of the
// crawl.
func (s *SearchService) commit(hostURL string, e ManifestEntry, lines string, body *gdm.Dataset) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := hostURL + "|" + e.Name
	s.datasets[key] = IndexedDataset{
		HostURL: hostURL, Name: e.Name, Samples: e.Samples, Regions: e.Regions,
		Cached: body != nil,
	}
	if body != nil {
		s.cache[key] = body
	} else {
		delete(s.cache, key)
	}
	s.fingerprints[key] = e.Fingerprint
	s.CrawlLog = append(s.CrawlLog, hostURL+"/"+e.Name)
	for k := range s.metaOf {
		if strings.HasPrefix(k, key+"|") {
			delete(s.metaOf, k)
		}
	}
	for _, line := range strings.Split(lines, "\n") {
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, "\t", 2)
		md := gdm.NewMetadata()
		if len(parts) == 2 {
			for _, pair := range strings.Split(parts[1], ";") {
				if kv := strings.SplitN(pair, "=", 2); len(kv) == 2 {
					md.Add(kv[0], kv[1])
				}
			}
		}
		s.metaOf[key+"|"+parts[0]] = md
	}
}

// NumIndexed reports how many datasets the service knows.
func (s *SearchService) NumIndexed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.datasets)
}

// Search answers a keyword (or, with an ontology, concept) query with
// snippets.
func (s *SearchService) Search(query string, ontological bool) []Snippet {
	s.mu.Lock()
	defer s.mu.Unlock()
	var hits []meta.Entry
	if ontological && s.onto != nil {
		hits = s.store.SearchOntological(s.onto, query)
	} else {
		hits = s.store.SearchKeyword(query)
	}
	out := make([]Snippet, 0, len(hits))
	for _, h := range hits {
		d := s.datasets[h.Dataset]
		matched := ""
		for _, p := range h.Meta.Pairs() {
			if strings.Contains(strings.ToLower(p[0]+" "+p[1]), strings.ToLower(query)) {
				matched = p[0] + "=" + p[1]
				break
			}
		}
		out = append(out, Snippet{
			HostURL: d.HostURL, Dataset: d.Name, Sample: h.Sample,
			Matched: matched, InRepo: d.Cached,
			DataURL: d.HostURL + "/data/" + d.Name,
		})
	}
	return out
}

// RegionFeature selects the ranking feature of feature-based region search.
type RegionFeature uint8

// Region features.
const (
	// FeatureOverlapCount ranks by how many cached regions overlap the
	// query regions.
	FeatureOverlapCount RegionFeature = iota
	// FeatureCoverage ranks by the fraction of query regions hit at least
	// once.
	FeatureCoverage
)

// RankedDataset is one feature-based search result.
type RankedDataset struct {
	HostURL string
	Dataset string
	Score   float64
}

// RegionSearch implements the paper's feature-based region search: the user
// provides regions of interest; features are COMPUTED over the cached
// datasets (they cannot be pre-indexed for arbitrary queries); datasets are
// ranked by the computed feature and returned best-first.
func (s *SearchService) RegionSearch(query *gdm.Sample, feature RegionFeature, topK int) ([]RankedDataset, error) {
	type cachedBody struct {
		idx IndexedDataset
		ds  *gdm.Dataset
	}
	s.mu.Lock()
	cached := make([]cachedBody, 0, len(s.cache))
	for k, ds := range s.cache {
		cached = append(cached, cachedBody{s.datasets[k], ds})
	}
	s.mu.Unlock()

	ref := gdm.NewDataset("QUERY", gdm.MustSchema())
	// The query's coordinates without its values; SortRegions sorts into
	// new slices, never the caller's.
	q := &gdm.Sample{ID: "query", Meta: gdm.NewMetadata(), Regions: query.Regions}
	q.SortRegions()
	ref.MustAdd(q)

	cfg := engine.Config{Mode: engine.ModeSerial, MetaFirst: true}
	var out []RankedDataset
	for _, c := range cached {
		// Merge the dataset into one sample, then MAP the query onto it.
		merged, err := engine.Merge(cfg, c.ds, nil)
		if err != nil {
			return nil, fmt.Errorf("genomenet: region search: %w", err)
		}
		mapped, err := engine.Map(cfg, ref, merged, engine.MapArgs{
			Aggs: []expr.Aggregate{{Output: "hits", Func: expr.AggCount}},
		})
		if err != nil {
			return nil, fmt.Errorf("genomenet: region search: %w", err)
		}
		hi, _ := mapped.Schema.Index("hits")
		total, covered := 0.0, 0.0
		for _, sm := range mapped.Samples {
			for ri := range sm.Regions {
				n := sm.Row(ri)[hi].Int()
				total += float64(n)
				if n > 0 {
					covered++
				}
			}
		}
		var score float64
		switch feature {
		case FeatureOverlapCount:
			score = total
		case FeatureCoverage:
			if len(query.Regions) > 0 {
				score = covered / float64(len(query.Regions))
			}
		default:
			return nil, fmt.Errorf("genomenet: unknown feature %d", feature)
		}
		out = append(out, RankedDataset{HostURL: c.idx.HostURL, Dataset: c.idx.Name, Score: score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].HostURL != out[j].HostURL {
			return out[i].HostURL < out[j].HostURL
		}
		return out[i].Dataset < out[j].Dataset
	})
	if topK > 0 && topK < len(out) {
		out = out[:topK]
	}
	return out, nil
}
