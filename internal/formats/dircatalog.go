package formats

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"genogo/internal/catalog"
	"genogo/internal/gdm"
	"genogo/internal/obs"
)

// DirCatalog is a node's one repository catalog: the datasets it holds in
// memory, their statistics, the integrity report of every dataset it read
// from disk, and the /debug/repo view of all three. It resolves engine Scan
// nodes straight against a repository directory: nothing is opened when it
// is made, and a dataset is read only when a query scans it (gmql) or when
// ServeRepository loads every one at boot (gmqld, genomenet host). Datasets
// registered with Add live only in memory. It implements engine.Catalog and
// the engine's PrunedCatalog extension (the interface is declared there;
// this is its disk implementation), so a scan under SELECT, MAP or JOIN
// reads only what that operator's proof keeps: samples whose metadata
// passes and, of those, the partitions whose zone windows can matter.
//
// Full loads are held per catalog instance (a session's repeated scans of
// one dataset parse once); pruned loads are query-specific subsets and always
// hit the disk, which is exactly what the skipped-I/O accounting measures.
type DirCatalog struct {
	// Root is the repository directory: one dataset per subdirectory. An
	// empty Root is a catalog of registered datasets only.
	Root string
	// Policy governs every read, full and pruned. Under AllowPartial a
	// damaged sample the read touches is excluded and itemized in the
	// dataset's IntegrityReport, which the catalog keeps (Reports); under
	// the strict zero policy it fails the read with a typed *IntegrityError.
	Policy IntegrityPolicy
	// NoCache keeps full loads from being held (benchmarks measure cold
	// loads).
	NoCache bool

	mu   sync.Mutex
	held map[string]*heldDataset
	// reports holds the latest integrity report of each dataset read from
	// disk; a stored report is never modified (merges make a copy).
	reports map[string]*IntegrityReport
	// served is set by ServeRepository: this catalog is the one the process serves,
	// it never reads a dataset it does not hold, and its totals are the
	// genogo_repo_* gauges.
	served bool
}

// heldDataset is one dataset the catalog holds in full, with its statistics
// once resolved. stats and source are written once, under the catalog lock.
type heldDataset struct {
	ds       *gdm.Dataset
	loadedAt time.Time
	once     sync.Once
	stats    *catalog.DatasetStats
	source   string
}

// Statistics sources, as /debug/repo reports them.
const (
	// SourceManifest: the member's verified stats.json.
	SourceManifest = "manifest"
	// SourceScan: one scan of the loaded dataset (a text export, a partial
	// load, a member without a usable stats.json).
	SourceScan = "scan"
	// SourceMemory: one scan of a dataset registered in memory.
	SourceMemory = "memory"
)

// NewDirCatalog creates a lazy disk-backed catalog over a repository
// directory with the strict integrity policy.
func NewDirCatalog(root string) *DirCatalog {
	return &DirCatalog{Root: root}
}

// datasetDir validates a dataset name and resolves its directory. Names come
// from query text, so path traversal must be rejected, not resolved.
func (c *DirCatalog) datasetDir(name string) (string, error) {
	if name == "" || name == "." || name == ".." ||
		strings.ContainsAny(name, "/\\") || strings.HasPrefix(name, ".") {
		return "", fmt.Errorf("formats: invalid dataset name %q", name)
	}
	dir := filepath.Join(c.Root, name)
	if c.Root == "" || !isDatasetDir(dir) {
		return "", fmt.Errorf("engine: unknown dataset %q", name)
	}
	return dir, nil
}

// Names lists the datasets the repository directory holds, sorted.
func (c *DirCatalog) Names() ([]string, error) {
	entries, err := os.ReadDir(c.Root)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		if isDatasetDir(filepath.Join(c.Root, e.Name())) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Add registers a dataset in memory under its name, replacing (with its
// statistics and integrity report) any dataset held under that name.
func (c *DirCatalog) Add(ds *gdm.Dataset) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.initLocked()
	delete(c.reports, ds.Name)
	c.held[ds.Name] = &heldDataset{ds: ds, loadedAt: time.Now()}
	c.publishLocked()
}

// initLocked makes the catalog's maps on first use.
func (c *DirCatalog) initLocked() {
	if c.held == nil {
		c.held, c.reports = make(map[string]*heldDataset), make(map[string]*IntegrityReport)
	}
}

// Dataset implements engine.Catalog: a held dataset, or else (unless the
// catalog was warmed) a full verified load under the catalog's policy, held
// from then on.
func (c *DirCatalog) Dataset(name string) (*gdm.Dataset, error) {
	h, disk := c.lookup(name)
	if h != nil {
		return h.ds, nil
	}
	if !disk {
		return nil, fmt.Errorf("engine: unknown dataset %q", name)
	}
	return c.load(name)
}

// lookup returns the dataset held under name, or nil, and whether a miss
// may go to the disk: a warmed catalog serves exactly what it holds.
func (c *DirCatalog) lookup(name string) (*heldDataset, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.held[name], !c.served
}

// load reads one dataset from disk, keeps its integrity report in place of
// any earlier one and, unless NoCache, holds it.
func (c *DirCatalog) load(name string) (*gdm.Dataset, error) {
	dir, err := c.datasetDir(name)
	if err != nil {
		return nil, err
	}
	ds, rep, err := OpenDataset(dir, c.Policy)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.initLocked()
	c.reports[name] = rep
	if !c.NoCache {
		c.held[name] = &heldDataset{ds: ds, loadedAt: time.Now()}
		c.publishLocked()
	}
	return ds, nil
}

// report returns the dataset's latest integrity report: nil for a dataset
// registered in memory or never read. The report must not be modified.
func (c *DirCatalog) report(name string) *IntegrityReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reports[name]
}

// mergeReport folds a pruned read's report into the dataset's latest one. A
// pruned read checks only the part of the dataset it touches, so the samples
// it excludes add to what earlier reads found rather than replacing it.
func (c *DirCatalog) mergeReport(rep *IntegrityReport) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.initLocked()
	if prev := c.reports[rep.Dataset]; prev != nil {
		merged := *prev
		merged.Quarantined = slices.Clip(prev.Quarantined)
		for _, q := range rep.Quarantined {
			if !slices.ContainsFunc(merged.Quarantined, func(p QuarantinedSample) bool { return p.Sample == q.Sample }) {
				merged.Quarantined = append(merged.Quarantined, q)
			}
		}
		merged.Verified = merged.Verified && !merged.Partial()
		rep = &merged
	}
	c.reports[rep.Dataset] = rep
}

// Reports returns the latest integrity report of every dataset the catalog
// read from disk, in name order. The reports must not be modified.
func (c *DirCatalog) Reports() []*IntegrityReport {
	c.mu.Lock()
	out := make([]*IntegrityReport, 0, len(c.reports))
	for _, rep := range c.reports {
		out = append(out, rep)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Dataset < out[j].Dataset })
	return out
}

// WriteWarnings writes a WARNING line for every dataset the catalog read
// partially or unverified, in name order. The wording follows Policy: damage
// quarantined (moved aside) or only skipped, left for gmqlfsck.
func (c *DirCatalog) WriteWarnings(w io.Writer) {
	for _, rep := range c.Reports() {
		switch {
		case rep.Partial():
			fate := "corrupt sample(s) skipped (gmqlfsck can repair)"
			if c.Policy.Quarantine {
				fate = "sample(s) quarantined (see /debug/repo/" + rep.Dataset + ")"
			}
			fmt.Fprintf(w, "WARNING: %s loaded partially: %d %s\n", rep.Dataset, len(rep.Quarantined), fate)
		case rep.Unverified:
			fmt.Fprintf(w, "WARNING: %s has no manifest; loaded unverified (gmqlfsck -rebuild converts it into a member)\n", rep.Dataset)
		}
	}
}

// ServeRepository loads every dataset under root into the catalog a node
// serves (gmqld, a genomenet host) under the one serving policy: a corrupt
// sample is quarantined and left out, not served as wrong bytes. From then
// on the catalog answers for exactly what it holds, its totals are the
// genogo_repo_* gauges. An empty root is an error.
func ServeRepository(root string) (*DirCatalog, error) {
	c := &DirCatalog{Root: root, Policy: IntegrityPolicy{AllowPartial: true, Quarantine: true}}
	if err := c.loadAll(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.held) == 0 {
		return nil, fmt.Errorf("no datasets found under %s", root)
	}
	c.served = true
	c.publishLocked()
	return c, nil
}

func (c *DirCatalog) loadAll() error {
	names, err := c.Names()
	if err != nil {
		return err
	}
	for _, name := range names {
		if _, err := c.load(name); err != nil {
			return fmt.Errorf("loading %s: %w", filepath.Join(c.Root, name), err)
		}
	}
	return nil
}

// heldSorted returns the held datasets in name order.
func (c *DirCatalog) heldSorted() []*heldDataset {
	c.mu.Lock()
	out := make([]*heldDataset, 0, len(c.held))
	for _, h := range c.held {
		out = append(out, h)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ds.Name < out[j].ds.Name })
	return out
}

// Held returns the datasets the catalog holds in memory, sorted by name.
func (c *DirCatalog) Held() []*gdm.Dataset {
	hs := c.heldSorted()
	out := make([]*gdm.Dataset, len(hs))
	for i, h := range hs {
		out[i] = h.ds
	}
	return out
}

// Stats returns the dataset's statistics without loading region data. A held
// dataset's are resolved once and cached: a complete load adopts its
// member's verified stats.json; anything else — a partial load, a text
// export, a member without a usable block, a registered dataset — is scanned
// once. A dataset not held (by a catalog that was not warmed) is answered
// from its stats.json, the partition
// index pruned reads plan by; ok is false for one without a trustworthy
// block (a text export, a member written before stats.json existed, a
// damaged or stale file).
func (c *DirCatalog) Stats(name string) (*catalog.DatasetStats, bool) {
	h, disk := c.lookup(name)
	if h != nil {
		return c.resolve(h), true
	}
	if !disk {
		return nil, false
	}
	dir, err := c.datasetDir(name)
	if err != nil {
		return nil, false
	}
	return usableStats(dir)
}

// resolve returns a held dataset's statistics, resolving them on first use:
// the file read or the scan runs without the catalog lock, and concurrent
// callers wait for the one run.
func (c *DirCatalog) resolve(h *heldDataset) *catalog.DatasetStats {
	h.once.Do(func() {
		rep := c.report(h.ds.Name)
		st, source := manifestStats(rep)
		if st == nil {
			st, source = catalog.Compute(h.ds), SourceScan
			switch {
			case rep == nil:
				st.Digest, source = h.ds.ContentDigest(), SourceMemory
			case rep.Verified:
				st.Digest = rep.Digest
			default:
				st.Digest = h.ds.ContentDigest()
			}
			metricRepoScans.Inc()
		}
		c.mu.Lock()
		h.stats, h.source = st, source
		c.publishLocked()
		c.mu.Unlock()
	})
	return h.stats
}

// manifestStats returns a complete member load's stats.json when it
// verifies, this build reads its version, and it describes the loaded
// content.
func manifestStats(rep *IntegrityReport) (*catalog.DatasetStats, string) {
	if rep == nil || !rep.Verified {
		return nil, ""
	}
	if st, ok := usableStats(rep.Dir); ok && st.Digest == rep.Digest {
		return st, SourceManifest
	}
	return nil, ""
}

// publishLocked sets the genogo_repo_* gauges from a served catalog: every
// held dataset, and the totals of those whose statistics are resolved.
func (c *DirCatalog) publishLocked() {
	if !c.served {
		return
	}
	var samples, regions int
	var bytes int64
	for _, h := range c.held {
		s, r, b := h.stats.Totals()
		samples, regions, bytes = samples+s, regions+r, bytes+b
	}
	metricRepoDatasets.Set(int64(len(c.held)))
	metricRepoSamples.Set(int64(samples))
	metricRepoRegions.Set(int64(regions))
	metricRepoBytes.Set(bytes)
}

// LazyScans reports how many statistics scans this process has performed
// (test hook for the scanned-exactly-once guarantee).
func LazyScans() int64 { return metricRepoScans.Value() }

// DatasetSummary is one /debug/repo row.
type DatasetSummary struct {
	Name        string    `json:"name"`
	Dir         string    `json:"dir,omitempty"`
	Digest      string    `json:"digest,omitempty"`
	Source      string    `json:"source"`
	Integrity   string    `json:"integrity,omitempty"`
	Quarantined int       `json:"quarantined,omitempty"`
	LoadedAt    time.Time `json:"loaded_at"`
	Samples     int       `json:"samples"`
	Regions     int       `json:"regions"`
	Bytes       int64     `json:"bytes"`
	AttrArity   int       `json:"attr_arity"`
}

// DatasetDetail is the /debug/repo/{name} drill-down: the summary plus the
// integrity report, per-chromosome totals and full partition stats.
type DatasetDetail struct {
	DatasetSummary
	Report *IntegrityReport      `json:"report,omitempty"`
	Chroms []catalog.ChromTotal  `json:"chroms"`
	Stats  *catalog.DatasetStats `json:"stats,omitempty"`
}

// summary resolves a held dataset's statistics and describes it with rep.
func (c *DirCatalog) summary(h *heldDataset, rep *IntegrityReport) DatasetSummary {
	st := c.resolve(h)
	s := DatasetSummary{Name: h.ds.Name, Digest: st.Digest, Source: h.source,
		LoadedAt: h.loadedAt, AttrArity: st.AttrArity}
	s.Samples, s.Regions, s.Bytes = st.Totals()
	if rep != nil {
		s.Dir, s.Quarantined = rep.Dir, len(rep.Quarantined)
		switch {
		case rep.Verified:
			s.Integrity = "verified"
		case rep.Partial():
			s.Integrity = "partial"
		default:
			s.Integrity = "unverified"
		}
	}
	return s
}

// summaries describes every held dataset, in name order.
func (c *DirCatalog) summaries() []DatasetSummary {
	hs := c.heldSorted()
	rows := make([]DatasetSummary, len(hs))
	for i, h := range hs {
		rows[i] = c.summary(h, c.report(h.ds.Name))
	}
	return rows
}

// View is the repository console: /debug/repo lists every held dataset,
// resolving its statistics, and /debug/repo/{name} drills into one with its
// integrity report, per-chromosome totals and full partition table.
func (c *DirCatalog) View() obs.View {
	return obs.View{
		Path: "/debug/repo",
		Desc: "repository catalog: per-dataset statistics with chromosome drill-down",
		List: func() any {
			return struct {
				Datasets []DatasetSummary `json:"datasets"`
			}{c.summaries()}
		},
		Drill: func(name string) (any, bool) {
			h, _ := c.lookup(name)
			if h == nil {
				return nil, false
			}
			st, rep := c.resolve(h), c.report(name)
			return DatasetDetail{DatasetSummary: c.summary(h, rep), Report: rep, Chroms: st.ChromTotals(), Stats: st}, true
		},
	}
}

// DatasetPruned is ReadPruned with only the partition half of the proof.
func (c *DirCatalog) DatasetPruned(name string, keep func(chrom string, minStart, maxStop int64) bool) (*gdm.Dataset, catalog.PruneStats, error) {
	return c.ReadPruned(name, catalog.Keep{Part: keep})
}

// ReadPruned implements the engine's pruned read: load the named dataset
// without the samples keep.Sample rejects — only their metadata is read —
// and without the partitions keep.Part rejects, whose payload bytes are never
// read. A text export has no partition index to skip by, so it falls back to
// the full cached load with zero skip accounting: callers observe honest I/O
// numbers either way, and results are identical because whatever keep
// rejects provably contributes nothing to the consumer.
//
// Damage follows Policy as in OpenDataset, but only in what the read
// touches: a sample skipped by its metadata is never checked past its
// .gdm.meta, and a skipped partition's bytes are never checked at all.
func (c *DirCatalog) ReadPruned(name string, keep catalog.Keep) (*gdm.Dataset, catalog.PruneStats, error) {
	var st catalog.PruneStats
	dir, err := c.datasetDir(name)
	if err != nil {
		return nil, st, err
	}
	man, err := ReadManifest(dir)
	if errors.Is(err, fs.ErrNotExist) {
		ds, err := c.Dataset(name)
		return ds, st, err
	}
	if err != nil {
		return nil, st, err
	}
	schema, err := readMemberSchema(dir, man)
	if err != nil {
		return nil, st, err
	}
	rep := &IntegrityReport{Dataset: filepath.Base(dir), Dir: dir, Digest: man.Digest}
	ds := gdm.NewDataset(rep.Dataset, schema)
	for _, id := range man.SampleIDs() {
		s, sst, ie := openColumnarSamplePruned(dir, id, schema, man, keep)
		if ie == nil && s != nil {
			s.SortRegions()
			ds.Samples = append(ds.Samples, s) // the decoder proved what Add checks
		}
		if ie != nil {
			if err := rep.exclude(c.Policy, id, ie, id+columnarExt, id+".gdm.meta"); err != nil {
				return nil, st, err
			}
			continue
		}
		st.Add(sst)
	}
	rep.SamplesLoaded = len(ds.Samples)
	if rep.Verified = !rep.Partial(); !rep.Verified {
		metricPartialLoads.Inc()
	}
	c.mergeReport(rep)
	metricColumnarLoads.Inc()
	metricPrunedParts.With("skipped").Add(int64(st.SkippedParts))
	metricPrunedParts.With("read").Add(int64(st.Parts - st.SkippedParts))
	metricPrunedRegions.Add(st.SkippedRegions)
	metricPrunedBytes.Add(st.SkippedBytes)
	return ds, st, nil
}
