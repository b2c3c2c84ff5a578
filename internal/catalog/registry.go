package catalog

import (
	"sync"
	"time"

	"genogo/internal/gdm"
	"genogo/internal/obs"
)

// Repository metrics: the catalog view as time series, updated whenever an
// entry is recorded or lazily scanned.
var (
	metricRepoDatasets = obs.Default().Gauge("genogo_repo_datasets",
		"Datasets in the repository catalog.")
	metricRepoSamples = obs.Default().Gauge("genogo_repo_samples",
		"Samples across all cataloged datasets with computed statistics.")
	metricRepoRegions = obs.Default().Gauge("genogo_repo_regions",
		"Regions across all cataloged datasets with computed statistics.")
	metricRepoBytes = obs.Default().Gauge("genogo_repo_bytes",
		"Estimated serialized bytes across all cataloged datasets with computed statistics.")
	metricRepoStale = obs.Default().Gauge("genogo_repo_stats_stale",
		"Cataloged datasets whose statistics are flagged stale (content digest moved on).")
	metricRepoLazyScans = obs.Default().Counter("genogo_repo_lazy_scans_total",
		"Full dataset scans performed to compute statistics for datasets without a usable stats block.")
	metricRepoRecorded = obs.Default().CounterVec("genogo_repo_records_total",
		"Catalog record events, by statistics source (manifest, scan, memory).", "source")
)

// Stats sources.
const (
	// SourceManifest marks stats read from a member's stats block (its
	// manifest-verified stats.json).
	SourceManifest = "manifest"
	// SourceScan marks stats computed by scanning a loaded dataset (text
	// exports, missing or stale stats blocks).
	SourceScan = "scan"
	// SourceMemory marks stats of datasets registered directly in memory
	// (federation members, tests) with no on-disk manifest.
	SourceMemory = "memory"
)

// Info is one catalog record: what a loader learned about a dataset.
// LoadStats (a block read on first use) or Dataset (for a lazy scan) should
// be set; both may be.
type Info struct {
	Name   string
	Dir    string // "" for in-memory datasets
	Digest string // current content digest when known
	Source string // SourceManifest, SourceScan, SourceMemory
	// Integrity is the load verdict: "verified", "partial", "unverified".
	Integrity   string
	Quarantined int
	// LoadStats reads the block from disk. It runs at most once, on the
	// entry's first Stats, Snapshot or Detail, without the registry lock
	// held; nil or an unusable block falls back to the lazy scan of Dataset,
	// if set.
	LoadStats func() *DatasetStats
	// Dataset enables the lazy scan when LoadStats is missing or unusable.
	Dataset *gdm.Dataset
}

// entry is one cataloged dataset.
type entry struct {
	info     Info
	stale    bool
	loadedAt time.Time
	stats    *DatasetStats // nil until computed or adopted
	ds       *gdm.Dataset  // retained only until a scan is needed
	// load is info.LoadStats, run once by resolve; set before the entry is
	// published and never written after.
	load   func() *DatasetStats
	loaded sync.Once
}

// Registry is the process-wide repository catalog: every dataset the
// process has loaded (or registered), its statistics and their provenance.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
	order   []string // insertion order for stable iteration before sorting
}

// NewRegistry returns an empty catalog registry (tests; production code uses
// the process-wide Repo()).
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// repo is the process-wide registry every loader records into.
var repo = NewRegistry()

// Repo returns the process-wide repository catalog.
func Repo() *Registry { return repo }

// usable reports whether a stats block is authoritative for digest.
func usable(st *DatasetStats, digest string) bool {
	if st == nil || st.Version > StatsVersion {
		return false
	}
	return digest == "" || st.Digest == digest
}

// Record files (or refiles) one dataset in the catalog. The previous
// record's stats stay cached until the new one's block is read or scanned,
// flagged stale when the content digest moved on or fresh content came with
// the record, so the next Stats call replaces them exactly once.
func (r *Registry) Record(info Info) {
	if info.Name == "" {
		return
	}
	r.mu.Lock()
	e := &entry{info: info, loadedAt: time.Now(), ds: info.Dataset, load: info.LoadStats}
	if old := r.entries[info.Name]; old != nil && old.stats != nil {
		e.stats = old.stats
		e.stale = info.Dataset != nil ||
			info.Digest != "" && old.stats.Digest != "" && info.Digest != old.stats.Digest
	}
	if _, seen := r.entries[info.Name]; !seen {
		r.order = append(r.order, info.Name)
	}
	r.entries[info.Name] = e
	metricRepoRecorded.With(info.Source).Inc()
	r.updateGaugesLocked()
	r.mu.Unlock()
}

// Stats returns the dataset's statistics: on first use the recorded loader
// reads the block from disk, and without a usable block the retained dataset
// is scanned. Either happens at most once per recorded load: the result is
// cached (and the retained dataset reference released).
func (r *Registry) Stats(name string) (*DatasetStats, bool) {
	e := r.resolve(name)
	if e == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.statsLocked(e)
	return st, st != nil
}

// resolve returns the named entry (nil if none) after running its stats
// loader, if it has one, once: the loader reads a file, so it runs without
// the registry lock held, and concurrent callers wait for the one run. A
// usable block is adopted; otherwise the entry falls back to the lazy scan.
func (r *Registry) resolve(name string) *entry {
	r.mu.Lock()
	e := r.entries[name]
	r.mu.Unlock()
	if e == nil || e.load == nil {
		return e
	}
	e.loaded.Do(func() {
		st := e.load()
		r.mu.Lock()
		defer r.mu.Unlock()
		if usable(st, e.info.Digest) {
			e.stats, e.stale, e.ds = st, false, nil
			r.updateGaugesLocked()
		} else if e.ds != nil {
			e.info.Source = SourceScan
		}
	})
	return e
}

// statsLocked resolves an entry's stats, performing the lazy scan if needed.
func (r *Registry) statsLocked(e *entry) *DatasetStats {
	if (e.stats == nil || e.stale) && e.ds != nil {
		st := Compute(e.ds)
		st.Digest = e.info.Digest
		if st.Digest == "" {
			st.Digest = e.ds.ContentDigest()
		}
		e.stats = st
		e.stale = false
		e.ds = nil
		metricRepoLazyScans.Inc()
		r.updateGaugesLocked()
	}
	return e.stats
}

// updateGaugesLocked refreshes the repository gauges from computed entries.
// Only the process-wide registry drives the gauges: per-node registries
// (federation servers, tests) would otherwise overwrite them last-writer-wins.
func (r *Registry) updateGaugesLocked() {
	if r != repo {
		return
	}
	var datasets, stale int64
	var samples, regions int
	var bytes int64
	for _, e := range r.entries {
		datasets++
		if e.stale {
			stale++
		}
		if e.stats != nil {
			s, rg, b := e.stats.Totals()
			samples += s
			regions += rg
			bytes += b
		}
	}
	metricRepoDatasets.Set(datasets)
	metricRepoStale.Set(stale)
	metricRepoSamples.Set(int64(samples))
	metricRepoRegions.Set(int64(regions))
	metricRepoBytes.Set(bytes)
}

// DatasetSummary is one catalog row as the console and JSON export see it.
type DatasetSummary struct {
	Name        string    `json:"name"`
	Dir         string    `json:"dir,omitempty"`
	Digest      string    `json:"digest,omitempty"`
	Source      string    `json:"source"`
	Stale       bool      `json:"stale,omitempty"`
	Integrity   string    `json:"integrity,omitempty"`
	Quarantined int       `json:"quarantined,omitempty"`
	LoadedAt    time.Time `json:"loaded_at"`
	Samples     int       `json:"samples"`
	Regions     int       `json:"regions"`
	Bytes       int64     `json:"bytes"`
	AttrArity   int       `json:"attr_arity"`
}

// DatasetDetail is the drill-down view: the summary plus the per-chromosome
// aggregation and the full per-sample partition stats.
type DatasetDetail struct {
	DatasetSummary
	Chroms []ChromTotal  `json:"chroms"`
	Stats  *DatasetStats `json:"stats,omitempty"`
}

func summarize(e *entry, st *DatasetStats) DatasetSummary {
	s := DatasetSummary{
		Name: e.info.Name, Dir: e.info.Dir, Digest: e.info.Digest,
		Source: e.info.Source, Stale: e.stale,
		Integrity: e.info.Integrity, Quarantined: e.info.Quarantined,
		LoadedAt: e.loadedAt,
	}
	if st != nil {
		s.Samples, s.Regions, s.Bytes = st.Totals()
		s.AttrArity = st.AttrArity
		if s.Digest == "" {
			s.Digest = st.Digest
		}
	}
	return s
}

// Snapshot lists every cataloged dataset, sorted by name. Listing resolves
// statistics, so a dataset recorded without a usable block gets its one lazy
// scan here.
func (r *Registry) Snapshot() []DatasetSummary {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	r.mu.Unlock()
	for _, name := range names {
		r.resolve(name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]DatasetSummary, 0, len(r.entries))
	for _, name := range r.order {
		e := r.entries[name]
		if e == nil {
			continue
		}
		out = append(out, summarize(e, r.statsLocked(e)))
	}
	sortSummaries(out)
	return out
}

func sortSummaries(out []DatasetSummary) {
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Name < out[j-1].Name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
}

// Detail returns the drill-down view of one dataset.
func (r *Registry) Detail(name string) (DatasetDetail, bool) {
	e := r.resolve(name)
	if e == nil {
		return DatasetDetail{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.statsLocked(e)
	return DatasetDetail{
		DatasetSummary: summarize(e, st),
		Chroms:         st.ChromTotals(),
		Stats:          st,
	}, true
}

// LazyScans reports how many lazy scans this process has performed (test
// hook for the scanned-exactly-once guarantee).
func LazyScans() int64 { return metricRepoLazyScans.Value() }
