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
		"Full dataset scans performed to compute statistics for datasets without a usable manifest stats block.")
	metricRepoRecorded = obs.Default().CounterVec("genogo_repo_records_total",
		"Catalog record events, by statistics source (manifest, scan, memory).", "source")
)

// Stats sources.
const (
	// SourceManifest marks stats read from a dataset's manifest stats block.
	SourceManifest = "manifest"
	// SourceScan marks stats computed by scanning a loaded dataset (text
	// exports, missing or stale manifest blocks).
	SourceScan = "scan"
	// SourceMemory marks stats of datasets registered directly in memory
	// (federation members, tests) with no on-disk manifest.
	SourceMemory = "memory"
)

// Info is one catalog record: what a loader learned about a dataset. Either
// Stats (a usable manifest block) or Dataset (for a later lazy scan) should
// be set; both may be.
type Info struct {
	Name   string
	Dir    string // "" for in-memory datasets
	Digest string // current content digest when known
	Source string // SourceManifest, SourceScan, SourceMemory
	// Integrity is the load verdict: "verified", "partial", "unverified".
	Integrity   string
	Quarantined int
	// Stats is the manifest stats block when present (possibly stale).
	Stats *DatasetStats
	// Dataset enables the lazy scan when Stats is missing or stale.
	Dataset *gdm.Dataset
}

// entry is one cataloged dataset.
type entry struct {
	info     Info
	stale    bool
	loadedAt time.Time
	stats    *DatasetStats // nil until computed or adopted
	ds       *gdm.Dataset  // retained only until a scan is needed
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

// Record files (or refiles) one dataset in the catalog. A usable stats block
// is adopted as-is; otherwise the previous scan's stats stay cached and are
// flagged stale when the content digest moved on, so the next Stats call
// rescans exactly once.
func (r *Registry) Record(info Info) {
	if info.Name == "" {
		return
	}
	r.mu.Lock()
	e := &entry{info: info, loadedAt: time.Now(), ds: info.Dataset}
	if usable(info.Stats, info.Digest) {
		e.stats = info.Stats
		e.ds = nil
	} else {
		// The block on disk (if any) cannot be trusted: stale digest or a
		// newer format. Keep any previously scanned stats visible but
		// stale-flagged until the rescan.
		if info.Stats != nil {
			e.stale = true
		}
		if old := r.entries[info.Name]; old != nil && old.stats != nil {
			e.stats = old.stats
			if info.Digest != "" && old.stats.Digest != "" && info.Digest != old.stats.Digest {
				e.stale = true
			}
			if info.Dataset != nil {
				// A re-registration ships fresh content with no authoritative
				// block: the cached stats may describe the previous content,
				// so serve them stale-flagged until the rescan.
				e.stale = true
			}
		}
	}
	if _, seen := r.entries[info.Name]; !seen {
		r.order = append(r.order, info.Name)
	}
	r.entries[info.Name] = e
	metricRepoRecorded.With(info.Source).Inc()
	r.updateGaugesLocked()
	r.mu.Unlock()
}

// Stats returns the dataset's statistics, scanning the retained dataset on
// first use when no usable manifest block was recorded. The scan happens at
// most once per recorded load: its result is cached (and the retained
// dataset reference released).
func (r *Registry) Stats(name string) (*DatasetStats, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[name]
	if e == nil {
		return nil, false
	}
	st := r.statsLocked(e)
	return st, st != nil
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
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[name]
	if e == nil {
		return DatasetDetail{}, false
	}
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
