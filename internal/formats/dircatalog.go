package formats

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"genogo/internal/catalog"
	"genogo/internal/gdm"
)

// DirCatalog resolves engine Scan nodes straight against a repository
// directory: datasets load lazily, per query, through OpenDataset — and
// members load through the partition-level pruned read path, so a query
// whose zone windows prove partitions irrelevant never reads their bytes. It
// implements engine.Catalog and the engine's PrunedCatalog extension (the
// interface is declared there; this is its disk implementation).
//
// Full loads are cached per catalog instance (a session's repeated scans of
// one dataset parse once); pruned loads are query-specific subsets and always
// hit the disk, which is exactly what the skipped-I/O accounting measures.
type DirCatalog struct {
	// Root is the repository directory: one dataset per subdirectory.
	Root string
	// Policy governs full loads (OpenDataset). Pruned reads are always
	// strict: a damaged partition fails the query rather than degrading.
	Policy IntegrityPolicy
	// NoCache disables the full-load cache (benchmarks measure cold loads).
	NoCache bool

	mu   sync.Mutex
	full map[string]*gdm.Dataset
}

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
	if !isDatasetDir(dir) {
		return "", fmt.Errorf("engine: unknown dataset %q", name)
	}
	return dir, nil
}

// Names lists the datasets the repository holds, sorted.
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

// Dataset implements engine.Catalog: a full verified load under the catalog's
// policy, cached per instance.
func (c *DirCatalog) Dataset(name string) (*gdm.Dataset, error) {
	if !c.NoCache {
		c.mu.Lock()
		if ds, ok := c.full[name]; ok {
			c.mu.Unlock()
			return ds, nil
		}
		c.mu.Unlock()
	}
	dir, err := c.datasetDir(name)
	if err != nil {
		return nil, err
	}
	ds, _, err := OpenDataset(dir, c.Policy)
	if err != nil {
		return nil, err
	}
	if !c.NoCache {
		c.mu.Lock()
		if c.full == nil {
			c.full = make(map[string]*gdm.Dataset)
		}
		c.full[name] = ds
		c.mu.Unlock()
	}
	return ds, nil
}

// Stats returns the dataset's manifest stats block — the partition index —
// without loading any region data: one manifest read. ok is false for
// datasets without a trustworthy block (a text export, an old writer, a
// stale digest).
func (c *DirCatalog) Stats(name string) (*catalog.DatasetStats, bool) {
	dir, err := c.datasetDir(name)
	if err != nil {
		return nil, false
	}
	man, err := ReadManifest(dir)
	if err != nil || man.Stats == nil || man.Stats.Version > catalog.StatsVersion {
		return nil, false
	}
	if man.Stats.Digest != "" && man.Stats.Digest != man.Digest {
		return nil, false // stale block: it does not describe the data beside it
	}
	return man.Stats, true
}

// DatasetPruned implements the engine's partition-level read: load the named
// dataset skipping every partition keep rejects. For a member the skipped
// partitions' payload bytes are never read — the zone-map accounting turned
// into real skipped I/O. A text export has no partition index to skip by, so
// it falls back to the full cached load with zero skip accounting: callers
// observe honest I/O numbers either way, and results are identical because a
// skipped partition provably contributes nothing to the pruning consumer.
func (c *DirCatalog) DatasetPruned(name string, keep func(chrom string, minStart, maxStop int64) bool) (*gdm.Dataset, catalog.PruneStats, error) {
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
	ds := gdm.NewDataset(filepath.Base(dir), schema)
	for _, id := range man.SampleIDs() {
		s, sst, ie := openColumnarSamplePruned(dir, id, schema, man, keep)
		if ie != nil {
			metricIntegrityFailures.With(string(ie.Reason)).Inc()
			return nil, st, ie
		}
		st.Add(sst)
		s.SortRegions()
		if err := ds.Add(s); err != nil {
			return nil, st, &IntegrityError{Dataset: ds.Name, Path: filepath.Join(dir, id+columnarExt),
				Reason: ReasonParse, Detail: err.Error()}
		}
	}
	metricColumnarLoads.Inc()
	metricPrunedParts.With("skipped").Add(int64(st.SkippedParts))
	metricPrunedParts.With("read").Add(int64(st.Parts - st.SkippedParts))
	metricPrunedRegions.Add(st.SkippedRegions)
	metricPrunedBytes.Add(st.SkippedBytes)
	return ds, st, nil
}
