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
// directory: nothing is opened when it is made, and a dataset is read only
// when a query scans it. It implements engine.Catalog and the engine's
// PrunedCatalog extension (the interface is declared there; this is its disk
// implementation), so a scan under SELECT, MAP or JOIN reads only what that
// operator's proof keeps: samples whose metadata passes and, of those, the
// partitions whose zone windows can matter.
//
// Full loads are cached per catalog instance (a session's repeated scans of
// one dataset parse once); pruned loads are query-specific subsets and always
// hit the disk, which is exactly what the skipped-I/O accounting measures.
type DirCatalog struct {
	// Root is the repository directory: one dataset per subdirectory.
	Root string
	// Policy governs every read, full and pruned. Under AllowPartial a
	// damaged sample the read touches is excluded and itemized in the
	// dataset's IntegrityReport (IntegritySnapshot); under the strict zero
	// policy it fails the read with a typed *IntegrityError.
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

// Stats returns the dataset's stats block — the partition index — from its
// stats.json, without loading any region data. ok is false for datasets
// without a trustworthy block (a text export, a member written before
// stats.json existed, a damaged or stale file).
func (c *DirCatalog) Stats(name string) (*catalog.DatasetStats, bool) {
	dir, err := c.datasetDir(name)
	if err != nil {
		return nil, false
	}
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, false
	}
	return usableStats(dir, man)
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
			if err := ds.Add(s); err != nil {
				ie = &IntegrityError{Dataset: ds.Name, Path: filepath.Join(dir, id+columnarExt),
					Reason: ReasonParse, Detail: err.Error()}
			}
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
	noteIntegrity(rep)
	metricColumnarLoads.Inc()
	metricPrunedParts.With("skipped").Add(int64(st.SkippedParts))
	metricPrunedParts.With("read").Add(int64(st.Parts - st.SkippedParts))
	metricPrunedRegions.Add(st.SkippedRegions)
	metricPrunedBytes.Add(st.SkippedBytes)
	return ds, st, nil
}
