// Package catalog is the repository statistics layer: per-(sample,
// chromosome) statistics of every dataset — region counts, coordinate
// extents (the zone-map seed), serialized bytes, attribute arity — computed
// once on the write path, persisted in the dataset's stats.json member file,
// and served by a node's one catalog (formats.DirCatalog) to three
// consumers:
//
//   - operators: the /debug/repo console and genogo_repo_* metrics give a
//     catalog view of what a node stores (Section 3 of the paper: the
//     repository is a first-class system component, not a directory of
//     files);
//   - the engine: zone windows prove which samples and partitions a
//     SELECT/JOIN/MAP cannot use, so a pruned read skips them (skipped=) and
//     a read of held data counts them (prunable=);
//   - the federation estimator: per-chromosome extents turn the System-R
//     magic selectivity constants into data-dependent estimates.
//
// The package holds types and pure functions only, no registry: it sits
// below formats, engine and federation and imports only gdm and expr.
package catalog

import (
	"sort"

	"genogo/internal/gdm"
)

// StatsVersion is the format version of the stats block this code writes. A
// higher version on disk means a newer genogo wrote it; readers treat it like
// a missing block (rescan) rather than misread it.
const StatsVersion = 1

// Keep is a pruned read's proof, in two halves: Sample rejects whole samples
// by their metadata — their region data is never read — and Part rejects
// (sample, chromosome) partitions of the kept samples by zone window
// [minStart, maxStop). A nil half keeps everything.
type Keep struct {
	Sample func(md *gdm.Metadata) bool
	Part   func(chrom string, minStart, maxStop int64) bool
}

// KeepsSample reports whether the sample half keeps a sample with md.
func (k Keep) KeepsSample(md *gdm.Metadata) bool { return k.Sample == nil || k.Sample(md) }

// KeepsPart reports whether the partition half keeps a partition.
func (k Keep) KeepsPart(chrom string, minStart, maxStop int64) bool {
	return k.Part == nil || k.Part(chrom, minStart, maxStop)
}

// PruneStats accounts one pruned dataset read: how many samples the metadata
// half skipped, how many (sample, chromosome) partitions of the rest the zone
// maps consulted and how many they proved irrelevant — whose regions and
// payload bytes were therefore never read. It is the realized counterpart of
// the engine's prunable-opportunity accounting.
type PruneStats struct {
	// SkippedSamples were rejected by their metadata: their images were
	// never opened, so their partitions are not consulted.
	SkippedSamples int `json:"skipped_samples"`
	// Parts is the number of partitions consulted.
	Parts int `json:"parts"`
	// SkippedParts of them were skipped without reading a payload byte.
	SkippedParts int `json:"skipped_parts"`
	// SkippedRegions and SkippedBytes total the skipped partitions' declared
	// region counts and payload byte extents.
	SkippedRegions int64 `json:"skipped_regions"`
	SkippedBytes   int64 `json:"skipped_bytes"`
}

// Add folds another read's accounting into this one.
func (p *PruneStats) Add(o PruneStats) {
	p.SkippedSamples += o.SkippedSamples
	p.Parts += o.Parts
	p.SkippedParts += o.SkippedParts
	p.SkippedRegions += o.SkippedRegions
	p.SkippedBytes += o.SkippedBytes
}

// ChromStats is one (sample, chromosome) partition: the zone-map cell. A
// pruning storage engine would store regions partitioned this way and skip
// whole cells whose [MinStart, MaxStop) window cannot intersect a query's
// coordinate window.
type ChromStats struct {
	Chrom string `json:"chrom"`
	// Regions is the partition's region count.
	Regions int `json:"regions"`
	// MinStart and MaxStop bound every region in the partition:
	// MinStart <= r.Start and r.Stop <= MaxStop.
	MinStart int64 `json:"min_start"`
	MaxStop  int64 `json:"max_stop"`
	// Bytes estimates the partition's serialized (native text) size.
	Bytes int64 `json:"bytes"`
}

// SampleStats aggregates one sample's partitions.
type SampleStats struct {
	ID string `json:"id"`
	// MetaAttrs is the number of metadata attributes the sample carries.
	MetaAttrs int `json:"meta_attrs"`
	// Chroms are the sample's partitions in canonical (chromosome) order.
	Chroms []ChromStats `json:"chroms,omitempty"`
}

// Regions totals the sample's region count.
func (ss *SampleStats) Regions() int {
	n := 0
	for i := range ss.Chroms {
		n += ss.Chroms[i].Regions
	}
	return n
}

// Bytes totals the sample's estimated serialized size.
func (ss *SampleStats) Bytes() int64 {
	var n int64
	for i := range ss.Chroms {
		n += ss.Chroms[i].Bytes
	}
	return n
}

// DatasetStats is the versioned stats block: a member persists it as its
// stats.json file (which the manifest checksums like any other), keyed by the
// dataset content digest so a reader can tell whether the block describes the
// data it sits beside.
type DatasetStats struct {
	Version int `json:"version"`
	// Digest is the gdm content digest of the dataset the stats were
	// computed from. A block whose digest differs from its manifest's is
	// stale (hand-edited or written by a buggy tool) and readers rescan.
	Digest string `json:"digest"`
	// AttrArity is the number of region schema attributes.
	AttrArity int `json:"attr_arity"`
	// Samples are the per-sample partition stats, in dataset sample order.
	Samples []SampleStats `json:"samples"`
}

// Totals sums the block: sample count, region count, estimated bytes.
func (st *DatasetStats) Totals() (samples, regions int, bytes int64) {
	if st == nil {
		return 0, 0, 0
	}
	for i := range st.Samples {
		regions += st.Samples[i].Regions()
		bytes += st.Samples[i].Bytes()
	}
	return len(st.Samples), regions, bytes
}

// ChromTotal is one per-chromosome aggregate across a dataset's samples —
// the repository console's histogram row.
type ChromTotal struct {
	Chrom    string `json:"chrom"`
	Regions  int    `json:"regions"`
	Samples  int    `json:"samples"` // samples with at least one region there
	MinStart int64  `json:"min_start"`
	MaxStop  int64  `json:"max_stop"`
	Bytes    int64  `json:"bytes"`
}

// ChromTotals merges the block's partitions by chromosome.
func (st *DatasetStats) ChromTotals() []ChromTotal {
	if st == nil {
		return nil
	}
	byChrom := make(map[string]*ChromTotal)
	for i := range st.Samples {
		for _, cs := range st.Samples[i].Chroms {
			t := byChrom[cs.Chrom]
			if t == nil {
				t = &ChromTotal{Chrom: cs.Chrom, MinStart: cs.MinStart, MaxStop: cs.MaxStop}
				byChrom[cs.Chrom] = t
			}
			t.Regions += cs.Regions
			t.Samples++
			t.Bytes += cs.Bytes
			if cs.MinStart < t.MinStart {
				t.MinStart = cs.MinStart
			}
			if cs.MaxStop > t.MaxStop {
				t.MaxStop = cs.MaxStop
			}
		}
	}
	out := make([]ChromTotal, 0, len(byChrom))
	for _, t := range byChrom {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Chrom < out[j].Chrom })
	return out
}

// ComputeSample scans one sample into its partition stats: one pass over the
// regions, grouping by chromosome. Canonically sorted samples produce one
// contiguous run per chromosome; unsorted input (hand-built tests, hostile
// files) still folds correctly because repeats merge into the existing cell.
func ComputeSample(s *gdm.Sample) SampleStats {
	ss := SampleStats{ID: s.ID, MetaAttrs: len(s.Meta.Attrs())}
	idx := -1 // index into ss.Chroms of the run currently being extended
	for i := range s.Regions {
		r := &s.Regions[i]
		if idx < 0 || ss.Chroms[idx].Chrom != r.Chrom {
			idx = -1
			for j := range ss.Chroms {
				if ss.Chroms[j].Chrom == r.Chrom {
					idx = j
					break
				}
			}
			if idx < 0 {
				ss.Chroms = append(ss.Chroms, ChromStats{
					Chrom: r.Chrom, MinStart: r.Start, MaxStop: r.Stop,
				})
				idx = len(ss.Chroms) - 1
			}
		}
		cs := &ss.Chroms[idx]
		cs.Regions++
		if r.Start < cs.MinStart {
			cs.MinStart = r.Start
		}
		if r.Stop > cs.MaxStop {
			cs.MaxStop = r.Stop
		}
		cs.Bytes += regionBytes(s.ID, r, s.Row(i))
	}
	sort.Slice(ss.Chroms, func(i, j int) bool { return ss.Chroms[i].Chrom < ss.Chroms[j].Chrom })
	return ss
}

// regionBytes estimates one region's serialized native-text size, mirroring
// gdm.Dataset.EstimateBytes so per-chromosome bytes sum to the same order.
func regionBytes(id string, r *gdm.Region, row []gdm.Value) int64 {
	n := int64(len(id) + len(r.Chrom) + 2 + digits(r.Start) + digits(r.Stop) + 1 + 4)
	for _, v := range row {
		n += int64(len(v.String()) + 1)
	}
	return n
}

func digits(v int64) int {
	if v < 0 {
		return digits(-v) + 1
	}
	n := 1
	for v >= 10 {
		v /= 10
		n++
	}
	return n
}

// Compute scans a whole dataset into a stats block. Digest is left empty —
// callers that know the content digest (the write path computes it for the
// manifest anyway) fill it in; the lazy-scan path computes it alongside.
func Compute(ds *gdm.Dataset) *DatasetStats {
	st := &DatasetStats{Version: StatsVersion, AttrArity: ds.Schema.Len()}
	st.Samples = make([]SampleStats, 0, len(ds.Samples))
	for _, s := range ds.Samples {
		st.Samples = append(st.Samples, ComputeSample(s))
	}
	return st
}
