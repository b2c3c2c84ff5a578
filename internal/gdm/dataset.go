package gdm

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
)

// Sample pairs the regions produced by one NGS experiment with the metadata
// of the biological sample. The ID provides the many-to-many connection
// between regions and metadata described in Section 2 of the paper.
type Sample struct {
	ID      string
	Meta    *Metadata
	Regions []Region
}

// NewSample builds an empty sample with the given ID.
func NewSample(id string) *Sample {
	return &Sample{ID: id, Meta: NewMetadata()}
}

// AddRegion appends a region to the sample. Regions may be appended in any
// order; Dataset.SortRegions (or Sample.SortRegions) restores the canonical
// order before the sample is used by operators.
func (s *Sample) AddRegion(r Region) { s.Regions = append(s.Regions, r) }

// SortRegions sorts the sample's regions into canonical GDM order, stably.
// Operators emit canonical order already, so the usual call only checks.
func (s *Sample) SortRegions() {
	if s.RegionsSorted() {
		return
	}
	// In place, so an unsorted sample costs no second copy of its regions.
	// The sort still hands each comparison two Regions by value; sorting a
	// slice of pointers instead would avoid that at the price of that copy.
	slices.SortStableFunc(s.Regions, func(a, b Region) int { return compareRegions(&a, &b) })
}

// RegionsSorted reports whether the regions are in canonical order.
func (s *Sample) RegionsSorted() bool {
	for i := 1; i < len(s.Regions); i++ {
		if compareRegions(&s.Regions[i-1], &s.Regions[i]) > 0 {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the sample.
func (s *Sample) Clone() *Sample {
	out := &Sample{ID: s.ID, Meta: s.Meta.Clone(), Regions: make([]Region, len(s.Regions))}
	for i, r := range s.Regions {
		out.Regions[i] = r.CloneValues()
	}
	return out
}

// ChromRange returns the half-open index range [lo,hi) of the sample's
// regions lying on the given chromosome, assuming canonical sort order.
func (s *Sample) ChromRange(chrom string) (int, int) {
	lo := sort.Search(len(s.Regions), func(i int) bool {
		return CompareChrom(s.Regions[i].Chrom, chrom) >= 0
	})
	hi := sort.Search(len(s.Regions), func(i int) bool {
		return CompareChrom(s.Regions[i].Chrom, chrom) > 0
	})
	return lo, hi
}

// Chroms returns the distinct chromosomes of the sample in canonical order,
// assuming canonical region order.
func (s *Sample) Chroms() []string {
	var out []string
	for i := 0; i < len(s.Regions); {
		c := s.Regions[i].Chrom
		out = append(out, c)
		for i < len(s.Regions) && s.Regions[i].Chrom == c {
			i++
		}
	}
	return out
}

// Dataset is a named collection of samples whose regions share one schema —
// the GDM constraint that makes a dataset queryable as a unit.
//
// A dataset is immutable once an operator, a catalog or a Runner has returned
// it: nobody writes to its samples, their metadata, their Regions or any
// region's Values afterwards. Operators rely on that to share storage instead
// of copying it — a SELECT without a region predicate, a UNION of equal
// layouts and every published query result hold the very Regions slices of
// their inputs, down to the catalog's — so a write through one dataset would
// corrupt others. Code that needs to change a dataset takes a Clone first.
// What a holder may always do is build new Sample and Dataset headers over
// shared regions, and append to a region's Values: operators cut Values out
// of per-sample slabs as capacity-limited windows, so an append copies rather
// than running into the next region's values.
type Dataset struct {
	Name    string
	Schema  *Schema
	Samples []*Sample
}

// NewDataset builds an empty dataset with the given name and schema. A nil
// schema is normalized to the empty schema.
func NewDataset(name string, schema *Schema) *Dataset {
	if schema == nil {
		schema = MustSchema()
	}
	return &Dataset{Name: name, Schema: schema}
}

// Add validates the sample against the dataset schema and appends it.
func (d *Dataset) Add(s *Sample) error {
	if s.ID == "" {
		return fmt.Errorf("gdm: dataset %s: sample with empty ID", d.Name)
	}
	for i := range s.Regions {
		if err := s.Regions[i].Validate(); err != nil {
			return fmt.Errorf("gdm: dataset %s sample %s: %w", d.Name, s.ID, err)
		}
		if len(s.Regions[i].Values) != d.Schema.Len() {
			return fmt.Errorf("gdm: dataset %s sample %s: region %s has %d values, schema %s has %d",
				d.Name, s.ID, s.Regions[i], len(s.Regions[i].Values), d.Schema, d.Schema.Len())
		}
		for j, v := range s.Regions[i].Values {
			want := d.Schema.Field(j).Type
			if !v.IsNull() && v.Kind() != want {
				cv, err := v.Coerce(want)
				if err != nil {
					return fmt.Errorf("gdm: dataset %s sample %s: attribute %q: %w",
						d.Name, s.ID, d.Schema.Field(j).Name, err)
				}
				s.Regions[i].Values[j] = cv
			}
		}
	}
	d.Samples = append(d.Samples, s)
	return nil
}

// MustAdd is Add for construction code that controls its inputs.
func (d *Dataset) MustAdd(s *Sample) {
	if err := d.Add(s); err != nil {
		panic(err)
	}
}

// Sample returns the sample with the given ID, or nil.
func (d *Dataset) Sample(id string) *Sample {
	for _, s := range d.Samples {
		if s.ID == id {
			return s
		}
	}
	return nil
}

// NumRegions returns the total region count across samples.
func (d *Dataset) NumRegions() int {
	n := 0
	for _, s := range d.Samples {
		n += len(s.Regions)
	}
	return n
}

// SortRegions restores the canonical region order in every sample and sorts
// samples by ID, making the dataset deterministic for comparison and IO.
func (d *Dataset) SortRegions() {
	for _, s := range d.Samples {
		s.SortRegions()
	}
	sort.SliceStable(d.Samples, func(i, j int) bool { return d.Samples[i].ID < d.Samples[j].ID })
}

// Validate checks the dataset invariants: unique sample IDs, coordinate
// sanity, value arity/kinds and canonical region order.
func (d *Dataset) Validate() error {
	seen := make(map[string]bool, len(d.Samples))
	for _, s := range d.Samples {
		if s.ID == "" {
			return fmt.Errorf("gdm: dataset %s: sample with empty ID", d.Name)
		}
		if seen[s.ID] {
			return fmt.Errorf("gdm: dataset %s: duplicate sample ID %q", d.Name, s.ID)
		}
		seen[s.ID] = true
		if !s.RegionsSorted() {
			return fmt.Errorf("gdm: dataset %s sample %s: regions not in canonical order", d.Name, s.ID)
		}
		for i := range s.Regions {
			if err := s.Regions[i].Validate(); err != nil {
				return fmt.Errorf("gdm: dataset %s sample %s: %w", d.Name, s.ID, err)
			}
			if len(s.Regions[i].Values) != d.Schema.Len() {
				return fmt.Errorf("gdm: dataset %s sample %s: region value arity %d != schema arity %d",
					d.Name, s.ID, len(s.Regions[i].Values), d.Schema.Len())
			}
			for j, v := range s.Regions[i].Values {
				if !v.IsNull() && v.Kind() != d.Schema.Field(j).Type {
					return fmt.Errorf("gdm: dataset %s sample %s: attribute %q holds %s, schema says %s",
						d.Name, s.ID, d.Schema.Field(j).Name, v.Kind(), d.Schema.Field(j).Type)
				}
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the dataset (schemas are immutable and
// shared).
func (d *Dataset) Clone() *Dataset {
	out := NewDataset(d.Name, d.Schema)
	out.Samples = make([]*Sample, len(d.Samples))
	for i, s := range d.Samples {
		out.Samples[i] = s.Clone()
	}
	return out
}

// String summarizes the dataset for logs.
func (d *Dataset) String() string {
	return fmt.Sprintf("dataset %s: %d samples, %d regions, schema %s",
		d.Name, len(d.Samples), d.NumRegions(), d.Schema)
}

// DeriveID deterministically derives a result sample ID from the IDs of the
// samples that contributed to it — the provenance-tracing mechanism the
// paper highlights ("knowing why resulting regions were produced"). The same
// parents always produce the same ID, so reruns are stable.
func DeriveID(op string, parents ...string) string {
	h := fnv.New64a()
	h.Write([]byte(op))
	for _, p := range parents {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	return fmt.Sprintf("%s-%016x", strings.ToLower(op), h.Sum64())
}

// EstimateBytes estimates the serialized size of the dataset in the native
// GDM text format, used by the federation protocol's compile-time result
// size estimates and by the headline-experiment extrapolation.
func (d *Dataset) EstimateBytes() int64 {
	var total int64
	for _, s := range d.Samples {
		for _, p := range s.Meta.Pairs() {
			total += int64(len(s.ID) + len(p[0]) + len(p[1]) + 3)
		}
		for i := range s.Regions {
			r := &s.Regions[i]
			total += int64(len(s.ID) + len(r.Chrom) + 2 + digits(r.Start) + digits(r.Stop) + 1 + 4)
			for _, v := range r.Values {
				total += int64(len(v.String()) + 1)
			}
		}
	}
	return total
}

func digits(v int64) int {
	if v <= 0 {
		return 1
	}
	n := 0
	for v > 0 {
		n++
		v /= 10
	}
	return n
}
