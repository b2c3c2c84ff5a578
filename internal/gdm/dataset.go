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
//
// Values is the sample's value slab, row-major: region i's attribute values
// are Values[i*arity:(i+1)*arity] for the dataset schema's arity (Dataset.Add
// and Validate check the length); Row reads one row.
type Sample struct {
	ID      string
	Meta    *Metadata
	Regions []Region
	Values  []Value
}

// NewSample builds an empty sample with the given ID.
func NewSample(id string) *Sample {
	return &Sample{ID: id, Meta: NewMetadata()}
}

// AddRegion appends a region and its row of attribute values, in any order;
// SortRegions restores the canonical order before operators use the sample.
func (s *Sample) AddRegion(r Region, values ...Value) {
	s.Regions = append(s.Regions, r)
	s.Values = append(s.Values, values...)
}

// Row returns region i's attribute values. The window is capacity-limited to
// the row, so appending to it copies instead of writing into row i+1.
func (s *Sample) Row(i int) []Value {
	w := len(s.Values) / len(s.Regions)
	return s.Values[i*w : (i+1)*w : (i+1)*w]
}

// Gather returns the regions at idx, in that order, with their rows: new
// exact-size slices, nil when idx is empty.
func (s *Sample) Gather(idx []int32) ([]Region, []Value) {
	if len(idx) == 0 {
		return nil, nil
	}
	w := len(s.Values) / len(s.Regions)
	regions, values := make([]Region, len(idx)), make([]Value, 0, len(idx)*w)
	for i, ri := range idx {
		regions[i] = s.Regions[ri]
		values = append(values, s.Values[int(ri)*w:int(ri+1)*w]...)
	}
	return regions, values
}

// SortOrder returns the permutation that sorts regions into canonical GDM
// order, stably, or nil when they are sorted already.
func SortOrder(regions []Region) []int32 {
	if regionsSorted(regions) {
		return nil
	}
	return Permutation(len(regions), func(a, b int32) int { return compareRegions(&regions[a], &regions[b]) })
}

// Permutation returns the indexes 0..n-1 stably sorted by cmp.
func Permutation(n int, cmp func(a, b int32) int) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortStableFunc(perm, cmp)
	return perm
}

// SortRegions sorts the sample's regions and rows into canonical GDM order,
// stably: a permutation, then one gather into new slices. Operators emit
// canonical order already, so the usual call only checks.
func (s *Sample) SortRegions() {
	if perm := SortOrder(s.Regions); perm != nil {
		s.Regions, s.Values = s.Gather(perm)
	}
}

// RegionsSorted reports whether the regions are in canonical order.
func (s *Sample) RegionsSorted() bool { return regionsSorted(s.Regions) }

func regionsSorted(regions []Region) bool {
	for i := 1; i < len(regions); i++ {
		if compareRegions(&regions[i-1], &regions[i]) > 0 {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the sample.
func (s *Sample) Clone() *Sample {
	return &Sample{ID: s.ID, Meta: s.Meta.Clone(), Regions: slices.Clone(s.Regions), Values: slices.Clone(s.Values)}
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
// it: nobody writes to its samples, their metadata, their Regions or their
// Values afterwards. Operators rely on that to share storage instead of
// copying it — MAP's output samples hold their reference sample's Regions, a
// SELECT that keeps every region, a UNION of equal layouts and every
// published query result hold the very Regions and Values slices of their
// inputs, down to the catalog's — so a write through one dataset would
// corrupt others. Code that needs to change a dataset takes a Clone first.
// What a holder may always do is build new Sample and Dataset headers over
// shared slices, and append to a row that Sample.Row returned: the row is
// capacity-limited, so an append copies rather than running into the next
// region's values.
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
	if err := d.checkRows(s, true); err != nil {
		return err
	}
	d.Samples = append(d.Samples, s)
	return nil
}

// checkRows checks a sample's coordinates and value slab against the
// schema: one row of its arity per region, each value null or of its
// field's kind — or, with coerce, coercible to it, which then replaces it.
func (d *Dataset) checkRows(s *Sample, coerce bool) error {
	for i := range s.Regions {
		if err := s.Regions[i].Validate(); err != nil {
			return fmt.Errorf("gdm: dataset %s sample %s: %w", d.Name, s.ID, err)
		}
	}
	w := d.Schema.Len()
	if len(s.Values) != len(s.Regions)*w {
		return fmt.Errorf("gdm: dataset %s sample %s: %d values for %d regions, schema %s has %d",
			d.Name, s.ID, len(s.Values), len(s.Regions), d.Schema, w)
	}
	for i, v := range s.Values {
		f := d.Schema.Field(i % w)
		if v.IsNull() || v.Kind() == f.Type {
			continue
		}
		if !coerce {
			return fmt.Errorf("gdm: dataset %s sample %s: attribute %q holds %s, schema says %s",
				d.Name, s.ID, f.Name, v.Kind(), f.Type)
		}
		cv, err := v.Coerce(f.Type)
		if err != nil {
			return fmt.Errorf("gdm: dataset %s sample %s: attribute %q: %w", d.Name, s.ID, f.Name, err)
		}
		s.Values[i] = cv
	}
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
		if err := d.checkRows(s, false); err != nil {
			return err
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
		}
		for _, v := range s.Values {
			total += int64(len(v.String()) + 1)
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
