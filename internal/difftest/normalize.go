package difftest

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"genogo/internal/gdm"
)

// DefaultTolerance is the float comparison tolerance of the oracle: wide
// enough to absorb accumulation-order differences of parallel float
// aggregation (and JSON round-trips over the federation wire), tight enough
// that any real semantic drift — an off-by-one boundary, a dropped region —
// is orders of magnitude outside it.
const DefaultTolerance = 1e-9

// Diff compares two materialized results after canonical normalization and
// returns "" when they are equivalent, or a description of the first
// difference found. Normalization rules:
//
//   - dataset Name is ignored (it carries the materialization target);
//   - samples are compared in canonical order (gdm sorts samples by ID, and
//     IDs derive deterministically from the plan, not from scheduling);
//   - metadata is compared as a per-sample multiset of (attr, value) pairs,
//     with numeric values compared under the tolerance;
//   - region coordinates, strand, and chromosome are exact; Int/String/Bool
//     attribute values are exact; Float values compare under the tolerance.
//
// Both datasets are cloned before normalization; the inputs are not mutated.
func Diff(oracle, got *gdm.Dataset, tol float64) string {
	if tol <= 0 {
		tol = DefaultTolerance
	}
	a := oracle.Clone()
	b := got.Clone()
	a.SortRegions()
	b.SortRegions()
	if msg := diffSchemas(a.Schema, b.Schema); msg != "" {
		return msg
	}
	if len(a.Samples) != len(b.Samples) {
		return fmt.Sprintf("sample count: oracle has %d, got %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if msg := diffSamples(a.Samples[i], b.Samples[i], a.Schema, tol); msg != "" {
			return fmt.Sprintf("sample %d (%s): %s", i, a.Samples[i].ID, msg)
		}
	}
	return ""
}

func diffSchemas(a, b *gdm.Schema) string {
	if a.Len() != b.Len() {
		return fmt.Sprintf("schema width: oracle %s, got %s", a, b)
	}
	for i := 0; i < a.Len(); i++ {
		fa, fb := a.Field(i), b.Field(i)
		if fa.Name != fb.Name || fa.Type != fb.Type {
			return fmt.Sprintf("schema field %d: oracle %s:%s, got %s:%s",
				i, fa.Name, fa.Type, fb.Name, fb.Type)
		}
	}
	return ""
}

func diffSamples(a, b *gdm.Sample, schema *gdm.Schema, tol float64) string {
	if a.ID != b.ID {
		return fmt.Sprintf("sample ID: oracle %q, got %q", a.ID, b.ID)
	}
	if msg := diffMeta(a.Meta, b.Meta, tol); msg != "" {
		return msg
	}
	if len(a.Regions) != len(b.Regions) {
		return fmt.Sprintf("region count: oracle %d, got %d", len(a.Regions), len(b.Regions))
	}
	if len(a.Values) != len(b.Values) {
		return fmt.Sprintf("value count: oracle %d, got %d", len(a.Values), len(b.Values))
	}
	for ri := range a.Regions {
		ra, rb := &a.Regions[ri], &b.Regions[ri]
		if ra.Chrom != rb.Chrom || ra.Start != rb.Start || ra.Stop != rb.Stop || ra.Strand != rb.Strand {
			return fmt.Sprintf("region %d coordinates: oracle %s:%d-%d/%v, got %s:%d-%d/%v",
				ri, ra.Chrom, ra.Start, ra.Stop, ra.Strand, rb.Chrom, rb.Start, rb.Stop, rb.Strand)
		}
		va, vb := a.Row(ri), b.Row(ri)
		for vi := range va {
			if !valuesEqual(va[vi], vb[vi], tol) {
				name := fmt.Sprintf("#%d", vi)
				if vi < schema.Len() {
					name = schema.Field(vi).Name
				}
				return fmt.Sprintf("region %d (%s:%d-%d) attribute %s: oracle %v, got %v",
					ri, ra.Chrom, ra.Start, ra.Stop, name, va[vi], vb[vi])
			}
		}
	}
	return ""
}

// diffMeta compares metadata as multisets of (attr, value) pairs.
// Metadata.Pairs returns pairs sorted by attribute then value, so multiset
// equality is positional equality of the pair lists — except that numeric
// values (aggregate results like an AVG rendered to a string) compare under
// the tolerance.
func diffMeta(a, b *gdm.Metadata, tol float64) string {
	pa, pb := a.Pairs(), b.Pairs()
	if len(pa) != len(pb) {
		return fmt.Sprintf("metadata pair count: oracle %d, got %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i][0] != pb[i][0] {
			return fmt.Sprintf("metadata attr: oracle %q, got %q", pa[i][0], pb[i][0])
		}
		if pa[i][1] == pb[i][1] {
			continue
		}
		fa, errA := strconv.ParseFloat(strings.TrimSpace(pa[i][1]), 64)
		fb, errB := strconv.ParseFloat(strings.TrimSpace(pb[i][1]), 64)
		if errA == nil && errB == nil && floatsClose(fa, fb, tol) {
			continue
		}
		return fmt.Sprintf("metadata %s: oracle %q, got %q", pa[i][0], pa[i][1], pb[i][1])
	}
	return ""
}

func valuesEqual(a, b gdm.Value, tol float64) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case gdm.KindFloat:
		return floatsClose(a.Float(), b.Float(), tol)
	case gdm.KindInt:
		return a.Int() == b.Int()
	case gdm.KindBool:
		return a.Bool() == b.Bool()
	default:
		return a.Str() == b.Str()
	}
}

// floatsClose applies a combined absolute/relative tolerance. NaNs compare
// equal to each other (an aggregate over no parseable values is NaN in every
// backend).
func floatsClose(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}
