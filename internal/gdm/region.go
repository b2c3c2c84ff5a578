package gdm

import (
	"fmt"
	"strings"
)

// Strand is the DNA strand a region was read on: "+", "-" or "*" when the
// region is not stranded (Fig. 2 of the paper).
type Strand int8

// Strand values. The zero value is the unstranded "*".
const (
	StrandNone  Strand = 0
	StrandPlus  Strand = 1
	StrandMinus Strand = -1
)

// String renders the strand as in BED-like formats.
func (s Strand) String() string {
	switch s {
	case StrandPlus:
		return "+"
	case StrandMinus:
		return "-"
	default:
		return "*"
	}
}

// ParseStrand reads a strand symbol; "." and "" are accepted as unstranded.
func ParseStrand(s string) (Strand, error) {
	switch strings.TrimSpace(s) {
	case "+":
		return StrandPlus, nil
	case "-":
		return StrandMinus, nil
	case "*", ".", "":
		return StrandNone, nil
	default:
		return StrandNone, fmt.Errorf("gdm: bad strand %q", s)
	}
}

// Compatible reports whether two strands can be considered the same region
// orientation: an unstranded region matches both orientations, following the
// GMQL convention for strand-aware operations.
func (s Strand) Compatible(o Strand) bool {
	return s == StrandNone || o == StrandNone || s == o
}

// Region is a genomic region: the fixed coordinate attributes of the GDM
// schema (chromosome, left end, right end, strand). The variable typed
// attributes produced by the calling process are not part of it: they live in
// the sample's value slab (Sample.Values), one row per region, positionally
// against the dataset schema.
//
// Coordinates follow the UCSC half-open convention: Start is 0-based
// inclusive, Stop is exclusive, so Length = Stop - Start and two regions
// touch without overlapping when one's Stop equals the other's Start.
type Region struct {
	Chrom  string
	Start  int64
	Stop   int64
	Strand Strand
}

// NewRegion builds a region with the given coordinates.
func NewRegion(chrom string, start, stop int64, strand Strand) Region {
	return Region{Chrom: chrom, Start: start, Stop: stop, Strand: strand}
}

// Length returns the number of bases covered by the region.
func (r Region) Length() int64 { return r.Stop - r.Start }

// Center returns the midpoint coordinate of the region (rounded down).
func (r Region) Center() int64 { return (r.Start + r.Stop) / 2 }

// Overlaps reports whether r and o share at least one base on the same
// chromosome with compatible strands.
func (r Region) Overlaps(o Region) bool {
	return r.Chrom == o.Chrom && r.Start < o.Stop && o.Start < r.Stop &&
		r.Strand.Compatible(o.Strand)
}

// Contains reports whether r fully contains o.
func (r Region) Contains(o Region) bool {
	return r.Chrom == o.Chrom && r.Start <= o.Start && o.Stop <= r.Stop &&
		r.Strand.Compatible(o.Strand)
}

// Distance returns the genometric distance between two regions on the same
// chromosome: the number of bases between their closest ends, 0 if they touch
// and negative (minus the overlap width) if they overlap, following the GMQL
// definition used by genometric JOIN clauses. ok is false when the regions
// lie on different chromosomes, where distance is undefined.
func (r Region) Distance(o Region) (int64, bool) {
	if r.Chrom != o.Chrom {
		return 0, false
	}
	switch {
	case r.Stop <= o.Start:
		return o.Start - r.Stop, true
	case o.Stop <= r.Start:
		return r.Start - o.Stop, true
	default: // overlap: negative distance, magnitude = overlap width
		left := max64(r.Start, o.Start)
		right := min64(r.Stop, o.Stop)
		return -(right - left), true
	}
}

// Upstream reports whether o lies upstream of r with respect to r's strand
// (before r's 5' end). For unstranded r the + orientation is assumed, per
// GMQL convention.
func (r Region) Upstream(o Region) bool {
	if r.Chrom != o.Chrom {
		return false
	}
	if r.Strand == StrandMinus {
		return o.Start >= r.Stop
	}
	return o.Stop <= r.Start
}

// Downstream reports whether o lies downstream of r with respect to r's
// strand (after r's 3' end).
func (r Region) Downstream(o Region) bool {
	if r.Chrom != o.Chrom {
		return false
	}
	if r.Strand == StrandMinus {
		return o.Stop <= r.Start
	}
	return o.Start >= r.Stop
}

// CompareRegions orders regions by (chromosome, start, stop, strand) — the
// canonical GDM sort order every dataset maintains. Chromosomes are compared
// in natural genomic order (chr1 < chr2 < chr10 < chrX < chrY < chrM).
func CompareRegions(a, b Region) int { return compareRegions(&a, &b) }

// compareRegions is CompareRegions without copying the two 40-byte structs,
// for the sort and the sortedness check that call it per region.
func compareRegions(a, b *Region) int {
	// Neighbours in a sorted sample almost always share the chromosome.
	if a.Chrom != b.Chrom {
		if c := CompareChrom(a.Chrom, b.Chrom); c != 0 {
			return c
		}
	}
	switch {
	case a.Start < b.Start:
		return -1
	case a.Start > b.Start:
		return 1
	}
	switch {
	case a.Stop < b.Stop:
		return -1
	case a.Stop > b.Stop:
		return 1
	}
	switch {
	case a.Strand < b.Strand:
		return -1
	case a.Strand > b.Strand:
		return 1
	}
	return 0
}

// CompareChrom orders chromosome names in natural genomic order: numeric
// suffixes compare as numbers (chr2 < chr10), then X < Y < M, then any other
// name lexicographically. Both "chrN" and bare "N" spellings are understood.
func CompareChrom(a, b string) int {
	ra, na := chromRank(a)
	rb, nb := chromRank(b)
	switch {
	case ra < rb:
		return -1
	case ra > rb:
		return 1
	}
	return strings.Compare(na, nb)
}

// chromRank maps a chromosome name to a sortable rank; names that do not
// follow the chrN/X/Y/M convention get rank 1000 and sort lexicographically
// after the conventional ones via the returned normalized name.
func chromRank(name string) (int, string) {
	s := strings.TrimPrefix(name, "chr")
	switch s {
	case "X", "x":
		return 100, ""
	case "Y", "y":
		return 101, ""
	case "M", "MT", "m", "mt":
		return 102, ""
	}
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 1000, s
		}
		n = n*10 + int(c-'0')
		if n > 99 {
			return 1000, s
		}
	}
	if len(s) == 0 {
		return 1000, s
	}
	return n, ""
}

// String renders the region as "chrom:start-stop(strand)", a compact form
// used in logs and error messages.
func (r Region) String() string {
	return fmt.Sprintf("%s:%d-%d(%s)", r.Chrom, r.Start, r.Stop, r.Strand)
}

// Validate checks the basic coordinate sanity of the region.
func (r Region) Validate() error {
	if r.Chrom == "" {
		return fmt.Errorf("gdm: region with empty chromosome")
	}
	if r.Start < 0 {
		return fmt.Errorf("gdm: region %s: negative start", r)
	}
	if r.Stop < r.Start {
		return fmt.Errorf("gdm: region %s: stop before start", r)
	}
	return nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
