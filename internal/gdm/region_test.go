package gdm

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestStrand(t *testing.T) {
	for in, want := range map[string]Strand{
		"+": StrandPlus, "-": StrandMinus, "*": StrandNone, ".": StrandNone, "": StrandNone, " + ": StrandPlus,
	} {
		got, err := ParseStrand(in)
		if err != nil || got != want {
			t.Errorf("ParseStrand(%q) = %v,%v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseStrand("x"); err == nil {
		t.Error("ParseStrand(x) succeeded")
	}
	if StrandPlus.String() != "+" || StrandMinus.String() != "-" || StrandNone.String() != "*" {
		t.Error("Strand.String mismatch")
	}
}

func TestStrandCompatible(t *testing.T) {
	if !StrandNone.Compatible(StrandPlus) || !StrandPlus.Compatible(StrandNone) {
		t.Error("unstranded must be compatible with both")
	}
	if !StrandPlus.Compatible(StrandPlus) {
		t.Error("+ vs + must be compatible")
	}
	if StrandPlus.Compatible(StrandMinus) {
		t.Error("+ vs - must not be compatible")
	}
}

func TestRegionBasics(t *testing.T) {
	r := NewRegion("chr1", 100, 200, StrandPlus)
	if r.Length() != 100 {
		t.Errorf("Length = %d", r.Length())
	}
	if r.Center() != 150 {
		t.Errorf("Center = %d", r.Center())
	}
	if got := r.String(); got != "chr1:100-200(+)" {
		t.Errorf("String = %q", got)
	}
}

func TestRegionOverlaps(t *testing.T) {
	a := NewRegion("chr1", 100, 200, StrandNone)
	cases := []struct {
		b    Region
		want bool
	}{
		{NewRegion("chr1", 150, 250, StrandNone), true},
		{NewRegion("chr1", 199, 300, StrandNone), true},
		{NewRegion("chr1", 200, 300, StrandNone), false}, // touching, half-open
		{NewRegion("chr1", 0, 100, StrandNone), false},
		{NewRegion("chr2", 100, 200, StrandNone), false},
		{NewRegion("chr1", 0, 101, StrandNone), true},
		{NewRegion("chr1", 120, 130, StrandMinus), true}, // unstranded vs -
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(a); got != c.want {
			t.Errorf("overlap not symmetric for %v, %v", a, c.b)
		}
	}
	p := NewRegion("chr1", 100, 200, StrandPlus)
	m := NewRegion("chr1", 100, 200, StrandMinus)
	if p.Overlaps(m) {
		t.Error("opposite strands must not overlap")
	}
}

func TestRegionContains(t *testing.T) {
	outer := NewRegion("chr1", 100, 200, StrandNone)
	if !outer.Contains(NewRegion("chr1", 100, 200, StrandNone)) {
		t.Error("region must contain itself")
	}
	if !outer.Contains(NewRegion("chr1", 150, 180, StrandPlus)) {
		t.Error("contains inner failed")
	}
	if outer.Contains(NewRegion("chr1", 50, 150, StrandNone)) {
		t.Error("contains partial overlap")
	}
}

func TestRegionDistance(t *testing.T) {
	a := NewRegion("chr1", 100, 200, StrandNone)
	cases := []struct {
		b    Region
		want int64
	}{
		{NewRegion("chr1", 300, 400, StrandNone), 100},
		{NewRegion("chr1", 200, 300, StrandNone), 0},   // touching
		{NewRegion("chr1", 0, 100, StrandNone), 0},     // touching on the left
		{NewRegion("chr1", 0, 50, StrandNone), 50},     // left gap
		{NewRegion("chr1", 150, 300, StrandNone), -50}, // overlap of 50
		{NewRegion("chr1", 100, 200, StrandNone), -100},
	}
	for _, c := range cases {
		got, ok := a.Distance(c.b)
		if !ok || got != c.want {
			t.Errorf("Distance(%v,%v) = %d,%v; want %d", a, c.b, got, ok, c.want)
		}
		rev, _ := c.b.Distance(a)
		if rev != got {
			t.Errorf("distance not symmetric for %v,%v: %d vs %d", a, c.b, got, rev)
		}
	}
	if _, ok := a.Distance(NewRegion("chr2", 0, 1, StrandNone)); ok {
		t.Error("cross-chromosome distance defined")
	}
}

func TestUpstreamDownstream(t *testing.T) {
	plus := NewRegion("chr1", 1000, 2000, StrandPlus)
	before := NewRegion("chr1", 0, 500, StrandNone)
	after := NewRegion("chr1", 3000, 4000, StrandNone)
	if !plus.Upstream(before) || plus.Upstream(after) {
		t.Error("+ strand upstream wrong")
	}
	if !plus.Downstream(after) || plus.Downstream(before) {
		t.Error("+ strand downstream wrong")
	}
	minus := NewRegion("chr1", 1000, 2000, StrandMinus)
	if !minus.Upstream(after) || minus.Upstream(before) {
		t.Error("- strand upstream wrong")
	}
	if !minus.Downstream(before) || minus.Downstream(after) {
		t.Error("- strand downstream wrong")
	}
	none := NewRegion("chr1", 1000, 2000, StrandNone)
	if !none.Upstream(before) {
		t.Error("unstranded defaults to + orientation")
	}
	other := NewRegion("chr2", 0, 1, StrandNone)
	if plus.Upstream(other) || plus.Downstream(other) {
		t.Error("cross-chromosome up/downstream must be false")
	}
}

func TestCompareChrom(t *testing.T) {
	ordered := []string{"chr1", "chr2", "chr9", "chr10", "chr21", "chrX", "chrY", "chrM", "scaffold_1"}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := CompareChrom(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if (got < 0) != (want < 0) || (got > 0) != (want > 0) {
				t.Errorf("CompareChrom(%s,%s) = %d, want sign %d", ordered[i], ordered[j], got, want)
			}
		}
	}
	if CompareChrom("1", "chr1") != 0 {
		t.Error("bare and chr-prefixed names must compare equal")
	}
	if CompareChrom("chrMT", "chrM") != 0 {
		t.Error("chrMT and chrM must compare equal")
	}
}

func TestCompareRegionsOrder(t *testing.T) {
	rs := []Region{
		NewRegion("chr2", 0, 10, StrandNone),
		NewRegion("chr1", 5, 10, StrandNone),
		NewRegion("chr1", 5, 8, StrandNone),
		NewRegion("chr1", 0, 10, StrandPlus),
		NewRegion("chr1", 0, 10, StrandMinus),
		NewRegion("chr10", 0, 1, StrandNone),
	}
	sort.Slice(rs, func(i, j int) bool { return CompareRegions(rs[i], rs[j]) < 0 })
	want := []string{
		"chr1:0-10(-)", "chr1:0-10(+)", "chr1:5-8(*)", "chr1:5-10(*)", "chr2:0-10(*)", "chr10:0-1(*)",
	}
	for i, r := range rs {
		if r.String() != want[i] {
			t.Errorf("sorted[%d] = %s, want %s", i, r.String(), want[i])
		}
	}
}

func TestCompareRegionsQuickProperties(t *testing.T) {
	mk := func(c uint8, start, length int16, strand int8) Region {
		chrom := []string{"chr1", "chr2", "chrX"}[int(c)%3]
		st := int64(start)
		if st < 0 {
			st = -st
		}
		l := int64(length)
		if l < 0 {
			l = -l
		}
		return NewRegion(chrom, st, st+l, Strand(strand%2))
	}
	antisym := func(c1 uint8, s1, l1 int16, st1 int8, c2 uint8, s2, l2 int16, st2 int8) bool {
		a, b := mk(c1, s1, l1, st1), mk(c2, s2, l2, st2)
		return CompareRegions(a, b) == -CompareRegions(b, a)
	}
	if err := quick.Check(antisym, nil); err != nil {
		t.Error(err)
	}
	reflexive := func(c uint8, s, l int16, st int8) bool {
		a := mk(c, s, l, st)
		return CompareRegions(a, a) == 0
	}
	if err := quick.Check(reflexive, nil); err != nil {
		t.Error(err)
	}
	overlapSym := func(c1 uint8, s1, l1 int16, c2 uint8, s2, l2 int16) bool {
		a, b := mk(c1, s1, l1, 0), mk(c2, s2, l2, 0)
		return a.Overlaps(b) == b.Overlaps(a)
	}
	if err := quick.Check(overlapSym, nil); err != nil {
		t.Error(err)
	}
	distNonNegWhenDisjoint := func(c uint8, s1, l1, s2, l2 int16) bool {
		a, b := mk(c, s1, l1, 0), mk(c, s2, l2, 0)
		d, ok := a.Distance(b)
		if !ok {
			return false // same chromosome by construction
		}
		if a.Overlaps(b) {
			return d <= 0
		}
		return d >= 0
	}
	if err := quick.Check(distNonNegWhenDisjoint, nil); err != nil {
		t.Error(err)
	}
}

func TestRegionValidate(t *testing.T) {
	if err := NewRegion("chr1", 0, 0, StrandNone).Validate(); err != nil {
		t.Errorf("empty region invalid: %v", err)
	}
	if err := NewRegion("", 0, 1, StrandNone).Validate(); err == nil {
		t.Error("empty chromosome accepted")
	}
	if err := NewRegion("chr1", -1, 1, StrandNone).Validate(); err == nil {
		t.Error("negative start accepted")
	}
	if err := NewRegion("chr1", 10, 5, StrandNone).Validate(); err == nil {
		t.Error("stop<start accepted")
	}
}
