package gdm

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func peaksSchema() *Schema {
	return MustSchema(Field{"p_value", KindFloat})
}

// row is a region with its attribute values, for sampleWith.
type row struct {
	r    Region
	vals []Value
}

func reg(chrom string, start, stop int64, strand Strand, vals ...Value) row {
	return row{NewRegion(chrom, start, stop, strand), vals}
}

func sampleWith(id string, rows ...row) *Sample {
	s := NewSample(id)
	for _, r := range rows {
		s.AddRegion(r.r, r.vals...)
	}
	return s
}

func TestMetadataBasics(t *testing.T) {
	md := NewMetadata()
	md.Add("antibody", "CTCF")
	md.Add("antibody", "CTCF") // duplicate ignored
	md.Add("antibody", "POL2")
	md.Add("karyotype", "cancer")
	if md.Len() != 3 {
		t.Errorf("Len = %d", md.Len())
	}
	if !md.Has("antibody") || md.Has("missing") {
		t.Error("Has wrong")
	}
	if md.First("antibody") != "CTCF" {
		t.Errorf("First = %q", md.First("antibody"))
	}
	if md.First("missing") != "" {
		t.Error("First(missing) non-empty")
	}
	if !md.Matches("antibody", "ctcf") {
		t.Error("Matches must be case-insensitive")
	}
	if md.Matches("antibody", "MYC") {
		t.Error("Matches false positive")
	}
	attrs := md.Attrs()
	if len(attrs) != 2 || attrs[0] != "antibody" || attrs[1] != "karyotype" {
		t.Errorf("Attrs = %v", attrs)
	}
	pairs := md.Pairs()
	if len(pairs) != 3 || pairs[0] != [2]string{"antibody", "CTCF"} {
		t.Errorf("Pairs = %v", pairs)
	}
	md.Set("antibody", "MYC")
	if md.Len() != 2 || md.First("antibody") != "MYC" {
		t.Error("Set did not replace")
	}
	md.Delete("antibody")
	if md.Has("antibody") {
		t.Error("Delete failed")
	}
}

func TestMetadataCloneAndMerge(t *testing.T) {
	md := MetadataFrom(map[string]string{"cell": "HeLa", "type": "ChipSeq"})
	c := md.Clone()
	c.Add("cell", "K562")
	if len(md.Values("cell")) != 1 {
		t.Error("Clone aliases source")
	}
	dst := NewMetadata()
	md.MergeInto(dst, "left")
	if dst.First("left.cell") != "HeLa" || dst.First("left.type") != "ChipSeq" {
		t.Errorf("MergeInto with prefix: %v", dst.Pairs())
	}
	md.MergeInto(dst, "")
	if dst.First("cell") != "HeLa" {
		t.Error("MergeInto without prefix")
	}
	var nilMD *Metadata
	nilMD.MergeInto(dst, "x") // must not panic
	if nilMD.Len() != 0 || nilMD.Has("a") || nilMD.First("a") != "" {
		t.Error("nil metadata accessors")
	}
	if got := nilMD.Clone(); got == nil || got.Len() != 0 {
		t.Error("nil Clone")
	}
}

func TestMetadataMatchText(t *testing.T) {
	md := MetadataFrom(map[string]string{"cell line": "HeLa-S3", "dataType": "ChipSeq"})
	for _, kw := range []string{"hela", "chipseq", "CELL", "S3"} {
		if !md.MatchText(kw) {
			t.Errorf("MatchText(%q) = false", kw)
		}
	}
	if md.MatchText("rnaseq") {
		t.Error("MatchText false positive")
	}
	var nilMD *Metadata
	if nilMD.MatchText("x") {
		t.Error("nil MatchText true")
	}
}

func TestDatasetAddValidatesAndCoerces(t *testing.T) {
	d := NewDataset("PEAKS", peaksSchema())
	s := sampleWith("1", reg("chr1", 0, 10, StrandPlus, Int(5)))
	if err := d.Add(s); err != nil {
		t.Fatalf("Add with coercible int: %v", err)
	}
	// Int got coerced to the schema's float kind.
	if v := d.Samples[0].Row(0)[0]; v.Kind() != KindFloat || v.Float() != 5 {
		t.Errorf("coerced value = %v", v)
	}
	if err := d.Add(sampleWith("2", reg("chr1", 0, 10, StrandNone))); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := d.Add(sampleWith("3", reg("chr1", 0, 10, StrandNone, Str("x")))); err == nil {
		t.Error("uncoercible kind accepted")
	}
	if err := d.Add(sampleWith("", reg("chr1", 0, 10, StrandNone, Float(1)))); err == nil {
		t.Error("empty ID accepted")
	}
	if err := d.Add(sampleWith("4", reg("chr1", 10, 5, StrandNone, Float(1)))); err == nil {
		t.Error("bad coordinates accepted")
	}
	if err := d.Add(sampleWith("5", reg("chr1", 0, 10, StrandNone, Null()))); err != nil {
		t.Errorf("null value rejected: %v", err)
	}
}

func TestDatasetValidate(t *testing.T) {
	d := NewDataset("D", peaksSchema())
	d.MustAdd(sampleWith("a",
		reg("chr1", 0, 10, StrandNone, Float(1)),
		reg("chr1", 20, 30, StrandNone, Float(2))))
	if err := d.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	// Duplicate ID.
	dup := NewDataset("D", peaksSchema())
	dup.MustAdd(sampleWith("a", reg("chr1", 0, 10, StrandNone, Float(1))))
	dup.Samples = append(dup.Samples, sampleWith("a"))
	if err := dup.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate ID: %v", err)
	}
	// Unsorted regions.
	uns := NewDataset("D", peaksSchema())
	s := sampleWith("a",
		reg("chr2", 0, 10, StrandNone, Float(1)),
		reg("chr1", 0, 10, StrandNone, Float(1)))
	uns.Samples = append(uns.Samples, s)
	if err := uns.Validate(); err == nil || !strings.Contains(err.Error(), "order") {
		t.Errorf("unsorted: %v", err)
	}
	uns.SortRegions()
	if err := uns.Validate(); err != nil {
		t.Errorf("after SortRegions: %v", err)
	}
}

func TestDatasetSortAndLookup(t *testing.T) {
	d := NewDataset("D", MustSchema())
	d.MustAdd(sampleWith("b", reg("chr2", 0, 5, StrandNone), reg("chr1", 3, 9, StrandNone)))
	d.MustAdd(sampleWith("a", reg("chr1", 7, 8, StrandNone)))
	d.SortRegions()
	if d.Samples[0].ID != "a" || d.Samples[1].ID != "b" {
		t.Error("samples not sorted by ID")
	}
	if d.Samples[1].Regions[0].Chrom != "chr1" {
		t.Error("regions not sorted")
	}
	if d.Sample("b") == nil || d.Sample("zzz") != nil {
		t.Error("Sample lookup wrong")
	}
	if d.NumRegions() != 3 {
		t.Errorf("NumRegions = %d", d.NumRegions())
	}
	if !strings.Contains(d.String(), "2 samples") {
		t.Errorf("String = %q", d.String())
	}
}

func TestSampleChromRangeAndChroms(t *testing.T) {
	s := sampleWith("x",
		reg("chr1", 0, 5, StrandNone),
		reg("chr1", 6, 9, StrandNone),
		reg("chr2", 0, 3, StrandNone),
		reg("chrX", 0, 3, StrandNone),
	)
	s.SortRegions()
	lo, hi := s.ChromRange("chr1")
	if lo != 0 || hi != 2 {
		t.Errorf("ChromRange(chr1) = %d,%d", lo, hi)
	}
	lo, hi = s.ChromRange("chr2")
	if lo != 2 || hi != 3 {
		t.Errorf("ChromRange(chr2) = %d,%d", lo, hi)
	}
	lo, hi = s.ChromRange("chr7")
	if lo != hi {
		t.Errorf("ChromRange(chr7) non-empty: %d,%d", lo, hi)
	}
	chroms := s.Chroms()
	if len(chroms) != 3 || chroms[0] != "chr1" || chroms[2] != "chrX" {
		t.Errorf("Chroms = %v", chroms)
	}
}

func TestDatasetClone(t *testing.T) {
	d := NewDataset("D", peaksSchema())
	d.MustAdd(sampleWith("a", reg("chr1", 0, 10, StrandNone, Float(1))))
	d.Samples[0].Meta.Add("k", "v")
	c := d.Clone()
	c.Samples[0].Row(0)[0] = Float(99)
	c.Samples[0].Meta.Add("k2", "v2")
	if d.Samples[0].Row(0)[0].Float() != 1 {
		t.Error("Clone aliases region values")
	}
	if d.Samples[0].Meta.Has("k2") {
		t.Error("Clone aliases metadata")
	}
}

func TestDeriveIDDeterministic(t *testing.T) {
	a := DeriveID("MAP", "s1", "s2")
	b := DeriveID("MAP", "s1", "s2")
	c := DeriveID("MAP", "s2", "s1")
	d := DeriveID("JOIN", "s1", "s2")
	if a != b {
		t.Error("DeriveID not deterministic")
	}
	if a == c || a == d {
		t.Error("DeriveID collisions across distinct inputs")
	}
	if !strings.HasPrefix(a, "map-") {
		t.Errorf("DeriveID prefix: %q", a)
	}
	// Separator prevents ambiguity between ("ab","c") and ("a","bc").
	if DeriveID("X", "ab", "c") == DeriveID("X", "a", "bc") {
		t.Error("DeriveID ambiguity")
	}
}

func TestDeriveIDQuickNoCollisionOnDifferentParents(t *testing.T) {
	f := func(a, b string) bool {
		if a == b {
			return true
		}
		return DeriveID("OP", a) != DeriveID("OP", b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEstimateBytes(t *testing.T) {
	d := NewDataset("D", peaksSchema())
	if d.EstimateBytes() != 0 {
		t.Error("empty dataset non-zero estimate")
	}
	s := sampleWith("s1", reg("chr1", 100, 200, StrandPlus, Float(0.5)))
	s.Meta.Add("cell", "HeLa")
	d.MustAdd(s)
	got := d.EstimateBytes()
	if got <= 0 {
		t.Fatalf("EstimateBytes = %d", got)
	}
	// Adding a second identical-shape sample roughly doubles the estimate.
	s2 := sampleWith("s2", reg("chr1", 100, 200, StrandPlus, Float(0.5)))
	s2.Meta.Add("cell", "HeLa")
	d.MustAdd(s2)
	got2 := d.EstimateBytes()
	if got2 <= got || got2 > 2*got+4 {
		t.Errorf("EstimateBytes growth: %d -> %d", got, got2)
	}
}

func TestSortRegionsProperty(t *testing.T) {
	f := func(starts []int16) bool {
		s := NewSample("q")
		for _, st := range starts {
			v := int64(st)
			if v < 0 {
				v = -v
			}
			chrom := "chr1"
			if v%3 == 0 {
				chrom = "chr2"
			}
			s.AddRegion(NewRegion(chrom, v, v+10, StrandNone))
		}
		before := len(s.Regions)
		s.SortRegions()
		return s.RegionsSorted() && len(s.Regions) == before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSortRegionsMatchesStableReference: the permutation sort and its
// already-sorted shortcut order regions, and their rows with them, exactly as
// the reflect-based stable sort of whole rows they replaced, ties (equal
// coordinates, different values) included.
func TestSortRegionsMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	chroms := []string{"chr2", "chr10", "chrX", "chr1", "scaffold_9"}
	type entry struct {
		r Region
		v Value
	}
	for round := 0; round < 50; round++ {
		s := NewSample("s")
		for i := 0; i < 200; i++ {
			start := rng.Int63n(20)
			s.AddRegion(NewRegion(chroms[rng.Intn(len(chroms))], start, start+rng.Int63n(3),
				Strand(rng.Intn(3)-1)), Int(int64(i)))
		}
		if round%2 == 1 {
			s.SortRegions() // the second sort below takes the shortcut
		}
		want := make([]entry, len(s.Regions))
		for i := range want {
			want[i] = entry{s.Regions[i], s.Values[i]}
		}
		sort.SliceStable(want, func(i, j int) bool { return CompareRegions(want[i].r, want[j].r) < 0 })
		s.SortRegions()
		for i := range want {
			if s.Regions[i] != want[i].r || s.Row(i)[0] != want[i].v {
				t.Fatalf("round %d region %d: %s %v, reference %s %v", round, i, s.Regions[i], s.Row(i), want[i].r, want[i].v)
			}
		}
	}
}

// TestSampleRowIsCapacityLimited: a row is a window of the slab that ends at
// its own last value, so appending to it leaves the next row alone; Gather
// moves rows with their regions.
func TestSampleRowIsCapacityLimited(t *testing.T) {
	s := sampleWith("s", reg("chr1", 0, 1, StrandNone, Int(1), Str("a")), reg("chr1", 2, 3, StrandNone, Int(2), Str("b")))
	if got := append(s.Row(0), Int(99)); len(got) != 3 || s.Row(1)[0].Int() != 2 {
		t.Errorf("append to row 0 wrote into row 1: %v", s.Row(1))
	}
	regions, values := s.Gather([]int32{1, 0})
	if regions[0] != s.Regions[1] || values[0].Int() != 2 || values[3].Str() != "a" || len(values) != 4 {
		t.Errorf("Gather = %v %v", regions, values)
	}
	if r, v := s.Gather(nil); r != nil || v != nil {
		t.Errorf("empty Gather = %v %v", r, v)
	}
}

// TestContentDigestGolden: the digest is a dataset's version in every
// manifest, so a fixed dataset — every kind, a null, -0.0, NaN, extreme
// ints — must keep digesting to the committed value.
func TestContentDigestGolden(t *testing.T) {
	schema := MustSchema(
		Field{"hits", KindInt}, Field{"p", KindFloat}, Field{"name", KindString}, Field{"ok", KindBool},
	)
	ds := NewDataset("GOLD", schema)
	s1 := NewSample("s1")
	s1.Meta.Add("cell", "HeLa")
	s1.Meta.Add("antibody", "CTCF")
	s1.AddRegion(NewRegion("chr2", 0, 7, StrandNone), Int(math.MinInt64), Float(math.NaN()), Str(""), Bool(true))
	s1.AddRegion(NewRegion("chr1", 10, 20, StrandPlus), Int(3), Float(math.Copysign(0, -1)), Str("a"), Bool(true))
	s1.AddRegion(NewRegion("chr1", 15, 40, StrandMinus), Null(), Float(1e-300), Str("x\ty"), Null())
	s2 := NewSample("s0")
	s2.AddRegion(NewRegion("chrX", 5, 6, StrandPlus), Int(math.MaxInt64), Null(), Null(), Bool(false))
	ds.MustAdd(s1)
	ds.MustAdd(s2)
	const want = "baf74fb913c84bf86095b80b8b637d56e2be56173fbe3fb4b07c81e05e2a3899"
	if got := ds.ContentDigest(); got != want {
		t.Errorf("ContentDigest = %s, want %s", got, want)
	}
}
