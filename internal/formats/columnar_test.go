package formats

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"genogo/internal/catalog"
	"genogo/internal/gdm"
	"genogo/internal/synth"
)

// kindsDataset exercises every encodable value kind, every strand, an empty
// string, an empty sample, and a region-free chromosome ordering edge.
func kindsDataset(t testing.TB) *gdm.Dataset {
	t.Helper()
	schema := gdm.MustSchema(
		gdm.Field{Name: "hits", Type: gdm.KindInt},
		gdm.Field{Name: "p", Type: gdm.KindFloat},
		gdm.Field{Name: "name", Type: gdm.KindString},
		gdm.Field{Name: "ok", Type: gdm.KindBool},
	)
	ds := gdm.NewDataset("KINDS", schema)
	s1 := gdm.NewSample("s1")
	s1.Meta.Add("cell", "HeLa")
	s1.AddRegion(gdm.NewRegion("chr1", 0, 1, gdm.StrandPlus), gdm.Int(-7), gdm.Float(0.25), gdm.Str(""), gdm.Bool(true))
	s1.AddRegion(gdm.NewRegion("chr1", 5, 500, gdm.StrandMinus), gdm.Null(), gdm.Null(), gdm.Str("x\ty\nz"), gdm.Bool(false))
	s1.AddRegion(gdm.NewRegion("chr2", 10, 20, gdm.StrandNone), gdm.Int(1<<40), gdm.Float(-1e300), gdm.Null(), gdm.Null())
	s1.SortRegions()
	ds.MustAdd(s1)
	ds.MustAdd(gdm.NewSample("s2")) // region-free sample
	return ds
}

// goldenDataset is the fixed dataset whose .gdmc image (sample s1) and frame
// are committed under testdata/golden: a tagged column (hits, with a null),
// a null-typed column, -0.0 and two NaNs (one with a payload) among the
// floats, an empty string, every strand.
func goldenDataset() *gdm.Dataset {
	schema := gdm.MustSchema(
		gdm.Field{Name: "hits", Type: gdm.KindInt},
		gdm.Field{Name: "p", Type: gdm.KindFloat},
		gdm.Field{Name: "name", Type: gdm.KindString},
		gdm.Field{Name: "ok", Type: gdm.KindBool},
		gdm.Field{Name: "none", Type: gdm.KindNull},
	)
	ds := gdm.NewDataset("GOLD", schema)
	s1 := gdm.NewSample("s1")
	s1.Meta.Add("cell", "HeLa")
	s1.Meta.Add("antibody", "CTCF")
	s1.AddRegion(gdm.NewRegion("chr1", 10, 20, gdm.StrandPlus), gdm.Int(3), gdm.Float(math.Copysign(0, -1)), gdm.Str("a"), gdm.Bool(true), gdm.Null())
	s1.AddRegion(gdm.NewRegion("chr1", 15, 40, gdm.StrandMinus), gdm.Null(), gdm.Float(math.NaN()), gdm.Str("bc"), gdm.Bool(false), gdm.Null())
	s1.AddRegion(gdm.NewRegion("chr2", 0, 7, gdm.StrandNone), gdm.Int(-1<<40), gdm.Float(math.Float64frombits(goldenNaNBits)), gdm.Str(""), gdm.Bool(true), gdm.Null())
	s1.AddRegion(gdm.NewRegion("chrX", 100, 1000, gdm.StrandNone), gdm.Int(7), gdm.Float(-2.25), gdm.Str("x\ty"), gdm.Bool(false), gdm.Null())
	s2 := gdm.NewSample("s2")
	s2.Meta.Add("cell", "K562")
	s2.AddRegion(gdm.NewRegion("chr1", 5, 6, gdm.StrandPlus), gdm.Int(1), gdm.Float(0), gdm.Str("z"), gdm.Null(), gdm.Null())
	ds.MustAdd(s1)
	ds.MustAdd(s2)
	return ds
}

// goldenNaNBits is a NaN with a payload, which must survive storage as is.
const goldenNaNBits = 0x7ff4000000000abc

// TestColumnarGoldenBytes: the .gdmc image and the frame of the fixed
// dataset are byte for byte the committed ones, so neither format moves
// under an encoder change; and decoding them gives back every float's bits.
func TestColumnarGoldenBytes(t *testing.T) {
	ds := goldenDataset()
	image, err := appendColumnarSample(nil, ds.Samples[0], ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	frame := encodeFrame(t, ds)
	for file, got := range map[string][]byte{"GOLD.gdmc": image, "GOLD.gdmf": frame} {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoded %d bytes differ from the committed %d", file, len(got), len(want))
		}
	}
	back, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	for si, s := range ds.Samples {
		for ri := range s.Regions {
			for ai, v := range s.Row(ri) {
				w := back.Samples[si].Row(ri)[ai]
				if v.Kind() != w.Kind() || v.Int() != w.Int() || v.Str() != w.Str() ||
					math.Float64bits(v.Float()) != math.Float64bits(w.Float()) {
					t.Errorf("sample %s region %d attribute %d: encoded %#v, decoded %#v", s.ID, ri, ai, v, w)
				}
			}
		}
	}
	if got := math.Float64bits(back.Samples[0].Row(0)[1].Float()); got != 1<<63 {
		t.Errorf("-0.0 decoded with bits %#x", got)
	}
	if got := math.Float64bits(back.Samples[0].Row(2)[1].Float()); got != goldenNaNBits {
		t.Errorf("NaN payload decoded with bits %#x, want %#x", got, uint64(goldenNaNBits))
	}
}

func TestColumnarSampleRoundTrip(t *testing.T) {
	ds := kindsDataset(t)
	for _, s := range ds.Samples {
		data, err := appendColumnarSample(nil, s, ds.Schema)
		if err != nil {
			t.Fatalf("encode %s: %v", s.ID, err)
		}
		got, ie := decodeColumnarSample("KINDS", "x.gdmc", s.ID, data, ds.Schema)
		if ie != nil {
			t.Fatalf("decode %s: %v", s.ID, ie)
		}
		if len(got.Regions) != len(s.Regions) {
			t.Fatalf("sample %s: %d regions, want %d", s.ID, len(got.Regions), len(s.Regions))
		}
		for i := range s.Regions {
			if fmt.Sprint(got.Regions[i], got.Row(i)) != fmt.Sprint(s.Regions[i], s.Row(i)) {
				t.Errorf("sample %s region %d: %q vs %q", s.ID, i, got.Regions[i], s.Regions[i])
			}
		}
	}
}

// TestColumnarUnsortedSample: a sample whose chromosomes interleave is
// written as one partition per chromosome, in order of first appearance, with
// each chromosome's regions in the order the sample held them.
func TestColumnarUnsortedSample(t *testing.T) {
	schema := gdm.MustSchema(gdm.Field{Name: "n", Type: gdm.KindInt})
	s := gdm.NewSample("s")
	for i, chrom := range []string{"chr2", "chr1", "chr2", "chr1", "chr3", "chr2"} {
		s.AddRegion(gdm.NewRegion(chrom, int64(100-10*i), int64(200-10*i), gdm.StrandNone), gdm.Int(int64(i)))
	}
	rows := func(s *gdm.Sample) string {
		out := make([]string, len(s.Regions))
		for i := range out {
			out[i] = fmt.Sprint(s.Regions[i], s.Row(i))
		}
		return fmt.Sprint(out)
	}
	before := rows(s)
	data, err := appendColumnarSample(nil, s, schema)
	if err != nil {
		t.Fatal(err)
	}
	if after := rows(s); after != before {
		t.Fatalf("encoding reordered the caller's regions: %s", after)
	}
	got, ie := decodeColumnarSample("DS", "s.gdmc", "s", data, schema)
	if ie != nil {
		t.Fatal(ie)
	}
	want := "[chr2:100-200(*) [0] chr2:80-180(*) [2] chr2:50-150(*) [5] chr1:90-190(*) [1] chr1:70-170(*) [3] chr3:60-160(*) [4]]"
	if rows(got) != want {
		t.Errorf("decoded %v\nwant    %s", rows(got), want)
	}
}

func TestColumnarDatasetRoundTrip(t *testing.T) {
	ds := testDataset(t)
	dir := filepath.Join(t.TempDir(), "PEAKS")
	if err := WriteDatasetColumnar(dir, ds); err != nil {
		t.Fatal(err)
	}
	got, rep, err := OpenDataset(dir, IntegrityPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Errorf("report = %+v, want verified", rep)
	}
	datasetsEqual(t, ds, got)
	if a, b := ds.ContentDigest(), got.ContentDigest(); a != b {
		t.Errorf("content digest changed across columnar round trip: %s vs %s", a, b)
	}
}

// TestColumnarRoundTripProperty: for seeded synthetic catalogs, export →
// import and member → read are the identity — both read back to the same
// content digest as the in-memory original.
func TestColumnarRoundTripProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := synth.New(seed)
		for name, ds := range map[string]*gdm.Dataset{
			"ENC": g.Encode(synth.EncodeOptions{Samples: 4, MeanPeaks: 30}),
			"ANN": g.Annotations(g.Genes(20)),
		} {
			ds.Name = name
			root := t.TempDir()
			textDir := filepath.Join(root, "text", name)
			colDir := filepath.Join(root, "col", name)
			if err := WriteDataset(textDir, ds); err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if err := WriteDatasetColumnar(colDir, ds); err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			want := ds.ContentDigest()
			for layout, dir := range map[string]string{"text": textDir, "columnar": colDir} {
				got, _, err := OpenDataset(dir, IntegrityPolicy{})
				if err != nil {
					t.Fatalf("seed %d %s %s: %v", seed, name, layout, err)
				}
				if d := got.ContentDigest(); d != want {
					t.Errorf("seed %d %s: %s digest %s != original %s", seed, name, layout, d, want)
				}
			}
		}
	}
}

// TestColumnarEveryBitFlipDetected: the index CRC covers the header and every
// index entry, and each partition CRC covers its payload — so flipping any
// single bit anywhere in a .gdmc image must surface as a typed error from the
// full decode, never a panic and never silently different data.
func TestColumnarEveryBitFlipDetected(t *testing.T) {
	ds := testDataset(t)
	data, err := appendColumnarSample(nil, ds.Samples[0], ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off++ {
		for bit := uint(0); bit < 8; bit++ {
			mut := make([]byte, len(data))
			copy(mut, data)
			mut[off] ^= 1 << bit
			s, ie := decodeColumnarSample("DS", "s.gdmc", "s1", mut, ds.Schema)
			if ie == nil {
				t.Fatalf("bit flip at byte %d bit %d decoded cleanly (%d regions)", off, bit, len(s.Regions))
			}
		}
	}
}

// TestColumnarEveryTruncationDetected: any prefix of a valid image must fail
// the full decode with a typed error.
func TestColumnarEveryTruncationDetected(t *testing.T) {
	ds := testDataset(t)
	data, err := appendColumnarSample(nil, ds.Samples[0], ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if _, ie := decodeColumnarSample("DS", "s.gdmc", "s1", data[:n], ds.Schema); ie == nil {
			t.Fatalf("truncation to %d of %d bytes decoded cleanly", n, len(data))
		}
	}
	if _, ie := decodeColumnarSample("DS", "s.gdmc", "s1", append(append([]byte{}, data...), 0), ds.Schema); ie == nil {
		t.Fatal("trailing byte after last partition decoded cleanly")
	}
}

func TestColumnarArityMismatchRejected(t *testing.T) {
	ds := testDataset(t)
	data, err := appendColumnarSample(nil, ds.Samples[0], ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	narrow := gdm.MustSchema(gdm.Field{Name: "p_value", Type: gdm.KindFloat})
	if _, ie := decodeColumnarSample("DS", "s.gdmc", "s1", data, narrow); ie == nil {
		t.Fatal("arity mismatch decoded cleanly")
	}
	if _, err := appendColumnarSample(nil, ds.Samples[0], narrow); err == nil {
		t.Fatal("encode with wrong arity succeeded")
	}
	// A value of a kind its column does not have fails the write, not a
	// later read.
	wrong := gdm.MustSchema(gdm.Field{Name: "p_value", Type: gdm.KindFloat}, gdm.Field{Name: "signal", Type: gdm.KindInt})
	if _, err := appendColumnarSample(nil, ds.Samples[0], wrong); err == nil {
		t.Fatal("encode of a float in an int column succeeded")
	}
}

// TestColumnarOldVersionRejected: a GDMC01 image is a typed parse error that
// names the version, from the full decode and the structural check alike.
func TestColumnarOldVersionRejected(t *testing.T) {
	ds := testDataset(t)
	data, err := appendColumnarSample(nil, ds.Samples[0], ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "GDMC01")
	_, ie := decodeColumnarSample("DS", "s.gdmc", "s1", data, ds.Schema)
	if ie == nil || ie.Reason != ReasonParse || !strings.Contains(ie.Detail, "GDMC01") {
		t.Fatalf("GDMC01 image: %v, want a parse_error naming the version", ie)
	}
	if err := CheckColumnarStructure("DS", "s.gdmc", data); err == nil {
		t.Fatal("structural check accepted a GDMC01 image")
	}
}

// TestColumnarCompactCoding pins what the GDMC02 payload coding buys: sorted
// starts, short lengths, one strand and tag-free columns cost a few bytes per
// region, and a column with a null falls back to tags without losing it.
func TestColumnarCompactCoding(t *testing.T) {
	schema := gdm.MustSchema(gdm.Field{Name: "n", Type: gdm.KindInt}, gdm.Field{Name: "name", Type: gdm.KindString})
	s := gdm.NewSample("s")
	const n = 1000
	for i := int64(0); i < n; i++ {
		s.AddRegion(gdm.NewRegion("chr1", 1_000_000+i*900, 1_000_000+i*900+250, gdm.StrandNone), gdm.Int(i%7), gdm.Str("g"))
	}
	uniform, err := appendColumnarSample(nil, s, schema)
	if err != nil {
		t.Fatal(err)
	}
	// 2 (delta) + 2 (length) + 0 (strand) + 1 (int) + 1+1 (string) per region.
	if per := float64(len(uniform)) / n; per > 7.2 {
		t.Errorf("uniform columns cost %.2f bytes per region, want about 7", per)
	}
	s.Row(n / 2)[0] = gdm.Null()
	tagged, err := appendColumnarSample(nil, s, schema)
	if err != nil {
		t.Fatal(err)
	}
	if extra := len(tagged) - len(uniform); extra != n-1 {
		t.Errorf("one null cost %d bytes, want %d tags minus the dropped value", extra, n-1)
	}
	got, ie := decodeColumnarSample("DS", "s.gdmc", "s", tagged, schema)
	if ie != nil {
		t.Fatal(ie)
	}
	for i := range s.Regions {
		if fmt.Sprint(got.Regions[i], got.Row(i)) != fmt.Sprint(s.Regions[i], s.Row(i)) {
			t.Fatalf("region %d: %q vs %q", i, got.Regions[i], s.Regions[i])
		}
	}
}

// TestColumnarPrunedRead: a pruned open loads only the kept partitions and
// accounts the skipped ones — and damage inside a skipped partition is
// invisible to the pruned read (proof its bytes were never consumed), while
// damage in a kept partition fails it.
func TestColumnarPrunedRead(t *testing.T) {
	ds := testDataset(t)
	dir := filepath.Join(t.TempDir(), "PEAKS")
	if err := WriteDatasetColumnar(dir, ds); err != nil {
		t.Fatal(err)
	}
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	keepChr1 := catalog.Keep{Part: func(chrom string, minStart, maxStop int64) bool { return chrom == "chr1" }}

	// sample1 holds chr1 (1 region) + chr2 (1 region); keep chr1 only.
	s, st, ie := openColumnarSamplePruned(dir, "sample1", ds.Schema, man, keepChr1)
	if ie != nil {
		t.Fatal(ie)
	}
	if st.Parts != 2 || st.SkippedParts != 1 || st.SkippedRegions != 1 || st.SkippedBytes <= 0 {
		t.Errorf("prune stats = %+v, want 1 of 2 parts skipped with positive bytes", st)
	}
	if len(s.Regions) != 1 || s.Regions[0].Chrom != "chr1" {
		t.Errorf("kept regions = %v", s.Regions)
	}
	if s.Meta.First("antibody") != "CTCF" {
		t.Errorf("pruned read lost metadata: %v", s.Meta.Pairs())
	}

	// An empty keep loads everything with zero skips.
	full, st2, ie := openColumnarSamplePruned(dir, "sample1", ds.Schema, man, catalog.Keep{})
	if ie != nil {
		t.Fatal(ie)
	}
	if st2.SkippedParts != 0 || len(full.Regions) != 2 {
		t.Errorf("full pruned-open: stats %+v, %d regions", st2, len(full.Regions))
	}

	// Damage the chr2 payload (the skipped partition — the last section).
	path := filepath.Join(dir, "sample1.gdmc")
	offsets, err := ColumnarSectionOffsets(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(offsets) != 3 {
		t.Fatalf("section offsets = %v, want header + 2 partitions", offsets)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := make([]byte, len(data))
	copy(mut, data)
	mut[offsets[2]] ^= 0x01
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ie := openColumnarSamplePruned(dir, "sample1", ds.Schema, man, keepChr1); ie != nil {
		t.Errorf("damage in a skipped partition failed the pruned read: %v", ie)
	}
	if _, _, ie := openColumnarSamplePruned(dir, "sample1", ds.Schema, man, catalog.Keep{}); ie == nil {
		t.Error("damage in a kept partition passed the full pruned-open")
	}
	if ie := checkColumnarStructure("PEAKS", path, mut); ie == nil {
		t.Error("checkColumnarStructure missed the payload damage")
	}
}

func TestColumnarSectionOffsets(t *testing.T) {
	ds := testDataset(t)
	dir := filepath.Join(t.TempDir(), "PEAKS")
	if err := WriteDatasetColumnar(dir, ds); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "sample1.gdmc")
	offsets, err := ColumnarSectionOffsets(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if offsets[0] != 0 {
		t.Errorf("first offset = %d", offsets[0])
	}
	for i, off := range offsets {
		if off < 0 || off >= int64(len(data)) {
			t.Errorf("offset %d = %d outside file of %d bytes", i, off, len(data))
		}
	}
}

// TestManifestlessImagesFailTyped: a directory holding .gdmc images but no
// manifest is a member that lost its manifest, not a text export: every entry
// point fails it with a typed missing_file on manifest.json instead of
// loading it as a dataset without those samples.
func TestManifestlessImagesFailTyped(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "C")
	if err := WriteDatasetColumnar(dir, testDataset(t)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenDataset(dir, IntegrityPolicy{AllowPartial: true})
	if ie := wantIntegrityError(t, err, ReasonMissing); ie.Path != filepath.Join(dir, ManifestName) {
		t.Errorf("path = %s, want the manifest", ie.Path)
	}
	if _, _, err := LoadRepository(root, IntegrityPolicy{AllowPartial: true}); err == nil {
		t.Error("LoadRepository loaded a manifest-less member")
	}
	_, _, err = NewDirCatalog(root).DatasetPruned("C", nil)
	wantIntegrityError(t, err, ReasonMissing)
}

func TestColumnarStaleManifestDetected(t *testing.T) {
	ds := testDataset(t)
	dir := filepath.Join(t.TempDir(), "PEAKS")
	if err := WriteDatasetColumnar(dir, ds); err != nil {
		t.Fatal(err)
	}
	// Rewrite sample1.gdmc with different but self-consistent content: only
	// the manifest can tell it is not the promised file.
	mod := ds.Samples[0].Clone()
	mod.Regions, mod.Values = mod.Regions[:1], mod.Values[:ds.Schema.Len()]
	data, err := appendColumnarSample(nil, mod, ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "sample1.gdmc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if ie := checkColumnarStructure("PEAKS", path, data); ie != nil {
		t.Fatalf("rewritten file is not self-consistent: %v", ie)
	}
	if _, _, err := OpenDataset(dir, IntegrityPolicy{}); err == nil {
		t.Fatal("strict open accepted a file the manifest does not describe")
	}
}

func TestDirCatalog(t *testing.T) {
	ds := testDataset(t)
	root := t.TempDir()
	if err := WriteDataset(filepath.Join(root, "TEXT"), ds); err != nil {
		t.Fatal(err)
	}
	if err := WriteDatasetColumnar(filepath.Join(root, "COL"), ds); err != nil {
		t.Fatal(err)
	}
	c := NewDirCatalog(root)
	names, err := c.Names()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(names) != "[COL TEXT]" {
		t.Errorf("names = %v", names)
	}
	// Only a member carries a stats block; an export is scanned on demand,
	// once it is held.
	if st, ok := c.Stats("COL"); !ok || len(st.Samples) != 2 {
		t.Errorf("COL: stats ok=%v %+v", ok, st)
	}
	if _, ok := c.Stats("TEXT"); ok {
		t.Error("TEXT: an export reported a stats block")
	}
	for _, name := range names {
		got, err := c.Dataset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		datasetsEqual(t, ds, got)
	}
	if st, ok := c.Stats("TEXT"); !ok || len(st.Samples) != 2 {
		t.Errorf("TEXT: held export stats ok=%v %+v", ok, st)
	}
	for _, bad := range []string{"", ".", "..", "a/b", `a\b`, ".hidden", "NOPE"} {
		if _, err := c.Dataset(bad); err == nil {
			t.Errorf("Dataset(%q) succeeded", bad)
		}
	}

	keepChr1 := func(chrom string, minStart, maxStop int64) bool { return chrom == "chr1" }
	// A member: real partition skips.
	pruned, st, err := c.DatasetPruned("COL", keepChr1)
	if err != nil {
		t.Fatal(err)
	}
	// Partitions: sample1 chr1+chr2, sample2 chr1 → 3 consulted, 1 skipped.
	if st.Parts != 3 || st.SkippedParts != 1 || st.SkippedRegions != 1 {
		t.Errorf("columnar prune stats = %+v", st)
	}
	if len(pruned.Samples) != 2 {
		t.Fatalf("pruned load dropped samples: %d", len(pruned.Samples))
	}
	for _, s := range pruned.Samples {
		for i := range s.Regions {
			if s.Regions[i].Chrom != "chr1" {
				t.Errorf("pruned load kept %s", s.Regions[i].Chrom)
			}
		}
	}
	// An export: full fallback, honest zero skip accounting.
	full, st2, err := c.DatasetPruned("TEXT", keepChr1)
	if err != nil {
		t.Fatal(err)
	}
	if st2 != (catalog.PruneStats{}) {
		t.Errorf("text fallback stats = %+v, want zero", st2)
	}
	datasetsEqual(t, ds, full)
}

// TestColumnarPrunedReadPolicy: pruned reads follow DirCatalog.Policy. A
// bit-flipped partition the read keeps fails it typed under the strict
// policy; under AllowPartial the sample is excluded and itemized in the
// dataset's integrity report, exactly as OpenDataset does.
func TestColumnarPrunedReadPolicy(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "PEAKS")
	if err := WriteDatasetColumnar(dir, testDataset(t)); err != nil {
		t.Fatal(err)
	}
	flipByte(t, filepath.Join(dir, "sample2.gdmc")) // its one partition, chr1
	keepChr1 := func(chrom string, minStart, maxStop int64) bool { return chrom == "chr1" }

	_, _, err := NewDirCatalog(root).DatasetPruned("PEAKS", keepChr1)
	wantIntegrityError(t, err, ReasonChecksum)

	c := &DirCatalog{Root: root, Policy: IntegrityPolicy{AllowPartial: true}}
	got, _, err := c.DatasetPruned("PEAKS", keepChr1)
	if err != nil {
		t.Fatalf("partial pruned read failed: %v", err)
	}
	if len(got.Samples) != 1 || got.Samples[0].ID != "sample1" {
		t.Fatalf("partial pruned read kept %d samples, want sample1 alone", len(got.Samples))
	}
	var rep *IntegrityReport
	if reps := c.Reports(); len(reps) == 1 && reps[0].Dir == dir {
		rep = reps[0]
	}
	if rep == nil || !rep.Partial() || rep.Verified ||
		rep.Quarantined[0].Sample != "sample2" || rep.Quarantined[0].Reason != ReasonChecksum {
		t.Fatalf("integrity report = %+v, want sample2 excluded for checksum_mismatch", rep)
	}
	// Nothing was moved: the policy has no Quarantine.
	if _, err := os.Stat(filepath.Join(dir, "sample2.gdmc")); err != nil {
		t.Errorf("partial pruned read moved the damaged image: %v", err)
	}
}

// TestColumnarPrunedReadSkipsByMetadata: the sample half of a pruned read
// checks metadata first, so the image of a sample it rejects is never
// opened — damage there passes even the strict policy unseen — while damage
// in what the read does touch still fails it.
func TestColumnarPrunedReadSkipsByMetadata(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "PEAKS")
	ds := testDataset(t)
	if err := WriteDatasetColumnar(dir, ds); err != nil {
		t.Fatal(err)
	}
	flipByte(t, filepath.Join(dir, "sample1.gdmc"))
	keepK562 := catalog.Keep{Sample: func(md *gdm.Metadata) bool { return md.First("cell") == "K562" }}
	got, st, err := NewDirCatalog(root).ReadPruned("PEAKS", keepK562)
	if err != nil {
		t.Fatalf("damage in a sample skipped by metadata failed the read: %v", err)
	}
	if st.SkippedSamples != 1 || st.Parts != 0 {
		t.Errorf("prune stats = %+v, want 1 sample skipped and no partition consulted", st)
	}
	if len(got.Samples) != 1 || got.Samples[0].ID != "sample2" || len(got.Samples[0].Regions) != 1 {
		t.Fatalf("read returned %v", got)
	}
	// The kept sample's metadata is read and verified like any member file.
	flipByte(t, filepath.Join(dir, "sample2.gdm.meta"))
	_, _, err = NewDirCatalog(root).ReadPruned("PEAKS", keepK562)
	wantIntegrityError(t, err, ReasonChecksum)
}
