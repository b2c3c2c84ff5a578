package formats

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"genogo/internal/gdm"
)

func testDataset(t *testing.T) *gdm.Dataset {
	t.Helper()
	schema := gdm.MustSchema(
		gdm.Field{Name: "p_value", Type: gdm.KindFloat},
		gdm.Field{Name: "name", Type: gdm.KindString},
	)
	ds := gdm.NewDataset("PEAKS", schema)
	s1 := gdm.NewSample("sample1")
	s1.Meta.Add("antibody", "CTCF")
	s1.Meta.Add("cell", "HeLa-S3")
	s1.AddRegion(gdm.NewRegion("chr1", 100, 200, gdm.StrandPlus), gdm.Float(0.001), gdm.Str("p1"))
	s1.AddRegion(gdm.NewRegion("chr2", 50, 99, gdm.StrandMinus), gdm.Float(0.2), gdm.Null())
	s1.SortRegions()
	s2 := gdm.NewSample("sample2")
	s2.Meta.Add("cell", "K562")
	s2.AddRegion(gdm.NewRegion("chr1", 10, 20, gdm.StrandNone), gdm.Null(), gdm.Str("q"))
	if err := ds.Add(s1); err != nil {
		t.Fatal(err)
	}
	if err := ds.Add(s2); err != nil {
		t.Fatal(err)
	}
	return ds
}

func datasetsEqual(t *testing.T, a, b *gdm.Dataset) {
	t.Helper()
	if !a.Schema.Equal(b.Schema) {
		t.Fatalf("schemas differ: %s vs %s", a.Schema, b.Schema)
	}
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		sa, sb := a.Samples[i], b.Samples[i]
		if sa.ID != sb.ID {
			t.Fatalf("sample %d ID: %q vs %q", i, sa.ID, sb.ID)
		}
		pa, pb := sa.Meta.Pairs(), sb.Meta.Pairs()
		if len(pa) != len(pb) {
			t.Fatalf("sample %s meta: %v vs %v", sa.ID, pa, pb)
		}
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("sample %s meta pair %d: %v vs %v", sa.ID, j, pa[j], pb[j])
			}
		}
		if len(sa.Regions) != len(sb.Regions) {
			t.Fatalf("sample %s regions: %d vs %d", sa.ID, len(sa.Regions), len(sb.Regions))
		}
		for j := range sa.Regions {
			if fmt.Sprint(sa.Regions[j], sa.Row(j)) != fmt.Sprint(sb.Regions[j], sb.Row(j)) {
				t.Fatalf("sample %s region %d: %q vs %q", sa.ID, j, sa.Regions[j], sb.Regions[j])
			}
		}
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	s := gdm.MustSchema(
		gdm.Field{Name: "p_value", Type: gdm.KindFloat},
		gdm.Field{Name: "hits", Type: gdm.KindInt},
		gdm.Field{Name: "name", Type: gdm.KindString},
		gdm.Field{Name: "ok", Type: gdm.KindBool},
	)
	var buf bytes.Buffer
	if err := WriteSchema(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSchema(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Errorf("round trip = %s, want %s", got, s)
	}
}

func TestReadSchemaErrors(t *testing.T) {
	if _, err := ReadSchema(strings.NewReader("lonelyname\n")); err == nil {
		t.Error("single token accepted")
	}
	if _, err := ReadSchema(strings.NewReader("x\tquux\n")); err == nil {
		t.Error("bad kind accepted")
	}
	if _, err := ReadSchema(strings.NewReader("chr\tstring\n")); err == nil {
		t.Error("reserved name accepted")
	}
}

func TestRegionsRoundTrip(t *testing.T) {
	ds := testDataset(t)
	var buf bytes.Buffer
	if err := WriteRegions(&buf, ds.Samples[0]); err != nil {
		t.Fatal(err)
	}
	s := gdm.NewSample("copy")
	if err := ReadRegions(&buf, ds.Schema, s); err != nil {
		t.Fatal(err)
	}
	if len(s.Regions) != len(ds.Samples[0].Regions) {
		t.Fatalf("regions = %d", len(s.Regions))
	}
	for i := range s.Regions {
		if fmt.Sprint(s.Regions[i], s.Row(i)) != fmt.Sprint(ds.Samples[0].Regions[i], ds.Samples[0].Row(i)) {
			t.Errorf("region %d: %q vs %q", i, s.Regions[i], ds.Samples[0].Regions[i])
		}
	}
}

func TestReadRegionsErrors(t *testing.T) {
	schema := gdm.MustSchema(gdm.Field{Name: "v", Type: gdm.KindFloat})
	bad := []string{
		"chr1\t0\t10",               // missing value column
		"chr1\t0\t10\t+\t1\textra",  // too many
		"chr1\tx\t10\t+\t1",         // bad start
		"chr1\t0\tx\t+\t1",          // bad stop
		"chr1\t0\t10\t%\t1",         // bad strand
		"chr1\t0\t10\t+\tnotafloat", // bad value
	}
	for _, text := range bad {
		s := gdm.NewSample("x")
		if err := ReadRegions(strings.NewReader(text), schema, s); err == nil {
			t.Errorf("ReadRegions(%q) succeeded", text)
		}
	}
}

func TestMetaRoundTrip(t *testing.T) {
	md := gdm.NewMetadata()
	md.Add("cell", "HeLa")
	md.Add("cell", "K562")
	md.Add("type", "ChipSeq")
	var buf bytes.Buffer
	if err := WriteMeta(&buf, md); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMeta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := md.Pairs(), got.Pairs()
	if len(pa) != len(pb) {
		t.Fatalf("pairs = %v vs %v", pa, pb)
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Errorf("pair %d: %v vs %v", i, pa[i], pb[i])
		}
	}
	if _, err := ReadMeta(strings.NewReader("no-tab-here\n")); err == nil {
		t.Error("meta line without tab accepted")
	}
	// Values may contain further tabs: only the first splits.
	got2, err := ReadMeta(strings.NewReader("note\tvalue with\ttab\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got2.First("note") != "value with\ttab" {
		t.Errorf("tabbed value = %q", got2.First("note"))
	}
}

// TestDatasetDirRoundTrip: the text export is plain files — no manifest, no
// footers — and imports back, unverified, to the same dataset.
func TestDatasetDirRoundTrip(t *testing.T) {
	ds := testDataset(t)
	dir := filepath.Join(t.TempDir(), "PEAKS")
	if err := WriteDataset(dir, ds); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == ManifestName || bytes.Contains(data, []byte(footerMagic)) {
			t.Errorf("export holds %s with manifest or footer bytes", e.Name())
		}
	}
	got, rep, err := OpenDataset(dir, IntegrityPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Unverified || rep.Verified {
		t.Errorf("report = %+v, want an unverified import", rep)
	}
	if got.Name != "PEAKS" {
		t.Errorf("name = %q", got.Name)
	}
	datasetsEqual(t, ds, got)
}

func TestReadDatasetMissing(t *testing.T) {
	if _, err := ReadDataset(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing dataset read succeeded")
	}
}
