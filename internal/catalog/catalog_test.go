package catalog

import (
	"testing"

	"genogo/internal/gdm"
)

func testSchema() *gdm.Schema {
	return gdm.MustSchema(
		gdm.Field{Name: "score", Type: gdm.KindFloat},
		gdm.Field{Name: "name", Type: gdm.KindString},
	)
}

func testSample(id string, meta map[string]string, regions ...[3]any) *gdm.Sample {
	s := gdm.NewSample(id)
	for k, v := range meta {
		s.Meta.Add(k, v)
	}
	for _, r := range regions {
		s.AddRegion(gdm.NewRegion(r[0].(string), int64(r[1].(int)), int64(r[2].(int)),
			gdm.StrandNone), gdm.Float(1), gdm.Str("r"))
	}
	s.SortRegions()
	return s
}

func testDataset(t *testing.T, name string, samples ...*gdm.Sample) *gdm.Dataset {
	t.Helper()
	ds := gdm.NewDataset(name, testSchema())
	for _, s := range samples {
		ds.MustAdd(s)
	}
	return ds
}

func TestCatalogComputeSample(t *testing.T) {
	s := testSample("s1", map[string]string{"cell": "HeLa", "type": "ChipSeq"},
		[3]any{"chr1", 100, 200},
		[3]any{"chr1", 150, 400},
		[3]any{"chr2", 50, 60},
	)
	ss := ComputeSample(s)
	if ss.ID != "s1" {
		t.Fatalf("ID = %q", ss.ID)
	}
	if ss.MetaAttrs != 2 {
		t.Fatalf("MetaAttrs = %d, want 2", ss.MetaAttrs)
	}
	if len(ss.Chroms) != 2 {
		t.Fatalf("Chroms = %v, want 2 partitions", ss.Chroms)
	}
	c1 := ss.Chroms[0]
	if c1.Chrom != "chr1" || c1.Regions != 2 || c1.MinStart != 100 || c1.MaxStop != 400 {
		t.Fatalf("chr1 partition = %+v", c1)
	}
	c2 := ss.Chroms[1]
	if c2.Chrom != "chr2" || c2.Regions != 1 || c2.MinStart != 50 || c2.MaxStop != 60 {
		t.Fatalf("chr2 partition = %+v", c2)
	}
	if ss.Regions() != 3 {
		t.Fatalf("Regions() = %d", ss.Regions())
	}
	if c1.Bytes <= 0 || ss.Bytes() != c1.Bytes+c2.Bytes {
		t.Fatalf("Bytes: c1=%d total=%d", c1.Bytes, ss.Bytes())
	}
}

// TestCatalogComputeSampleUnsorted checks the fallback merge path: regions
// whose chromosome runs are interleaved still fold into one cell each.
func TestCatalogComputeSampleUnsorted(t *testing.T) {
	s := gdm.NewSample("u")
	for _, r := range [][3]any{{"chr1", 10, 20}, {"chr2", 5, 9}, {"chr1", 1, 4}} {
		s.AddRegion(gdm.NewRegion(r[0].(string), int64(r[1].(int)), int64(r[2].(int)),
			gdm.StrandNone), gdm.Float(0), gdm.Str(""))
	}
	// deliberately NOT sorted
	ss := ComputeSample(s)
	if len(ss.Chroms) != 2 {
		t.Fatalf("Chroms = %+v, want 2 merged partitions", ss.Chroms)
	}
	if ss.Chroms[0].Chrom != "chr1" || ss.Chroms[0].Regions != 2 ||
		ss.Chroms[0].MinStart != 1 || ss.Chroms[0].MaxStop != 20 {
		t.Fatalf("chr1 = %+v", ss.Chroms[0])
	}
}

func TestCatalogComputeTotalsMatchGDM(t *testing.T) {
	ds := testDataset(t, "d",
		testSample("a", map[string]string{"k": "v"},
			[3]any{"chr1", 0, 10}, [3]any{"chr2", 5, 50}),
		testSample("b", nil, [3]any{"chr2", 100, 200}),
	)
	st := Compute(ds)
	if st.Version != StatsVersion {
		t.Fatalf("Version = %d", st.Version)
	}
	if st.AttrArity != 2 {
		t.Fatalf("AttrArity = %d", st.AttrArity)
	}
	samples, regions, bytes := st.Totals()
	if samples != 2 || regions != ds.NumRegions() {
		t.Fatalf("Totals = (%d, %d), want (2, %d)", samples, regions, ds.NumRegions())
	}
	// The per-region byte estimate mirrors gdm.EstimateBytes' region term;
	// dataset EstimateBytes adds metadata on top, so stats bytes must be
	// positive and not exceed the dataset estimate.
	if bytes <= 0 || bytes > ds.EstimateBytes() {
		t.Fatalf("bytes = %d, dataset estimate %d", bytes, ds.EstimateBytes())
	}
}

func TestCatalogChromTotals(t *testing.T) {
	ds := testDataset(t, "d",
		testSample("a", nil, [3]any{"chr1", 10, 20}, [3]any{"chr2", 0, 5}),
		testSample("b", nil, [3]any{"chr1", 5, 15}),
	)
	tot := Compute(ds).ChromTotals()
	if len(tot) != 2 {
		t.Fatalf("ChromTotals = %+v", tot)
	}
	c1 := tot[0]
	if c1.Chrom != "chr1" || c1.Regions != 2 || c1.Samples != 2 ||
		c1.MinStart != 5 || c1.MaxStop != 20 {
		t.Fatalf("chr1 total = %+v", c1)
	}
	if tot[1].Samples != 1 {
		t.Fatalf("chr2 total = %+v", tot[1])
	}
}

func TestCatalogNilStats(t *testing.T) {
	var st *DatasetStats
	if s, r, b := st.Totals(); s != 0 || r != 0 || b != 0 {
		t.Fatal("nil Totals not zero")
	}
	if st.ChromTotals() != nil {
		t.Fatal("nil ChromTotals not nil")
	}
}
