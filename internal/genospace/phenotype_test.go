package genospace

import (
	"math"
	"testing"

	"genogo/internal/gdm"
)

func labeledDataset() *gdm.Dataset {
	schema := gdm.MustSchema(gdm.Field{Name: "count", Type: gdm.KindInt})
	ds := gdm.NewDataset("SPACE", schema)
	mk := func(id, karyotype string, counts ...int64) {
		s := gdm.NewSample(id)
		s.Meta.Add("right.karyotype", karyotype)
		for i, c := range counts {
			s.AddRegion(gdm.NewRegion("chr1", int64(i)*100, int64(i)*100+50, gdm.StrandNone), gdm.Int(c))
		}
		ds.MustAdd(s)
	}
	// Region 0: strongly phenotype-linked (high in cancer). Region 1: flat.
	// Region 2: anti-linked.
	mk("c1", "cancer", 10, 5, 0)
	mk("c2", "cancer", 9, 5, 1)
	mk("n1", "normal", 1, 5, 9)
	mk("n2", "normal", 0, 5, 10)
	return ds
}

func TestPhenotypeLabels(t *testing.T) {
	ds := labeledDataset()
	labels := PhenotypeLabels(ds, "right.karyotype", "cancer")
	want := []bool{true, true, false, false}
	for i := range want {
		if labels[i] != want[i] {
			t.Errorf("labels[%d] = %v", i, labels[i])
		}
	}
	none := PhenotypeLabels(ds, "missing", "x")
	for _, l := range none {
		if l {
			t.Error("missing attribute labeled true")
		}
	}
}

func TestPhenotypeAssociation(t *testing.T) {
	ds := labeledDataset()
	gs, err := FromMapResult(ds, "count")
	if err != nil {
		t.Fatal(err)
	}
	labels := PhenotypeLabels(ds, "right.karyotype", "cancer")
	assoc, err := gs.PhenotypeAssociation(labels)
	if err != nil {
		t.Fatal(err)
	}
	if len(assoc) != 3 {
		t.Fatalf("associations = %d", len(assoc))
	}
	// Strongest associations first; the flat region must rank last.
	if assoc[2].PointBiserial != 0 {
		t.Errorf("flat region r = %v", assoc[2].PointBiserial)
	}
	// The linked region has r near +1, the anti-linked near -1.
	var pos, neg bool
	for _, a := range assoc[:2] {
		if a.PointBiserial > 0.9 {
			pos = true
			if a.MeanCase <= a.MeanControl {
				t.Errorf("positive association with means %v <= %v", a.MeanCase, a.MeanControl)
			}
		}
		if a.PointBiserial < -0.9 {
			neg = true
		}
	}
	if !pos || !neg {
		t.Errorf("top associations = %+v", assoc[:2])
	}
	for _, a := range assoc {
		if math.Abs(a.PointBiserial) > 1.0000001 {
			t.Errorf("r out of range: %v", a.PointBiserial)
		}
	}
}

func TestPhenotypeAssociationErrors(t *testing.T) {
	ds := labeledDataset()
	gs, err := FromMapResult(ds, "count")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gs.PhenotypeAssociation([]bool{true}); err == nil {
		t.Error("label length mismatch accepted")
	}
	if _, err := gs.PhenotypeAssociation([]bool{true, true, true, true}); err == nil {
		t.Error("all-case labels accepted")
	}
	if _, err := gs.PhenotypeAssociation([]bool{false, false, false, false}); err == nil {
		t.Error("all-control labels accepted")
	}
}
