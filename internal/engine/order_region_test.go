package engine

import (
	"genogo/internal/expr"
	"testing"

	"genogo/internal/gdm"
)

func TestOrderRegionTop(t *testing.T) {
	ds := mkDataset(t, "D",
		mkSample("s1", map[string]string{"cell": "HeLa"},
			regSpec{"chr1", 0, 10, gdm.StrandNone, 1, "low"},
			regSpec{"chr1", 20, 30, gdm.StrandNone, 9, "high"},
			regSpec{"chr2", 0, 10, gdm.StrandNone, 5, "mid"},
		),
		mkSample("s2", map[string]string{"cell": "K562"},
			regSpec{"chr1", 0, 10, gdm.StrandNone, 3, "only"},
		),
	)
	out, err := Order(Config{MetaFirst: true}, ds, OrderArgs{
		Keys:       []OrderKey{{Attr: "cell"}},
		RegionKeys: []OrderKey{{Attr: "score", Desc: true}},
		RegionTop:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("canonical order lost: %v", err)
	}
	s1 := out.Sample("s1")
	if len(s1.Regions) != 2 {
		t.Fatalf("s1 regions = %d", len(s1.Regions))
	}
	names := map[string]bool{}
	for i := range s1.Regions {
		names[s1.Row(i)[1].Str()] = true
	}
	if !names["high"] || !names["mid"] || names["low"] {
		t.Errorf("kept = %v, want the 2 best scores", names)
	}
	if len(out.Sample("s2").Regions) != 1 {
		t.Errorf("s2 regions = %d", len(out.Sample("s2").Regions))
	}
}

func TestOrderRegionOnlyKeys(t *testing.T) {
	ds := mkDataset(t, "D",
		mkSample("a", nil,
			regSpec{"chr1", 0, 10, gdm.StrandNone, 2, "x"},
			regSpec{"chr1", 20, 30, gdm.StrandNone, 8, "y"},
		),
	)
	out, err := Order(Config{MetaFirst: true}, ds, OrderArgs{
		RegionKeys: []OrderKey{{Attr: "score", Desc: true}},
		RegionTop:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := out.Samples[0]
	if len(s.Regions) != 1 || s.Row(0)[1].Str() != "y" {
		t.Errorf("regions = %v", s.Regions)
	}
}

func TestOrderRegionErrors(t *testing.T) {
	ds := mkDataset(t, "D", mkSample("a", nil))
	if _, err := Order(Config{}, ds, OrderArgs{
		RegionKeys: []OrderKey{{Attr: "zzz"}},
	}); err == nil {
		t.Error("unknown region key accepted")
	}
}

func TestGroupRegionDedup(t *testing.T) {
	ds := mkDataset(t, "D",
		mkSample("s", map[string]string{"cell": "HeLa"},
			regSpec{"chr1", 0, 10, gdm.StrandNone, 1, "a"},
			regSpec{"chr1", 0, 10, gdm.StrandNone, 3, "b"},
			regSpec{"chr1", 0, 10, gdm.StrandNone, 5, "c"},
			regSpec{"chr1", 20, 30, gdm.StrandNone, 7, "d"},
		),
	)
	out, err := Group(Config{MetaFirst: true}, ds, GroupArgs{
		By: []string{"cell"},
		RegionAggs: []expr.Aggregate{
			{Output: "n", Func: expr.AggCount},
			{Output: "avg", Func: expr.AggAvg, Attr: "score"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	s := out.Samples[0]
	if len(s.Regions) != 2 {
		t.Fatalf("regions = %v", s.Regions)
	}
	ni, _ := out.Schema.Index("n")
	ai, _ := out.Schema.Index("avg")
	if s.Row(0)[ni].Int() != 3 || s.Row(0)[ai].Float() != 3 {
		t.Errorf("dedup aggs = %v", s.Row(0))
	}
	if s.Row(1)[ni].Int() != 1 || s.Row(1)[ai].Float() != 7 {
		t.Errorf("singleton aggs = %v", s.Row(1))
	}
	// Unknown attribute in region aggregate.
	if _, err := Group(Config{}, ds, GroupArgs{
		RegionAggs: []expr.Aggregate{{Output: "x", Func: expr.AggSum, Attr: "zzz"}},
	}); err == nil {
		t.Error("unknown region aggregate attribute accepted")
	}
	// Strand-distinct duplicates stay separate.
	ds2 := mkDataset(t, "D2",
		mkSample("s", nil,
			regSpec{"chr1", 0, 10, gdm.StrandPlus, 1, "p"},
			regSpec{"chr1", 0, 10, gdm.StrandMinus, 2, "m"},
		),
	)
	out2, err := Group(Config{MetaFirst: true}, ds2, GroupArgs{
		RegionAggs: []expr.Aggregate{{Output: "n", Func: expr.AggCount}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out2.Samples[0].Regions) != 2 {
		t.Errorf("strand-distinct collapsed: %v", out2.Samples[0].Regions)
	}
}
