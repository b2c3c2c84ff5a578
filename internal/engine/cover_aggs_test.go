package engine

import (
	"testing"

	"genogo/internal/expr"
	"genogo/internal/gdm"
)

func TestCoverWithAggregates(t *testing.T) {
	ds := mkDataset(t, "D",
		mkSample("a", nil,
			regSpec{"chr1", 0, 100, gdm.StrandNone, 2, "x"},
		),
		mkSample("b", nil,
			regSpec{"chr1", 50, 150, gdm.StrandNone, 4, "y"},
		),
		mkSample("c", nil,
			regSpec{"chr1", 300, 400, gdm.StrandNone, 10, "z"},
		),
	)
	out, err := Cover(Config{}, ds, CoverArgs{
		Min: CoverBound{Kind: BoundN, N: 2}, Max: CoverBound{Kind: BoundAny},
		Aggs: []expr.Aggregate{
			{Output: "n", Func: expr.AggCount},
			{Output: "avg_score", Func: expr.AggAvg, Attr: "score"},
			{Output: "max_score", Func: expr.AggMax, Attr: "score"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []string{"acc_index", "n", "avg_score", "max_score"}
	for i, name := range want {
		if out.Schema.Field(i).Name != name {
			t.Fatalf("schema = %s", out.Schema)
		}
	}
	s := out.Samples[0]
	// Only [50,100) reaches depth 2; contributing regions are x and y.
	if len(s.Regions) != 1 {
		t.Fatalf("regions = %v", s.Regions)
	}
	r := s.Regions[0]
	if r.Start != 50 || r.Stop != 100 {
		t.Errorf("region = %v", r)
	}
	ni, _ := out.Schema.Index("n")
	ai, _ := out.Schema.Index("avg_score")
	mi, _ := out.Schema.Index("max_score")
	if s.Row(0)[ni].Int() != 2 {
		t.Errorf("n = %v", s.Row(0)[ni])
	}
	if s.Row(0)[ai].Float() != 3 {
		t.Errorf("avg = %v", s.Row(0)[ai])
	}
	if s.Row(0)[mi].Float() != 4 {
		t.Errorf("max = %v", s.Row(0)[mi])
	}
}

func TestCoverAggregatesAcrossVariantsAndModes(t *testing.T) {
	ds := coverFixture(t)
	for _, variant := range []CoverVariant{CoverStandard, CoverHistogram, CoverSummit, CoverFlat} {
		var ref *gdm.Dataset
		for _, cfg := range allConfigs() {
			out, err := Cover(cfg, ds, CoverArgs{
				Min: CoverBound{Kind: BoundAny}, Max: CoverBound{Kind: BoundAny},
				Variant: variant,
				Aggs:    []expr.Aggregate{{Output: "contrib", Func: expr.AggCount}},
			})
			if err != nil {
				t.Fatalf("%s %s: %v", variant, cfg.Mode, err)
			}
			if err := out.Validate(); err != nil {
				t.Fatalf("%s %s: %v", variant, cfg.Mode, err)
			}
			ci, _ := out.Schema.Index("contrib")
			for _, s := range out.Samples {
				for i, r := range s.Regions {
					if s.Row(i)[ci].Int() < 1 {
						t.Fatalf("%s: output region %v has no contributors", variant, r)
					}
				}
			}
			if ref == nil {
				ref = out
			} else {
				datasetsEquivalent(t, variant.String()+"/"+cfg.Mode.String(), ref, out)
			}
		}
	}
}

func TestCoverAggregateUnknownAttr(t *testing.T) {
	ds := coverFixture(t)
	_, err := Cover(Config{}, ds, CoverArgs{
		Min: CoverBound{Kind: BoundAny}, Max: CoverBound{Kind: BoundAny},
		Aggs: []expr.Aggregate{{Output: "x", Func: expr.AggSum, Attr: "zzz"}},
	})
	if err == nil {
		t.Error("unknown attribute accepted")
	}
}
