package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"genogo/internal/expr"
	"genogo/internal/gdm"
)

// peakSchema is the test schema: one float score, one string name.
func peakSchema() *gdm.Schema {
	return gdm.MustSchema(
		gdm.Field{Name: "score", Type: gdm.KindFloat},
		gdm.Field{Name: "name", Type: gdm.KindString},
	)
}

// mkSample builds a sorted sample from (chrom,start,stop,strand,score,name)
// tuples.
type regSpec struct {
	chrom       string
	start, stop int64
	strand      gdm.Strand
	score       float64
	name        string
}

func mkSample(id string, meta map[string]string, specs ...regSpec) *gdm.Sample {
	s := gdm.NewSample(id)
	for k, v := range meta {
		s.Meta.Add(k, v)
	}
	for _, sp := range specs {
		s.AddRegion(gdm.NewRegion(sp.chrom, sp.start, sp.stop, sp.strand),
			gdm.Float(sp.score), gdm.Str(sp.name))
	}
	s.SortRegions()
	return s
}

func mkDataset(t *testing.T, name string, samples ...*gdm.Sample) *gdm.Dataset {
	t.Helper()
	ds := gdm.NewDataset(name, peakSchema())
	for _, s := range samples {
		if err := ds.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// randomDataset builds a reproducible random dataset for property and
// mode-equivalence tests.
func randomDataset(rng *rand.Rand, name string, nSamples, regionsPerSample int) *gdm.Dataset {
	return randomDatasetSpan(rng, name, nSamples, regionsPerSample, 100000)
}

// randomDatasetSpan is randomDataset with region starts drawn from [0, span).
func randomDatasetSpan(rng *rand.Rand, name string, nSamples, regionsPerSample int, span int64) *gdm.Dataset {
	ds := gdm.NewDataset(name, peakSchema())
	chroms := []string{"chr1", "chr2", "chr3", "chrX"}
	cells := []string{"HeLa", "K562", "GM12878"}
	types := []string{"ChipSeq", "RnaSeq", "DnaseSeq"}
	for i := 0; i < nSamples; i++ {
		s := gdm.NewSample(name + "-s" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
		s.Meta.Add("cell", cells[rng.Intn(len(cells))])
		s.Meta.Add("dataType", types[rng.Intn(len(types))])
		s.Meta.Add("replicate", string(rune('1'+rng.Intn(3))))
		for j := 0; j < regionsPerSample; j++ {
			start := rng.Int63n(span)
			s.AddRegion(gdm.NewRegion(
				chroms[rng.Intn(len(chroms))], start, start+1+rng.Int63n(2000),
				gdm.Strand(rng.Intn(3)-1)),
				gdm.Float(rng.Float64()*10), gdm.Str("r"))
		}
		s.SortRegions()
		ds.MustAdd(s)
	}
	return ds
}

// allConfigs returns one config per backend, all with small worker counts to
// shake out concurrency bugs under the race detector.
func allConfigs() []Config {
	return []Config{
		{Mode: ModeSerial},
		{Mode: ModeBatch, Workers: 3},
		{Mode: ModeStream, Workers: 3},
	}
}

// datasetsEquivalent fails the test when the datasets differ in schema,
// sample IDs, metadata or regions. Samples are compared after sorting by ID,
// so backend-dependent ordering does not matter.
func datasetsEquivalent(t *testing.T, label string, want, got *gdm.Dataset) {
	t.Helper()
	if !want.Schema.Equal(got.Schema) {
		t.Fatalf("%s: schemas differ: %s vs %s", label, want.Schema, got.Schema)
	}
	a, b := want.Clone(), got.Clone()
	a.SortRegions()
	b.SortRegions()
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("%s: sample counts: %d vs %d", label, len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		sa, sb := a.Samples[i], b.Samples[i]
		if sa.ID != sb.ID {
			t.Fatalf("%s: sample %d ID: %q vs %q", label, i, sa.ID, sb.ID)
		}
		pa, pb := sa.Meta.Pairs(), sb.Meta.Pairs()
		if len(pa) != len(pb) {
			t.Fatalf("%s: sample %s meta: %v vs %v", label, sa.ID, pa, pb)
		}
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("%s: sample %s meta pair %d: %v vs %v", label, sa.ID, j, pa[j], pb[j])
			}
		}
		if len(sa.Regions) != len(sb.Regions) {
			t.Fatalf("%s: sample %s regions: %d vs %d", label, sa.ID, len(sa.Regions), len(sb.Regions))
		}
		for j := range sa.Regions {
			if fmt.Sprint(sa.Regions[j], sa.Row(j)) != fmt.Sprint(sb.Regions[j], sb.Row(j)) {
				t.Fatalf("%s: sample %s region %d: %q vs %q",
					label, sa.ID, j, fmt.Sprint(sa.Regions[j], sa.Row(j)), fmt.Sprint(sb.Regions[j], sb.Row(j)))
			}
		}
	}
}

func countAgg() []expr.Aggregate {
	return []expr.Aggregate{{Output: "count", Func: expr.AggCount}}
}
