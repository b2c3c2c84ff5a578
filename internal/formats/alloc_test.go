package formats

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"genogo/internal/gdm"
	"genogo/internal/synth"
)

// allocPerRun is the bytes and the allocations one call of f costs, averaged
// over runs calls after a warm-up call.
func allocPerRun(runs int, f func()) (bytes, allocs float64) {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs),
		float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// headlineResult is shaped like the result of the headline MAP: every one of
// 2,060 promoters, named, with a peak count, in each of 23 samples carrying
// the metadata of both inputs.
func headlineResult() *gdm.Dataset {
	g := synth.New(30)
	proms := g.Annotations(g.Genes(2060)).Samples[0]
	rng := rand.New(rand.NewSource(30))
	ds := gdm.NewDataset("RESULT", gdm.MustSchema(
		gdm.Field{Name: "name", Type: gdm.KindString},
		gdm.Field{Name: "peak_count", Type: gdm.KindInt},
	))
	for i := range 23 {
		s := gdm.NewSample(fmt.Sprintf("exp%02d", i))
		for _, kv := range [][2]string{{"annType", "promoter"}, {"provider", "UCSC"}, {"dataType", "ChipSeq"},
			{"antibody", "CTCF"}, {"cell", "K562"}, {"treatment", "none"}, {"sex", "F"}, {"replicate", fmt.Sprint(i)}} {
			s.Meta.Add(kv[0], kv[1])
		}
		for j, r := range proms.Regions {
			s.AddRegion(r, proms.Row(j)[0], gdm.Int(int64(rng.Intn(4)*rng.Intn(3))))
		}
		ds.MustAdd(s)
	}
	return ds
}

// TestDecodeBytesPerRegion budgets the requester's side of the headline: a
// decoded region costs its Region, its values in the sample's one slab and
// its share of the string block, and allocations come per partition, not
// per region.
func TestDecodeBytesPerRegion(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	ds := headlineResult()
	frame := encodeFrame(t, ds)
	regions := float64(ds.NumRegions())
	bytes, allocs := allocPerRun(5, func() {
		if _, err := DecodeFrame(frame); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f regions: %.1f B and %.4f allocations per decoded region", regions, bytes/regions, allocs/regions)
	if got := bytes / regions; got > 125 {
		t.Errorf("decode allocates %.1f B per region, want <= 125", got)
	}
	if got := allocs / regions; got > 0.07 {
		t.Errorf("decode makes %.4f allocations per region, want <= 0.07", got)
	}
}

// TestReadMetaAllocs: a metadata file is read from its verified payload in a
// buffer its size, not in the scanner's default 64 KiB, which a read of a
// many-sample member would otherwise allocate and zero once per sample.
func TestReadMetaAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	ds := gdm.NewDataset("M", gdm.MustSchema())
	s := gdm.NewSample("s")
	for _, kv := range [][2]string{{"dataType", "ChipSeq"}, {"antibody", "CTCF"}, {"cell", "K562"}, {"treatment", "none"}, {"sex", "F"}} {
		s.Meta.Add(kv[0], kv[1])
	}
	ds.MustAdd(s)
	dir := filepath.Join(t.TempDir(), "M")
	if err := WriteDatasetColumnar(dir, ds); err != nil {
		t.Fatal(err)
	}
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	bytes, _ := allocPerRun(20, func() {
		got := gdm.NewSample("s")
		if ie := readSampleMeta(dir, "s", man, got); ie != nil || got.Meta.Len() != 5 {
			t.Fatalf("read %v pairs, error %v", got.Meta, ie)
		}
	})
	t.Logf("reading a 5-pair metadata file allocates %.0f B", bytes)
	if bytes >= 4<<10 {
		t.Errorf("reading a 5-pair metadata file allocates %.0f B, want < 4 KiB", bytes)
	}
}
