package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"genogo/internal/expr"
	"genogo/internal/gdm"
)

// benchData builds a pair of datasets sized for operator micro-benches.
func benchData(samples, regions int) (*gdm.Dataset, *gdm.Dataset) {
	rng := rand.New(rand.NewSource(1))
	return randomDataset(rng, "A", samples, regions), randomDataset(rng, "B", samples, regions)
}

func BenchmarkSelect(b *testing.B) {
	a, _ := benchData(8, 2000)
	pred := expr.Cmp{Op: expr.CmpGt, Left: expr.Attr{Name: "score"}, Right: expr.Const{Value: gdm.Float(5)}}
	for _, cfg := range []Config{
		{Mode: ModeSerial, MetaFirst: true},
		{Mode: ModeStream, Workers: 4, MetaFirst: true},
	} {
		b.Run(cfg.Mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Select(cfg, a, nil, pred); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMapKernel(b *testing.B) {
	ref, exp := benchData(4, 3000)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"sweep", Config{Mode: ModeSerial, MetaFirst: true}},
		{"tree-binned", Config{Mode: ModeSerial, MetaFirst: true, BinWidth: 50000}},
		{"sweep-parallel", Config{Mode: ModeStream, Workers: 4, MetaFirst: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Map(c.cfg, ref, exp, MapArgs{Aggs: countAgg()}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sizeSweep runs fn at 1x, 2x and 4x the base regions per chromosome, with
// the chromosomes lengthened to match: the density, and so the work per
// region of a linear kernel, stays the same, and ns/op should double per step.
func sizeSweep(b *testing.B, samples int, fn func(b *testing.B, ds *gdm.Dataset)) {
	for _, m := range []int{1, 2, 4} {
		rng := rand.New(rand.NewSource(1))
		ds := randomDatasetSpan(rng, "A", samples, 2000*m, 100000*int64(m))
		b.Run(fmt.Sprintf("x%d", m), func(b *testing.B) { fn(b, ds) })
	}
}

func BenchmarkJoinKernel(b *testing.B) {
	l, r := benchData(3, 2000)
	cfg := Config{Mode: ModeStream, Workers: 4, MetaFirst: true}
	preds := map[string]GenometricPred{
		"DLE":    {Conds: []DistCond{{Op: DistLE, Dist: 1000}}},
		"DLE+MD": {Conds: []DistCond{{Op: DistLE, Dist: 5000}}, MinDistK: 3},
	}
	for name, pred := range preds {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Join(cfg, l, r, JoinArgs{Pred: pred, Output: OutLeft}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("MD", func(b *testing.B) {
		sizeSweep(b, 3, func(b *testing.B, ds *gdm.Dataset) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Join(cfg, ds, ds, JoinArgs{Pred: GenometricPred{MinDistK: 2}, Output: OutLeft}); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

func BenchmarkCoverKernel(b *testing.B) {
	a, _ := benchData(10, 2000)
	cfg := Config{Mode: ModeStream, Workers: 4, MetaFirst: true}
	args := func(v CoverVariant) CoverArgs {
		return CoverArgs{Min: CoverBound{Kind: BoundN, N: 2}, Max: CoverBound{Kind: BoundAny}, Variant: v}
	}
	for _, variant := range []CoverVariant{CoverStandard, CoverHistogram, CoverSummit} {
		b.Run(variant.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Cover(cfg, a, args(variant)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run(CoverFlat.String(), func(b *testing.B) {
		sizeSweep(b, 10, func(b *testing.B, ds *gdm.Dataset) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Cover(cfg, ds, args(CoverFlat)); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

func BenchmarkForEachOverhead(b *testing.B) {
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := Config{Mode: ModeStream, Workers: w}
			var sink int64
			for i := 0; i < b.N; i++ {
				cfg.forEach(64, func(j int) { sink += int64(j) })
			}
			_ = sink
		})
	}
}
