package formats

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"genogo/internal/gdm"
	"genogo/internal/synth"
)

// buildBEDText renders n BED6 lines for parser throughput benches.
func buildBEDText(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "chr%d\t%d\t%d\tpeak%d\t%d\t+\n", i%22+1, i*100, i*100+250, i, i%1000)
	}
	return sb.String()
}

func BenchmarkReadBED(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("lines=%d", n), func(b *testing.B) {
			text := buildBEDText(n)
			b.SetBytes(int64(len(text)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ReadBED("s", strings.NewReader(text)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeDecodeDataset is the wire codec on an ENCODE-like dataset:
// besides time and allocations per call it reports the frame's bytes per
// region and the allocations per region of each direction.
func BenchmarkEncodeDecodeDataset(b *testing.B) {
	g := synth.New(1)
	ds := g.Encode(synth.EncodeOptions{Samples: 20, MeanPeaks: 500})
	var buf bytes.Buffer
	if err := EncodeDataset(&buf, ds); err != nil {
		b.Fatal(err)
	}
	payload := buf.Bytes()
	regions := float64(ds.NumRegions())
	run := func(name string, fn func() error) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					b.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(len(payload))/regions, "B/region")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/regions, "allocs/region")
		})
	}
	run("encode", func() error {
		var out bytes.Buffer
		out.Grow(len(payload))
		return EncodeDataset(&out, ds)
	})
	run("decode", func() error {
		_, err := DecodeDataset(bytes.NewReader(payload))
		return err
	})
}

// BenchmarkDecodeHeadline is the requester's decode of a frame shaped like
// the headline MAP's result (headlineResult: 23 samples of 2,060 named
// promoters with a count).
func BenchmarkDecodeHeadline(b *testing.B) {
	frame := encodeFrame(b, headlineResult())
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteRegions(b *testing.B) {
	s := gdm.NewSample("x")
	for i := int64(0); i < 50000; i++ {
		s.AddRegion(gdm.NewRegion("chr1", i*10, i*10+100, gdm.StrandPlus),
			gdm.Float(0.001), gdm.Float(3.5))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteRegions(&buf, s); err != nil {
			b.Fatal(err)
		}
	}
}
