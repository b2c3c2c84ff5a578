package formats

import (
	"bytes"
	"math"
	"math/rand"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"genogo/internal/gdm"
	"genogo/internal/synth"
)

// frameRange is WriteRange into a fresh byte slice.
func frameRange(t testing.TB, f *Frame, start, count int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteRange(&buf, start, count); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sliceDataset is samples [start, start+count) of ds, clamped the way the
// federation server's /results handler documents it: a start past the end is
// the end, and the count is cut to what remains.
func sliceDataset(ds *gdm.Dataset, start, count int) *gdm.Dataset {
	start = min(start, len(ds.Samples))
	count = min(count, len(ds.Samples)-start)
	out := gdm.NewDataset(ds.Name, ds.Schema)
	out.Samples = ds.Samples[start : start+count]
	return out
}

// TestStagedFrameRangeMatchesEncode is the frame's equivalence property: over
// random datasets and random windows, a served range is byte for byte the
// frame EncodeDataset makes of the sliced dataset, and the whole frame is
// Size bytes long.
func TestStagedFrameRangeMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for seed := int64(1); seed <= 12; seed++ {
		g := synth.New(seed)
		rep := g.Replication(1 + rng.Intn(3))
		for _, ds := range []*gdm.Dataset{
			g.Encode(synth.EncodeOptions{Samples: 1 + rng.Intn(12), MeanPeaks: 1 + rng.Intn(40)}),
			g.Annotations(g.Genes(1 + rng.Intn(20))),
			rep.Breakpoints, rep.Expression,
			kindsDataset(t),
			gdm.NewDataset("EMPTY", nil),
		} {
			f, err := NewFrame(ds)
			if err != nil {
				t.Fatal(err)
			}
			n := len(ds.Samples)
			if f.Samples() != n {
				t.Fatalf("%s: frame holds %d samples, dataset %d", ds.Name, f.Samples(), n)
			}
			whole := encodeFrame(t, ds)
			if f.Size() != int64(len(whole)) {
				t.Errorf("%s: Size %d, EncodeDataset wrote %d bytes", ds.Name, f.Size(), len(whole))
			}
			windows := [][2]int{{0, n}, {0, 0}, {n, 1}, {math.MaxInt, math.MaxInt}, {1, math.MaxInt}}
			for range 20 {
				windows = append(windows, [2]int{rng.Intn(n + 3), rng.Intn(n + 3)})
			}
			for _, w := range windows {
				want := encodeFrame(t, sliceDataset(ds, w[0], w[1]))
				if got := frameRange(t, f, w[0], w[1]); !bytes.Equal(got, want) {
					t.Fatalf("%s window start=%d count=%d: served range (%d bytes) differs from the encoded slice (%d bytes)",
						ds.Name, w[0], w[1], len(got), len(want))
				}
			}
		}
	}
}

// TestStagedFrameServeRange: the HTTP form of a range declares the exact
// Content-Length and the frame media type, and carries the same bytes.
func TestStagedFrameServeRange(t *testing.T) {
	ds := synth.New(3).Encode(synth.EncodeOptions{Samples: 7, MeanPeaks: 10})
	f, err := NewFrame(ds)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	f.ServeRange(rec, 2, 3)
	want := frameRange(t, f, 2, 3)
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatal("served body differs from WriteRange")
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
		t.Errorf("Content-Length %q, body %d bytes", cl, len(want))
	}
	if ct := rec.Header().Get("Content-Type"); ct != FrameContentType {
		t.Errorf("Content-Type %q", ct)
	}
}

// TestStagedFrameEncodeErrorIsFirstSample: samples are encoded concurrently,
// but a failure always names the lowest-indexed sample that cannot be
// encoded, so the error reads the same on every run.
func TestStagedFrameEncodeErrorIsFirstSample(t *testing.T) {
	ds := gdm.NewDataset("BAD", gdm.MustSchema(gdm.Field{Name: "n", Type: gdm.KindInt}))
	for i := range 16 {
		s := gdm.NewSample("s" + strconv.Itoa(i))
		if i >= 5 {
			s.AddRegion(gdm.NewRegion("chr1", 1, 2, gdm.StrandNone)) // no value for n
		} else {
			s.AddRegion(gdm.NewRegion("chr1", 1, 2, gdm.StrandNone), gdm.Int(1))
		}
		ds.Samples = append(ds.Samples, s)
	}
	for range 20 {
		f, err := NewFrame(ds)
		if f != nil || err == nil || !strings.Contains(err.Error(), "sample s5 ") {
			t.Fatalf("frame %v, error %v; want the failure of sample s5", f != nil, err)
		}
	}
}
