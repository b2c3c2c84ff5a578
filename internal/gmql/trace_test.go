package gmql

import (
	"testing"

	"genogo/internal/engine"
	"genogo/internal/obs"
)

// TestMetricsGoldenSpanTree pins the rendered profile of the paper's Section 2
// headline query on the serial backend: operator names, plan details, and
// data-volume fields are all stable; durations are zeroed before rendering.
func TestMetricsGoldenSpanTree(t *testing.T) {
	prog, err := Parse(headline)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Config: engine.Config{Mode: engine.ModeSerial, MetaFirst: true}, Catalog: testCatalog(t)}
	results, spans, err := r.MaterializeProfiled(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || len(spans) != 1 {
		t.Fatalf("results=%d spans=%d, want 1 each", len(results), len(spans))
	}
	root := spans[0]
	// The root span's output must agree with the materialized dataset.
	ds := results[0].Dataset
	if root.SamplesOut != len(ds.Samples) || root.RegionsOut != ds.NumRegions() {
		t.Errorf("root out = %ds/%dr, dataset = %ds/%dr",
			root.SamplesOut, root.RegionsOut, len(ds.Samples), ds.NumRegions())
	}
	// Each operator's inputs must total its children's outputs.
	for _, sp := range root.Flatten() {
		if len(sp.Children) == 0 {
			continue
		}
		s, rg := 0, 0
		for _, c := range sp.Children {
			s += c.SamplesOut
			rg += c.RegionsOut
		}
		if sp.SamplesIn != s || sp.RegionsIn != rg {
			t.Errorf("%s: in = %ds/%dr, children total %ds/%dr", sp.Op, sp.SamplesIn, sp.RegionsIn, s, rg)
		}
	}
	root.ZeroDurations()
	want := `MAP peak_count AS COUNT joinby: []  [serial] time=0.0ms in=3s/6r out=2s/4r prunable=0r/0of2p
  SELECT meta: annType == 'promoter'; region: true  [serial] time=0.0ms in=2s/3r out=1s/2r prunable=1s
    SCAN ANNOTATIONS  [serial] time=0.0ms out=2s/3r
  SELECT meta: dataType == 'ChipSeq'; region: true  [serial] time=0.0ms in=3s/5r out=2s/4r prunable=1s
    SCAN ENCODE  [serial] time=0.0ms out=3s/5r
`
	if got := root.Render(); got != want {
		t.Errorf("golden profile mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestMetricsProfiledMatchesUnprofiled checks EvalProfiled returns the same
// dataset as Eval on every backend.
func TestMetricsProfiledMatchesUnprofiled(t *testing.T) {
	prog, err := Parse(headline)
	if err != nil {
		t.Fatal(err)
	}
	cat := testCatalog(t)
	for _, mode := range []engine.Mode{engine.ModeSerial, engine.ModeBatch, engine.ModeStream} {
		r := &Runner{Config: engine.Config{Mode: mode, Workers: 3, MetaFirst: true}, Catalog: cat}
		plain, err := r.Eval(prog, "RESULT")
		if err != nil {
			t.Fatal(err)
		}
		profiled, sp, err := r.EvalProfiled(prog, "RESULT")
		if err != nil {
			t.Fatal(err)
		}
		if sp == nil || sp.Duration() <= 0 {
			t.Errorf("mode %s: missing or unfinished root span", mode)
		}
		if len(plain.Samples) != len(profiled.Samples) || plain.NumRegions() != profiled.NumRegions() {
			t.Errorf("mode %s: profiled result differs: %s vs %s", mode, profiled, plain)
		}
		if sp.RegionsOut != profiled.NumRegions() {
			t.Errorf("mode %s: span regions_out = %d, dataset = %d", mode, sp.RegionsOut, profiled.NumRegions())
		}
	}
}

// TestTraceLiveSpanObserver exercises the live query console path: the
// SpanObserver receives the root span before execution starts, and a
// watcher goroutine snapshots and renders the tree the whole time the
// stream backend is mutating it. Run with -race, this is the proof that a
// mid-flight profile is safe to read.
func TestTraceLiveSpanObserver(t *testing.T) {
	prog, err := Parse(headline)
	if err != nil {
		t.Fatal(err)
	}
	published := make(chan *obs.Span, 1)
	r := &Runner{
		Config:       engine.Config{Mode: engine.ModeStream, Workers: 4, MetaFirst: true},
		Catalog:      testCatalog(t),
		SpanObserver: func(sp *obs.Span) { published <- sp },
	}
	stop := make(chan struct{})
	watched := make(chan int, 1)
	go func() {
		root := <-published
		n := 0
		for {
			select {
			case <-stop:
				watched <- n
				return
			default:
			}
			snap := root.Snapshot()
			_ = snap.Render()
			n++
		}
	}()
	ds, sp, err := r.EvalProfiled(prog, "RESULT")
	close(stop)
	if err != nil {
		t.Fatal(err)
	}
	if n := <-watched; n == 0 {
		t.Error("watcher never snapshotted the live tree")
	}
	// The observer got the same tree the call returned, and the finished
	// snapshot agrees with the result.
	final := sp.Snapshot()
	if final.SamplesOut != len(ds.Samples) || final.RegionsOut != ds.NumRegions() {
		t.Errorf("final snapshot out = %ds/%dr, dataset = %ds/%dr",
			final.SamplesOut, final.RegionsOut, len(ds.Samples), ds.NumRegions())
	}
}
