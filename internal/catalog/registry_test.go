package catalog

import (
	"testing"
)

func TestRepoRecordManifestStats(t *testing.T) {
	r := NewRegistry()
	ds := testDataset(t, "beds", testSample("s", nil, [3]any{"chr1", 0, 100}))
	st := Compute(ds)
	st.Digest = ds.ContentDigest()
	r.Record(Info{Name: "beds", Digest: st.Digest, Source: SourceManifest,
		LoadStats: func() *DatasetStats { return st }, Integrity: "verified"})

	before := LazyScans()
	got, ok := r.Stats("beds")
	if !ok || got != st {
		t.Fatalf("Stats = %v ok=%v, want adopted manifest block", got, ok)
	}
	if LazyScans() != before {
		t.Fatal("usable manifest block must not trigger a scan")
	}
	rows := r.Snapshot()
	if len(rows) != 1 || rows[0].Name != "beds" || rows[0].Regions != 1 || rows[0].Stale {
		t.Fatalf("Snapshot = %+v", rows)
	}
}

func TestRepoLazyScanExactlyOnce(t *testing.T) {
	r := NewRegistry()
	ds := testDataset(t, "legacy", testSample("s", nil, [3]any{"chr1", 5, 50}))
	r.Record(Info{Name: "legacy", Digest: ds.ContentDigest(), Source: SourceScan, Dataset: ds})

	before := LazyScans()
	st, ok := r.Stats("legacy")
	if !ok || st == nil {
		t.Fatal("lazy scan produced no stats")
	}
	if LazyScans() != before+1 {
		t.Fatalf("LazyScans = %d, want %d", LazyScans(), before+1)
	}
	if st.Digest != ds.ContentDigest() {
		t.Fatalf("scan digest = %q", st.Digest)
	}
	// Second access, and the list view, must reuse the cached scan.
	if st2, _ := r.Stats("legacy"); st2 != st {
		t.Fatal("second Stats call rescanned")
	}
	r.Snapshot()
	if LazyScans() != before+1 {
		t.Fatalf("LazyScans after reuse = %d, want %d", LazyScans(), before+1)
	}
}

func TestRepoStaleOnDigestChange(t *testing.T) {
	r := NewRegistry()
	ds := testDataset(t, "d", testSample("s", nil, [3]any{"chr1", 0, 10}))
	r.Record(Info{Name: "d", Digest: ds.ContentDigest(), Source: SourceScan, Dataset: ds})
	if _, ok := r.Stats("d"); !ok {
		t.Fatal("first scan failed")
	}

	// The dataset grows: same name, new digest, no usable block yet.
	ds2 := testDataset(t, "d",
		testSample("s", nil, [3]any{"chr1", 0, 10}),
		testSample("s2", nil, [3]any{"chr2", 0, 10}))
	r.Record(Info{Name: "d", Digest: ds2.ContentDigest(), Source: SourceScan, Dataset: ds2})

	rows := r.Snapshot() // forces the rescan
	if len(rows) != 1 {
		t.Fatalf("Snapshot = %+v", rows)
	}
	if rows[0].Stale {
		t.Fatalf("row still stale after rescan: %+v", rows[0])
	}
	if rows[0].Samples != 2 {
		t.Fatalf("rescan missed the new sample: %+v", rows[0])
	}
	if rows[0].Digest != ds2.ContentDigest() {
		t.Fatalf("digest = %q, want new digest", rows[0].Digest)
	}
}

func TestRepoStaleManifestBlockRescans(t *testing.T) {
	r := NewRegistry()
	ds := testDataset(t, "d", testSample("s", nil, [3]any{"chr1", 0, 10}))
	stale := Compute(ds)
	stale.Digest = "sha256:someone-elses-digest"
	r.Record(Info{Name: "d", Digest: ds.ContentDigest(), Source: SourceManifest,
		LoadStats: func() *DatasetStats { return stale }, Dataset: ds})

	before := LazyScans()
	st, ok := r.Stats("d")
	if !ok || st == stale {
		t.Fatal("stale manifest block adopted as-is")
	}
	if LazyScans() != before+1 {
		t.Fatal("stale block must trigger exactly one rescan")
	}
	if st.Digest != ds.ContentDigest() {
		t.Fatalf("rescan digest = %q", st.Digest)
	}
}

func TestRepoFutureVersionRescans(t *testing.T) {
	r := NewRegistry()
	ds := testDataset(t, "d", testSample("s", nil, [3]any{"chr1", 0, 10}))
	future := Compute(ds)
	future.Version = StatsVersion + 1
	future.Digest = ds.ContentDigest()
	r.Record(Info{Name: "d", Digest: ds.ContentDigest(), Source: SourceManifest,
		LoadStats: func() *DatasetStats { return future }, Dataset: ds})
	st, ok := r.Stats("d")
	if !ok || st == future {
		t.Fatal("future-version block must not be adopted")
	}
	if st.Version != StatsVersion {
		t.Fatalf("rescan version = %d", st.Version)
	}
}

func TestRepoDetail(t *testing.T) {
	r := NewRegistry()
	ds := testDataset(t, "d",
		testSample("a", nil, [3]any{"chr1", 0, 100}, [3]any{"chr2", 10, 30}))
	r.Record(Info{Name: "d", Source: SourceMemory, Dataset: ds})
	d, ok := r.Detail("d")
	if !ok {
		t.Fatal("Detail missing")
	}
	if len(d.Chroms) != 2 || d.Chroms[0].Chrom != "chr1" {
		t.Fatalf("Detail chroms = %+v", d.Chroms)
	}
	if d.Stats == nil || len(d.Stats.Samples) != 1 {
		t.Fatalf("Detail stats = %+v", d.Stats)
	}
	if _, ok := r.Detail("nope"); ok {
		t.Fatal("unknown dataset reported present")
	}
}
