package formats

import (
	"path/filepath"
	"testing"

	"genogo/internal/catalog"
	"genogo/internal/gdm"
)

// TestRepoManifestStatsRoundTrip: WriteDatasetColumnar persists the stats block,
// ReadManifest returns it intact, and an OpenDataset load hands it to the
// repository catalog without rescanning.
func TestRepoManifestStatsRoundTrip(t *testing.T) {
	dir, ds := writeTestDataset(t)
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Stats == nil {
		t.Fatal("manifest has no stats block")
	}
	if man.Stats.Version != catalog.StatsVersion {
		t.Fatalf("stats version = %d", man.Stats.Version)
	}
	if man.Stats.Digest != man.Digest {
		t.Fatalf("stats digest %q != manifest digest %q", man.Stats.Digest, man.Digest)
	}
	samples, regions, _ := man.Stats.Totals()
	if samples != len(ds.Samples) || regions != ds.NumRegions() {
		t.Fatalf("stats totals = (%d, %d), want (%d, %d)",
			samples, regions, len(ds.Samples), ds.NumRegions())
	}

	before := catalog.LazyScans()
	if _, _, err := OpenDataset(dir, IntegrityPolicy{}); err != nil {
		t.Fatal(err)
	}
	st, ok := catalog.Repo().Stats(ds.Name)
	if !ok || st == nil {
		t.Fatal("catalog has no stats after verified load")
	}
	if catalog.LazyScans() != before {
		t.Fatal("verified load with a manifest stats block triggered a scan")
	}
	if st.Digest != man.Digest {
		t.Fatalf("catalog stats digest = %q, want %q", st.Digest, man.Digest)
	}
}

// TestRepoLegacyDatasetScansLazilyOnce: a text export (no manifest) is cataloged
// without stats; the first catalog read scans it, subsequent reads reuse the
// cached scan.
func TestRepoLegacyDatasetScansLazilyOnce(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "OLDSTATS")
	writeTextExport(t, dir)
	ds, rep, err := OpenDataset(dir, IntegrityPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Unverified {
		t.Fatal("text export loaded verified?")
	}

	before := catalog.LazyScans()
	st, ok := catalog.Repo().Stats(ds.Name)
	if !ok || st == nil {
		t.Fatal("catalog missing text export")
	}
	if catalog.LazyScans() != before+1 {
		t.Fatalf("LazyScans = %d, want %d", catalog.LazyScans(), before+1)
	}
	if _, regions, _ := st.Totals(); regions != ds.NumRegions() {
		t.Fatalf("scanned regions = %d, want %d", regions, ds.NumRegions())
	}
	if _, _ = catalog.Repo().Stats(ds.Name); catalog.LazyScans() != before+1 {
		t.Fatal("second catalog read rescanned")
	}
	// The process-wide registry may hold other tests' entries still awaiting
	// their scan, so the counter check is snapshot idempotence: a second
	// snapshot right after the first must scan nothing.
	rows := catalog.Repo().Snapshot()
	found := false
	for _, r := range rows {
		if r.Name == ds.Name {
			found = true
			if r.Integrity != "unverified" {
				t.Fatalf("integrity = %q", r.Integrity)
			}
		}
	}
	if !found {
		t.Fatal("text export missing from catalog snapshot")
	}
	scans := catalog.LazyScans()
	_ = catalog.Repo().Snapshot()
	if catalog.LazyScans() != scans {
		t.Fatal("snapshot rescanned")
	}
}

// dropStats rewrites a dataset's manifest with the stats block removed,
// simulating a manifest written before the catalog existed.
func dropStats(t *testing.T, dir string) {
	t.Helper()
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	man.Stats = nil
	if err := writeManifest(dir, man); err != nil {
		t.Fatal(err)
	}
}

func TestRepoFsckMissingStats(t *testing.T) {
	dir, _ := writeTestDataset(t)
	dropStats(t, dir)

	res, err := FsckDataset(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean() {
		t.Fatal("missing stats block not reported")
	}
	if res.Problems[0].Reason != ReasonBadStats {
		t.Fatalf("reason = %s", res.Problems[0].Reason)
	}

	res, err = FsckDataset(dir, FsckOptions{Rebuild: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("rebuild left problems: %+v", res.Problems)
	}
	repaired := false
	for _, a := range res.Repaired {
		if a.Action == ActionRebuildStats {
			repaired = true
		}
	}
	if !repaired {
		t.Fatalf("no %s action: %+v", ActionRebuildStats, res.Repaired)
	}
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Stats == nil || man.Stats.Digest != man.Digest {
		t.Fatalf("rebuilt stats = %+v", man.Stats)
	}
	// A second pass must now be clean with nothing left to repair.
	res, err = FsckDataset(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() || len(res.Repaired) != 0 {
		t.Fatalf("second pass not clean: %+v", res)
	}
}

func TestRepoFsckStaleStatsDigest(t *testing.T) {
	dir, _ := writeTestDataset(t)
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	man.Stats.Digest = "sha256:0000000000000000"
	if err := writeManifest(dir, man); err != nil {
		t.Fatal(err)
	}

	res, err := FsckDataset(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean() || res.Problems[0].Reason != ReasonBadStats {
		t.Fatalf("stale digest not reported: %+v", res)
	}
	res, err = FsckDataset(dir, FsckOptions{Rebuild: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("rebuild failed: %+v", res.Problems)
	}
}

func TestRepoFsckInconsistentStats(t *testing.T) {
	dir, _ := writeTestDataset(t)
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Lie about a region count: the block verifies structurally (right
	// digest, right version) but disagrees with the data.
	man.Stats.Samples[0].Chroms[0].Regions += 7
	if err := writeManifest(dir, man); err != nil {
		t.Fatal(err)
	}

	res, err := FsckDataset(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean() || res.Problems[0].Reason != ReasonBadStats {
		t.Fatalf("inconsistent stats not reported: %+v", res)
	}
	res, err = FsckDataset(dir, FsckOptions{Rebuild: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("rebuild failed: %+v", res.Problems)
	}
	man, err = ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if mismatch := statsMismatch(man.Stats, mustOpen(t, dir)); mismatch != "" {
		t.Fatalf("rebuilt stats still diverge: %s", mismatch)
	}
}

func mustOpen(t *testing.T, dir string) *gdm.Dataset {
	t.Helper()
	ds, _, err := OpenDataset(dir, IntegrityPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}
