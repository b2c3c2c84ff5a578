package formats

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"genogo/internal/catalog"
	"genogo/internal/gdm"
)

// TestRepoManifestStatsRoundTrip: WriteDatasetColumnar persists the stats block
// as the manifest-listed stats.json, it reads back intact, and an OpenDataset
// load hands the repository catalog a loader for it: the first catalog read
// serves the block from the file, without rescanning.
func TestRepoManifestStatsRoundTrip(t *testing.T) {
	dir, ds := writeTestDataset(t)
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, listed := man.Files[StatsName]; !listed {
		t.Fatal("manifest does not list stats.json")
	}
	stats, ie := readStats(dir, man)
	if ie != nil {
		t.Fatal(ie)
	}
	if stats.Version != catalog.StatsVersion {
		t.Fatalf("stats version = %d", stats.Version)
	}
	if stats.Digest != man.Digest {
		t.Fatalf("stats digest %q != manifest digest %q", stats.Digest, man.Digest)
	}
	samples, regions, _ := stats.Totals()
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
		t.Fatal("verified load with a stats.json triggered a scan")
	}
	for _, row := range catalog.Repo().Snapshot() {
		if row.Name == ds.Name && row.Source != catalog.SourceManifest {
			t.Errorf("catalog source = %q, want %q", row.Source, catalog.SourceManifest)
		}
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

// dropStats removes a member's stats.json and rewrites its manifest without
// the entry, simulating a member written before the catalog existed.
func dropStats(t *testing.T, dir string) {
	t.Helper()
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	delete(man.Files, StatsName)
	if err := writeManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, StatsName)); err != nil {
		t.Fatal(err)
	}
}

// rewriteStats edits a member's stats block and writes it back as a
// self-consistent stats.json the manifest vouches for, so only the block's
// content is wrong.
func rewriteStats(t *testing.T, dir string, edit func(*catalog.DatasetStats)) {
	t.Helper()
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, ie := readStats(dir, man)
	if ie != nil {
		t.Fatal(ie)
	}
	edit(st)
	info, err := writeStats(dir, st)
	if err != nil {
		t.Fatal(err)
	}
	man.Files[StatsName] = info
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
	if st, ie := readStats(dir, man); ie != nil || st.Digest != man.Digest {
		t.Fatalf("rebuilt stats = %+v, %v", st, ie)
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
	rewriteStats(t, dir, func(st *catalog.DatasetStats) { st.Digest = "sha256:0000000000000000" })

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
	// Lie about a region count: the block verifies structurally (right
	// digest, right version) but disagrees with the data.
	rewriteStats(t, dir, func(st *catalog.DatasetStats) { st.Samples[0].Chroms[0].Regions += 7 })

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
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, ie := readStats(dir, man)
	if ie != nil {
		t.Fatal(ie)
	}
	if mismatch := statsMismatch(st, mustOpen(t, dir)); mismatch != "" {
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

// TestRepoFsckStatsFile: stats.json is verified like any member file, but as
// the one file derived from the others: missing, bit-flipped or stale, it is
// bad_stats — the dataset itself still opens, since no read parses it — and
// -rebuild rewrites it (rebuild_stats), after which fsck is clean.
func TestRepoFsckStatsFile(t *testing.T) {
	for name, damage := range map[string]func(t *testing.T, path string){
		"missing": func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		},
		"bit-flipped": flipByte,
		"stale":       rewriteSelfConsistent,
	} {
		t.Run(name, func(t *testing.T) {
			dir, ds := writeTestDataset(t)
			damage(t, filepath.Join(dir, StatsName))
			if got := mustOpen(t, dir); got.ContentDigest() != ds.ContentDigest() {
				t.Fatal("damaged stats.json changed what the dataset reads as")
			}
			res, err := FsckDataset(dir, FsckOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Problems) != 1 || res.Problems[0].Reason != ReasonBadStats {
				t.Fatalf("problems = %+v, want one bad_stats", res.Problems)
			}
			res, err = FsckDataset(dir, FsckOptions{Rebuild: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Clean() || !hasAction(res, ActionRebuildStats) {
				t.Fatalf("rebuild = %+v", res)
			}
			if res, err = FsckDataset(dir, FsckOptions{}); err != nil || !res.Clean() || len(res.Repaired) != 0 {
				t.Fatalf("second pass not clean: %+v, %v", res, err)
			}
		})
	}
}

// TestRepoInlineStatsMember pins compatibility with members written before
// stats.json existed: testdata/inlinestats/PEAKS was written by that genogo,
// its manifest carrying the stats block inline. Such a member opens verified
// with the block ignored, and DirCatalog.Stats has no block for it until
// gmqlfsck -rebuild moves the block out into stats.json — leaving the
// content digest as it was, and the catalog serving the block from the file.
func TestRepoInlineStatsMember(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "PEAKS")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range dirFiles(t, filepath.Join("testdata", "inlinestats", "PEAKS")) {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	inline := func() bool {
		return strings.Contains(string(dirFiles(t, dir)[ManifestName]), `"stats":`)
	}
	if !inline() {
		t.Fatal("fixture manifest carries no inline stats block")
	}
	ds, rep, err := OpenDataset(dir, IntegrityPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified || rep.Digest != ds.ContentDigest() {
		t.Fatalf("report = %+v, want a verified member", rep)
	}
	c := NewDirCatalog(root)
	if _, ok := c.Stats("PEAKS"); ok {
		t.Fatal("Stats served a block for a member without stats.json")
	}

	res, err := FsckDataset(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Problems) != 1 || res.Problems[0].Reason != ReasonBadStats {
		t.Fatalf("problems = %+v, want one bad_stats", res.Problems)
	}
	if res, err = FsckDataset(dir, FsckOptions{Rebuild: true}); err != nil || !res.Clean() || !hasAction(res, ActionRebuildStats) {
		t.Fatalf("rebuild = %+v, %v", res, err)
	}
	if inline() {
		t.Error("rebuilt manifest still carries the inline block")
	}
	if got := mustOpen(t, dir); got.ContentDigest() != ds.ContentDigest() {
		t.Fatalf("rebuild changed the content digest")
	}
	st, ok := c.Stats("PEAKS")
	if !ok {
		t.Fatal("no stats after rebuild")
	}
	if samples, regions, _ := st.Totals(); samples != len(ds.Samples) || regions != ds.NumRegions() {
		t.Fatalf("stats totals = (%d, %d), want (%d, %d)", samples, regions, len(ds.Samples), ds.NumRegions())
	}
	before := catalog.LazyScans()
	if got, ok := catalog.Repo().Stats("PEAKS"); !ok || got.Digest != ds.ContentDigest() || catalog.LazyScans() != before {
		t.Fatalf("catalog stats = %+v, %v (lazy scans %d -> %d), want the block from stats.json",
			got, ok, before, catalog.LazyScans())
	}
}
