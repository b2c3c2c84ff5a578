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
// as the manifest-listed stats.json, it reads back intact, and a catalog
// holding the verified load adopts it: the first Stats serves the block from
// the file, without rescanning.
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

	c := NewDirCatalog(filepath.Dir(dir))
	if _, err := c.Dataset(ds.Name); err != nil {
		t.Fatal(err)
	}
	before := LazyScans()
	st, ok := c.Stats(ds.Name)
	if !ok || st == nil {
		t.Fatal("catalog has no stats after verified load")
	}
	if LazyScans() != before {
		t.Fatal("verified load with a stats.json triggered a scan")
	}
	if rows := c.summaries(); len(rows) != 1 || rows[0].Source != SourceManifest || rows[0].Integrity != "verified" {
		t.Errorf("catalog rows = %+v, want one verified row from the manifest", rows)
	}
	if st.Digest != man.Digest {
		t.Fatalf("catalog stats digest = %q, want %q", st.Digest, man.Digest)
	}
}

// TestRepoLegacyDatasetScansLazilyOnce: a text export (no manifest) has no
// stats block; once held, its first Stats scans it and later reads, the
// listing included, reuse the cached scan.
func TestRepoLegacyDatasetScansLazilyOnce(t *testing.T) {
	root := t.TempDir()
	writeTextExport(t, filepath.Join(root, "OLDSTATS"))
	c := NewDirCatalog(root)
	if _, ok := c.Stats("OLDSTATS"); ok {
		t.Fatal("an export not yet held reported a stats block")
	}
	ds, err := c.Dataset("OLDSTATS")
	if err != nil {
		t.Fatal(err)
	}
	if !c.report("OLDSTATS").Unverified {
		t.Fatal("text export loaded verified?")
	}

	before := LazyScans()
	st, ok := c.Stats(ds.Name)
	if !ok || st == nil {
		t.Fatal("catalog missing text export")
	}
	if LazyScans() != before+1 {
		t.Fatalf("LazyScans = %d, want %d", LazyScans(), before+1)
	}
	if _, regions, _ := st.Totals(); regions != ds.NumRegions() {
		t.Fatalf("scanned regions = %d, want %d", regions, ds.NumRegions())
	}
	if _, _ = c.Stats(ds.Name); LazyScans() != before+1 {
		t.Fatal("second catalog read rescanned")
	}
	rows := c.summaries()
	if len(rows) != 1 || rows[0].Integrity != "unverified" || rows[0].Source != SourceScan {
		t.Fatalf("rows = %+v", rows)
	}
	if LazyScans() != before+1 {
		t.Fatal("listing rescanned")
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
	held := NewDirCatalog(root)
	if _, err := held.Dataset("PEAKS"); err != nil {
		t.Fatal(err)
	}
	before := LazyScans()
	if got, ok := held.Stats("PEAKS"); !ok || got.Digest != ds.ContentDigest() || LazyScans() != before {
		t.Fatalf("catalog stats = %+v, %v (lazy scans %d -> %d), want the block from stats.json",
			got, ok, before, LazyScans())
	}
}

// TestRepoWarmServesWhatItHolds: ServeRepository loads every dataset in name
// order and fixes the catalog's contents — a dataset directory added
// afterwards is neither read nor answered for, as with the eager boot it
// replaces.
func TestRepoWarmServesWhatItHolds(t *testing.T) {
	root := t.TempDir()
	ds := testDataset(t)
	for _, name := range []string{"B", "A"} {
		if err := WriteDatasetColumnar(filepath.Join(root, name), ds); err != nil {
			t.Fatal(err)
		}
	}
	c, err := ServeRepository(root)
	if err != nil {
		t.Fatal(err)
	}
	dss, reps := c.Held(), c.Reports()
	if len(dss) != 2 || dss[0].Name != "A" || dss[1].Name != "B" ||
		len(reps) != 2 || !reps[0].Verified || !reps[1].Verified {
		t.Fatalf("Warm held %v datasets, %v reports", dss, reps)
	}
	if err := WriteDatasetColumnar(filepath.Join(root, "LATE"), ds); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Dataset("LATE"); err == nil {
		t.Error("a warmed catalog read a dataset added after boot")
	}
	if _, ok := c.Stats("LATE"); ok {
		t.Error("a warmed catalog answered statistics for a dataset added after boot")
	}
	if got, err := c.Dataset("A"); err != nil || got != dss[0] {
		t.Errorf("Dataset(A) = %p, %v, want the held dataset", got, err)
	}
}
