package formats

import (
	"os"
	"path/filepath"
	"testing"
)

func hasAction(r *FsckResult, action string) bool {
	for _, a := range r.Repaired {
		if a.Action == action {
			return true
		}
	}
	return false
}

// TestFsckCleanRepo: an undamaged repository needs nothing and reports
// everything verified.
func TestFsckCleanRepo(t *testing.T) {
	parent := t.TempDir()
	for _, name := range []string{"A", "B"} {
		if err := WriteDatasetColumnar(filepath.Join(parent, name), testDataset(t)); err != nil {
			t.Fatal(err)
		}
	}
	results, err := FsckRepo(parent, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %+v", results)
	}
	for _, r := range results {
		if !r.Clean() || len(r.Repaired) != 0 || r.Samples != 2 || r.Digest == "" {
			t.Fatalf("result = %+v", r)
		}
	}
}

// TestFsckRemovesOrphanStaging: hidden staging directories of crashed writes
// are deleted without touching the live dataset.
func TestFsckRemovesOrphanStaging(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "PEAKS")
	if err := WriteDatasetColumnar(dir, testDataset(t)); err != nil {
		t.Fatal(err)
	}
	staging := filepath.Join(parent, ".PEAKS.tmp98765")
	if err := os.Mkdir(staging, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(staging, "torn.gdmc"), []byte("GDMC"), 0o644); err != nil {
		t.Fatal(err)
	}
	results, err := FsckRepo(parent, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !results[0].Clean() || !hasAction(results[0], ActionRemoveOrphan) {
		t.Fatalf("results = %+v", results)
	}
	if _, err := os.Stat(staging); !os.IsNotExist(err) {
		t.Fatal("staging leftover survived fsck")
	}
}

// TestFsckRemovesSupersededOld: a ".<name>.old" next to a live dataset is a
// superseded version, not a torn rename, and is discarded.
func TestFsckRemovesSupersededOld(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "PEAKS")
	if err := WriteDatasetColumnar(dir, testDataset(t)); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(parent, ".PEAKS.old")
	if err := os.Mkdir(old, 0o755); err != nil {
		t.Fatal(err)
	}
	results, err := FsckRepo(parent, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !hasAction(results[0], ActionRemoveOrphan) {
		t.Fatalf("results = %+v", results)
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Fatal(".old survived next to a live dataset")
	}
}

// TestFsckRestoresFromQuarantine: a live file that vanished comes back from
// its checksum-matching quarantine copy.
func TestFsckRestoresFromQuarantine(t *testing.T) {
	dir, ds := writeTestDataset(t)
	// Simulate an operator (or an earlier over-eager tool) having moved the
	// file aside: quarantine holds the only good copy.
	if _, err := quarantineFile(dir, "sample1.gdmc"); err != nil {
		t.Fatal(err)
	}
	res, err := FsckDataset(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() || !hasAction(res, ActionRestoreQuarantine) {
		t.Fatalf("result = %+v", res)
	}
	got, err := ReadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, got)
}

// TestFsckPrefersQuarantineOverCorrupt: when the live copy is corrupt and
// quarantine holds a matching one, the corrupt copy is preserved in
// quarantine and the good one restored.
func TestFsckPrefersQuarantineOverCorrupt(t *testing.T) {
	dir, ds := writeTestDataset(t)
	live := filepath.Join(dir, "sample1.gdmc")
	good, err := os.ReadFile(live)
	if err != nil {
		t.Fatal(err)
	}
	qdir := filepath.Join(dir, quarantineDirName)
	if err := os.Mkdir(qdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(qdir, "sample1.gdmc"), good, 0o644); err != nil {
		t.Fatal(err)
	}
	flipByte(t, live)
	res, err := FsckDataset(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() || !hasAction(res, ActionRestoreQuarantine) || !hasAction(res, ActionQuarantineCorrupt) {
		t.Fatalf("result = %+v", res)
	}
	got, err := ReadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, got)
}

// TestFsckCorruptionWithoutRebuild: damage with no good copy is reported,
// not papered over, and nothing is modified without -rebuild authority.
func TestFsckCorruptionWithoutRebuild(t *testing.T) {
	dir, _ := writeTestDataset(t)
	flipByte(t, filepath.Join(dir, "sample1.gdmc"))
	res, err := FsckDataset(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean() {
		t.Fatalf("corrupt dataset reported clean: %+v", res)
	}
	if res.Problems[0].Reason != ReasonChecksum {
		t.Fatalf("problems = %+v", res.Problems)
	}
	if _, err := os.Stat(filepath.Join(dir, "sample1.gdmc")); err != nil {
		t.Fatal("file moved without rebuild authority")
	}
}

// TestFsckRebuildDropsCorrupt: with Rebuild, a corrupt sample is quarantined
// and the manifest rebuilt around the survivors; the result passes the
// strict read.
func TestFsckRebuildDropsCorrupt(t *testing.T) {
	dir, _ := writeTestDataset(t)
	flipByte(t, filepath.Join(dir, "sample1.gdmc"))
	res, err := FsckDataset(dir, FsckOptions{Rebuild: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("rebuild left problems: %+v", res.Problems)
	}
	if !hasAction(res, ActionQuarantineCorrupt) || !hasAction(res, ActionRebuildManifest) {
		t.Fatalf("repairs = %+v", res.Repaired)
	}
	got, err := ReadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) != 1 || got.Samples[0].ID != "sample2" {
		t.Fatalf("rebuilt dataset = %s", got)
	}
	// The corrupt evidence is preserved.
	if _, err := os.Stat(filepath.Join(dir, quarantineDirName, "sample1.gdmc")); err != nil {
		t.Fatal("corrupt file not preserved in quarantine")
	}
}

// TestFsckRebuildUpgradesLegacy: -rebuild converts a text export into a
// member in place — regions rewritten as images, text files footered,
// manifest written, quarantine (and its contents) untouched.
func TestFsckRebuildUpgradesLegacy(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "OLD")
	writeTextExport(t, dir)
	evidence := filepath.Join(dir, quarantineDirName, "earlier.gdm")
	if err := os.MkdirAll(filepath.Dir(evidence), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(evidence, []byte("old evidence\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := FsckDataset(dir, FsckOptions{Rebuild: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() || !hasAction(res, ActionConvertText) || !hasAction(res, ActionRebuildManifest) {
		t.Fatalf("result = %+v", res)
	}
	_, rep, err := OpenDataset(dir, IntegrityPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatalf("upgraded dataset not verified: %+v", rep)
	}
	if _, err := os.Stat(evidence); err != nil {
		t.Fatal("rebuild destroyed the quarantine directory")
	}
}

// TestFsckRebuildRepairsBadManifest: a damaged manifest is a problem without
// Rebuild and reconstructed with it.
func TestFsckRebuildRepairsBadManifest(t *testing.T) {
	dir, ds := writeTestDataset(t)
	flipByte(t, filepath.Join(dir, ManifestName))

	res, err := FsckDataset(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean() || res.Problems[0].Reason != ReasonBadManifest {
		t.Fatalf("result = %+v", res)
	}

	res, err = FsckDataset(dir, FsckOptions{Rebuild: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() || !hasAction(res, ActionRebuildManifest) {
		t.Fatalf("rebuild result = %+v", res)
	}
	got, err := ReadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, got)
}

// TestFsckSchemaUnrepairable: a corrupt schema with no good copy cannot be
// rebuilt around — fsck must say so rather than invent one.
func TestFsckSchemaUnrepairable(t *testing.T) {
	dir, _ := writeTestDataset(t)
	flipByte(t, filepath.Join(dir, "schema.txt"))
	res, err := FsckDataset(dir, FsckOptions{Rebuild: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean() {
		t.Fatalf("schema-corrupt dataset reported clean: %+v", res)
	}
}

// TestFsckRebuildAdoptsStaleFile: a self-consistent file the manifest
// disagrees with becomes truth under Rebuild — the manifest is the
// reconstruction target, the footered file the evidence.
func TestFsckRebuildAdoptsStaleFile(t *testing.T) {
	dir, _ := writeTestDataset(t)
	rewriteSelfConsistent(t, filepath.Join(dir, "sample1.gdm.meta"))
	res, err := FsckDataset(dir, FsckOptions{Rebuild: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() || !hasAction(res, ActionRebuildManifest) {
		t.Fatalf("result = %+v", res)
	}
	got, err := ReadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) != 2 {
		t.Fatalf("rebuilt dataset = %s", got)
	}
}

// TestFsckLegacyWithoutRebuildIsUnverified: fsck without -rebuild reports a
// text export as unverified but does not modify it.
func TestFsckLegacyWithoutRebuildIsUnverified(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "OLD")
	writeTextExport(t, dir)
	res, err := FsckDataset(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() || !res.Unverified || len(res.Repaired) != 0 {
		t.Fatalf("result = %+v", res)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); !os.IsNotExist(err) {
		t.Fatal("fsck wrote a manifest without rebuild authority")
	}
}
