package formats

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// textMemberFixture copies testdata/textmember/PEAKS — a text member written
// by a genogo whose WriteDataset still produced them (footers, manifest and
// stats block included) — into a fresh directory. It returns the directory
// and the content digest the old manifest records.
func textMemberFixture(t *testing.T) (string, string) {
	t.Helper()
	src := filepath.Join("testdata", "textmember", "PEAKS")
	dir := filepath.Join(t.TempDir(), "PEAKS")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range dirFiles(t, src) {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	payload, _, _, ok := splitFooter(dirFiles(t, dir)[ManifestName])
	var old Manifest
	if !ok || json.Unmarshal(payload, &old) != nil || old.Layout != "" {
		t.Fatal("fixture manifest is not a verified text-layout manifest")
	}
	return dir, old.Digest
}

// dirFiles returns the contents of every regular file directly under dir.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// convert runs fsck -rebuild on dir, requires a clean result, and returns it.
func convert(t *testing.T, dir string) *FsckResult {
	t.Helper()
	res, err := FsckDataset(dir, FsckOptions{Rebuild: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("rebuild left problems: %+v", res.Problems)
	}
	return res
}

// assertConvertedMember checks dir is now a verified member holding no text
// region files, with the given content digest.
func assertConvertedMember(t *testing.T, dir, digest string) {
	t.Helper()
	_, rep, err := OpenDataset(dir, IntegrityPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified || rep.Digest != digest {
		t.Fatalf("report = %+v, want verified with digest %s", rep, digest)
	}
	for name := range dirFiles(t, dir) {
		if strings.HasSuffix(name, ".gdm") {
			t.Errorf("%s survived the conversion", name)
		}
	}
	// A second -rebuild finds nothing to do and changes no byte.
	before := dirFiles(t, dir)
	if res := convert(t, dir); len(res.Repaired) != 0 {
		t.Errorf("second rebuild repaired %+v", res.Repaired)
	}
	if !reflect.DeepEqual(before, dirFiles(t, dir)) {
		t.Error("second rebuild changed the member")
	}
}

// TestOldTextMemberRejected: a text member written by an older genogo is a
// typed bad_manifest that names the conversion, for the read path and for
// fsck without -rebuild, which leaves it untouched.
func TestOldTextMemberRejected(t *testing.T) {
	dir, _ := textMemberFixture(t)
	_, _, err := OpenDataset(dir, IntegrityPolicy{AllowPartial: true})
	if ie := wantIntegrityError(t, err, ReasonBadManifest); !strings.Contains(ie.Detail, "gmqlfsck -rebuild") {
		t.Errorf("detail %q does not name gmqlfsck -rebuild", ie.Detail)
	}
	before := dirFiles(t, dir)
	res, err := FsckDataset(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean() || res.Problems[0].Reason != ReasonBadManifest {
		t.Fatalf("result = %+v", res)
	}
	if !reflect.DeepEqual(before, dirFiles(t, dir)) {
		t.Error("fsck without -rebuild modified the directory")
	}
}

// TestFsckConvertTextMember: -rebuild converts an old text member into a
// member holding the same content, and a second -rebuild is a no-op.
func TestFsckConvertTextMember(t *testing.T) {
	dir, digest := textMemberFixture(t)
	res := convert(t, dir)
	if !hasAction(res, ActionConvertText) || !hasAction(res, ActionRebuildManifest) {
		t.Fatalf("repairs = %+v", res.Repaired)
	}
	assertConvertedMember(t, dir, digest)
}

// TestFsckConvertQuarantinesCorruptText: a .gdm whose footer no longer
// matches is quarantined with its metadata, never converted; the other
// samples are.
func TestFsckConvertQuarantinesCorruptText(t *testing.T) {
	dir, _ := textMemberFixture(t)
	flipByte(t, filepath.Join(dir, "sample2.gdm"))
	convert(t, dir)
	got, err := ReadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) != 2 || got.Samples[0].ID != "sample1" || got.Samples[1].ID != "sample3" {
		t.Fatalf("converted samples = %v", got.Samples)
	}
	for _, f := range []string{"sample2.gdm", "sample2.gdm.meta"} {
		if _, err := os.Stat(filepath.Join(dir, quarantineDirName, f)); err != nil {
			t.Errorf("%s not quarantined: %v", f, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "sample2.gdmc")); !os.IsNotExist(err) {
		t.Error("the corrupt sample was converted")
	}
}

// keepFirstLine truncates a file after its first line: the rest of the
// payload and the footer are lost, and what is left still parses.
func keepFirstLine(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:bytes.IndexByte(data, '\n')+1], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFsckConvertQuarantinesTruncatedText: in a directory with a manifest,
// a text file that lost its footer is truncated, not an export's file: it is
// quarantined, never parsed into the member.
func TestFsckConvertQuarantinesTruncatedText(t *testing.T) {
	t.Run("regions", func(t *testing.T) {
		dir, _ := textMemberFixture(t)
		keepFirstLine(t, filepath.Join(dir, "sample3.gdm"))
		convert(t, dir)
		got, err := ReadDataset(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Samples) != 2 || got.Samples[0].ID != "sample1" || got.Samples[1].ID != "sample2" {
			t.Fatalf("converted samples = %v", got.Samples)
		}
		if _, err := os.Stat(filepath.Join(dir, quarantineDirName, "sample3.gdm")); err != nil {
			t.Errorf("truncated sample3.gdm not quarantined: %v", err)
		}
	})
	t.Run("meta", func(t *testing.T) {
		dir, _ := textMemberFixture(t)
		keepFirstLine(t, filepath.Join(dir, "sample3.gdm.meta"))
		convert(t, dir)
		got, err := ReadDataset(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range got.Samples {
			if s.ID == "sample3" && len(s.Meta.Pairs()) != 0 {
				t.Errorf("sample3 kept truncated metadata %v", s.Meta.Pairs())
			}
		}
		if _, err := os.Stat(filepath.Join(dir, quarantineDirName, "sample3.gdm.meta")); err != nil {
			t.Errorf("truncated sample3.gdm.meta not quarantined: %v", err)
		}
	})
	t.Run("schema", func(t *testing.T) {
		dir, _ := textMemberFixture(t)
		keepFirstLine(t, filepath.Join(dir, "schema.txt"))
		res, err := FsckDataset(dir, FsckOptions{Rebuild: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Clean() {
			t.Fatalf("a member without its schema rebuilt clean: %+v", res)
		}
		if _, err := os.Stat(filepath.Join(dir, quarantineDirName, "schema.txt")); err != nil {
			t.Errorf("truncated schema.txt not quarantined: %v", err)
		}
	})
}

// TestFsckRebuildQuarantinesStrayText: a .gdm beside a sound image is removed
// only when it holds the image's regions; any other is evidence and goes to
// .quarantine.
func TestFsckRebuildQuarantinesStrayText(t *testing.T) {
	dir, digest := textMemberFixture(t)
	convert(t, dir)
	stray, err := os.ReadFile(filepath.Join("testdata", "textmember", "PEAKS", "sample3.gdm"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sample1.gdm"), stray, 0o644); err != nil {
		t.Fatal(err)
	}
	convert(t, dir)
	kept, err := os.ReadFile(filepath.Join(dir, quarantineDirName, "sample1.gdm"))
	if err != nil || !bytes.Equal(kept, stray) {
		t.Fatalf("stray sample1.gdm not quarantined intact: %v", err)
	}
	assertConvertedMember(t, dir, digest)
}

// TestImportChecksFooters: a footered text directory that lost its manifest
// imports unverified, but a footer that does not match fails the load.
func TestImportChecksFooters(t *testing.T) {
	dir, _ := textMemberFixture(t)
	if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatal(err)
	}
	if _, rep, err := OpenDataset(dir, IntegrityPolicy{}); err != nil || !rep.Unverified {
		t.Fatalf("intact import: report %+v, err %v", rep, err)
	}
	flipByte(t, filepath.Join(dir, "sample2.gdm.meta"))
	_, _, err := OpenDataset(dir, IntegrityPolicy{})
	wantIntegrityError(t, err, ReasonChecksum)
	res, err := FsckDataset(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean() || res.Problems[0].Reason != ReasonChecksum {
		t.Fatalf("fsck result = %+v", res)
	}
}

// TestFsckConvertResumesInterrupted: a conversion interrupted at any step —
// one sample done, one image written but its text not yet removed, one image
// torn mid-write, no manifest yet — finishes under a second -rebuild with
// exactly the member an uninterrupted run writes.
func TestFsckConvertResumesInterrupted(t *testing.T) {
	want, digest := textMemberFixture(t)
	convert(t, want)
	wantFiles := dirFiles(t, want)

	dir, _ := textMemberFixture(t)
	if err := os.WriteFile(filepath.Join(dir, "sample1.gdmc"), wantFiles["sample1.gdmc"], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "sample1.gdm")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sample2.gdmc"), wantFiles["sample2.gdmc"], 0o644); err != nil {
		t.Fatal(err)
	}
	torn := wantFiles["sample3.gdmc"]
	if err := os.WriteFile(filepath.Join(dir, "sample3.gdmc"), torn[:len(torn)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	convert(t, dir)
	if got := dirFiles(t, dir); !reflect.DeepEqual(got, wantFiles) {
		t.Errorf("resumed conversion differs from an uninterrupted one: %d vs %d files", len(got), len(wantFiles))
		for name, data := range wantFiles {
			if string(got[name]) != string(data) {
				t.Errorf("%s differs", name)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDirName, "sample3.gdmc")); err != nil {
		t.Errorf("torn image not quarantined: %v", err)
	}
	assertConvertedMember(t, dir, digest)
}

// TestFsckConvertExport: -rebuild converts a text export — footerless files,
// no manifest — into a member of the same content.
func TestFsckConvertExport(t *testing.T) {
	ds := testDataset(t)
	dir := filepath.Join(t.TempDir(), "PEAKS")
	if err := WriteDataset(dir, ds); err != nil {
		t.Fatal(err)
	}
	res := convert(t, dir)
	// schema.txt, two regions files and two metadata files.
	converted := 0
	for _, a := range res.Repaired {
		if a.Action == ActionConvertText {
			converted++
		}
	}
	if converted != 5 {
		t.Errorf("%d convert_text repairs, want 5: %+v", converted, res.Repaired)
	}
	assertConvertedMember(t, dir, ds.ContentDigest())
	got, err := ReadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, got)
}
