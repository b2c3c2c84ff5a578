package formats

import (
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"genogo/internal/gdm"
)

// writeTestDataset materializes the standard test dataset as a member and
// returns its directory plus the dataset.
func writeTestDataset(t *testing.T) (string, *gdm.Dataset) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "PEAKS")
	ds := testDataset(t)
	if err := WriteDatasetColumnar(dir, ds); err != nil {
		t.Fatal(err)
	}
	return dir, ds
}

// flipByte flips one bit of a file — media bit rot: a text file's first
// byte, leaving its footer untouched, or a .gdmc image's last byte, inside
// the partition payload its last checksum covers.
func flipByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	if strings.HasSuffix(path, columnarExt) {
		i = len(data) - 1
	}
	data[i] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// rewriteSelfConsistent rewrites a footered file with one extra comment line
// and a freshly computed footer: the file verifies on its own, but no longer
// matches what the manifest recorded.
func rewriteSelfConsistent(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload, _, _, ok := splitFooter(data)
	if !ok {
		t.Fatalf("%s does not verify before the test even starts", path)
	}
	payload = append(append([]byte{}, payload...), []byte("# edited behind the manifest's back\n")...)
	sum := crc32.Checksum(payload, castagnoli)
	out := append(payload, []byte(footerLine(sum, int64(len(payload))))...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// stripFooter removes the integrity footer line entirely — the on-disk state
// of a file torn at a line boundary.
func stripFooter(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload, _, hasFooter, _ := splitFooter(data)
	if !hasFooter {
		t.Fatalf("%s has no footer to strip", path)
	}
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
}

func wantIntegrityError(t *testing.T, err error, reason FaultReason) *IntegrityError {
	t.Helper()
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("want *IntegrityError(%s), have %v", reason, err)
	}
	if ie.Reason != reason {
		t.Fatalf("reason = %s, want %s (err: %v)", ie.Reason, reason, ie)
	}
	return ie
}

// TestWriteDatasetEmitsManifest: every materialization carries a manifest
// whose checksums match the files and whose digest is the dataset's content
// digest; loading it back reports a fully verified dataset.
func TestWriteDatasetEmitsManifest(t *testing.T) {
	dir, ds := writeTestDataset(t)
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.FormatVersion != ManifestFormatVersion || man.Samples != 2 || man.Dataset != "PEAKS" {
		t.Fatalf("manifest header = %+v", man)
	}
	if man.Digest != ds.ContentDigest() {
		t.Fatalf("manifest digest %s != content digest %s", man.Digest, ds.ContentDigest())
	}
	if man.Layout != LayoutColumnar {
		t.Fatalf("manifest layout = %q", man.Layout)
	}
	want := []string{"sample1.gdm.meta", "sample1.gdmc", "sample2.gdm.meta", "sample2.gdmc", "schema.txt", StatsName}
	if len(man.Files) != len(want) {
		t.Fatalf("manifest files = %v", man.Files)
	}
	for _, f := range want {
		info, ok := man.Files[f]
		if !ok {
			t.Fatalf("manifest misses %s", f)
		}
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(f, columnarExt) {
			if got := columnarFileInfo(data); got != info {
				t.Fatalf("%s: file %+v vs manifest %+v", f, got, info)
			}
			continue
		}
		payload, sum, hasFooter, ok := splitFooter(data)
		if !hasFooter || !ok {
			t.Fatalf("%s has no valid footer", f)
		}
		if crcHex(sum) != info.CRC32C || int64(len(data)) != info.Size {
			t.Fatalf("%s: footer %s/%d vs manifest %s/%d", f, crcHex(sum), len(payload), info.CRC32C, info.Size)
		}
	}

	got, rep, err := OpenDataset(dir, IntegrityPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified || rep.Unverified || rep.Partial() {
		t.Fatalf("report = %+v, want fully verified", rep)
	}
	if rep.Digest != ds.ContentDigest() {
		t.Fatalf("report digest %s != %s", rep.Digest, ds.ContentDigest())
	}
	datasetsEqual(t, ds, got)
}

// TestContentDigestIsContentOnly: the digest identifies logical content — it
// survives a directory rename and changes when a region changes.
func TestContentDigestIsContentOnly(t *testing.T) {
	a := testDataset(t)
	b := testDataset(t)
	b.Name = "RENAMED"
	if a.ContentDigest() != b.ContentDigest() {
		t.Fatal("digest depends on the dataset name")
	}
	b.Samples[0].Regions[0].Start++
	if a.ContentDigest() == b.ContentDigest() {
		t.Fatal("digest blind to a region change")
	}
}

// TestFooterMustBeCanonical: a footer that parses to the right numbers but is
// not byte for byte what the writer renders is damage. The fsck campaign's
// seed 77 flipped one bit of a hex digit ('f' to 'F') and loaded cleanly.
func TestFooterMustBeCanonical(t *testing.T) {
	for what, edit := range map[string]func(string) string{
		"upper-case hex": func(s string) string {
			i := strings.Index(s, "crc32c:") + len("crc32c:")
			return s[:i] + strings.ToUpper(s[i:i+8]) + s[i+8:]
		},
		"signed length": func(s string) string { return strings.Replace(s, "bytes:", "bytes:+", 1) },
	} {
		dir, _ := writeTestDataset(t)
		path := filepath.Join(dir, "sample1.gdm.meta")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		edited := edit(string(data))
		if edited == string(data) {
			continue // a checksum without a letter digit has no upper case
		}
		if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = ReadDataset(dir)
		if ie := wantIntegrityError(t, err, ReasonChecksum); ie == nil {
			t.Fatalf("%s footer loaded cleanly", what)
		}
	}
}

// TestBitFlipFailsStrictLoad: one flipped bit in a region image makes the
// strict load fail with a typed checksum error — never a silently wrong
// dataset.
func TestBitFlipFailsStrictLoad(t *testing.T) {
	dir, _ := writeTestDataset(t)
	flipByte(t, filepath.Join(dir, "sample1.gdmc"))
	_, err := ReadDataset(dir)
	wantIntegrityError(t, err, ReasonChecksum)
}

// TestPartialLoadQuarantines: with AllowPartial+Quarantine a corrupt sample
// is moved into .quarantine (both files, as a unit) and the rest of the
// dataset loads; the report itemizes the exclusion like a federation
// PartialFailure.
func TestPartialLoadQuarantines(t *testing.T) {
	dir, _ := writeTestDataset(t)
	flipByte(t, filepath.Join(dir, "sample1.gdmc"))
	ds, rep, err := OpenDataset(dir, IntegrityPolicy{AllowPartial: true, Quarantine: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Samples) != 1 || ds.Samples[0].ID != "sample2" {
		t.Fatalf("samples = %v", ds.Samples)
	}
	if !rep.Partial() || len(rep.Quarantined) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	q := rep.Quarantined[0]
	if q.Sample != "sample1" || q.Reason != ReasonChecksum || q.MovedTo == "" {
		t.Fatalf("quarantined = %+v", q)
	}
	for _, f := range []string{"sample1.gdmc", "sample1.gdm.meta"} {
		if _, err := os.Stat(filepath.Join(dir, quarantineDirName, f)); err != nil {
			t.Errorf("%s not in quarantine: %v", f, err)
		}
		if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
			t.Errorf("%s still live after quarantine", f)
		}
	}
	// The strict path still refuses the dataset — partial data never
	// impersonates a clean load.
	_, err = ReadDataset(dir)
	wantIntegrityError(t, err, ReasonMissing)
}

// TestTruncationDetected: a text file whose footer is gone (torn at a line
// boundary) or an image shorter than the manifest records is truncation
// damage.
func TestTruncationDetected(t *testing.T) {
	dir, _ := writeTestDataset(t)
	stripFooter(t, filepath.Join(dir, "sample2.gdm.meta"))
	_, err := ReadDataset(dir)
	wantIntegrityError(t, err, ReasonTruncated)

	dir, _ = writeTestDataset(t)
	path := filepath.Join(dir, "sample2.gdmc")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ReadDataset(dir)
	wantIntegrityError(t, err, ReasonTruncated)
}

// TestMissingFileDetected: a vanished region file is typed damage, and the
// partial policy degrades around it.
func TestMissingFileDetected(t *testing.T) {
	dir, _ := writeTestDataset(t)
	if err := os.Remove(filepath.Join(dir, "sample1.gdmc")); err != nil {
		t.Fatal(err)
	}
	_, err := ReadDataset(dir)
	wantIntegrityError(t, err, ReasonMissing)
	ds, rep, err := OpenDataset(dir, IntegrityPolicy{AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Samples) != 1 || !rep.Partial() {
		t.Fatalf("partial load: samples=%d report=%+v", len(ds.Samples), rep)
	}
}

// TestStaleManifestDetected: a self-consistent file the manifest disagrees
// with is its own fault class — the file verifies, the materialization lies.
func TestStaleManifestDetected(t *testing.T) {
	dir, _ := writeTestDataset(t)
	rewriteSelfConsistent(t, filepath.Join(dir, "sample1.gdm.meta"))
	_, err := ReadDataset(dir)
	wantIntegrityError(t, err, ReasonStaleManifest)
}

// TestRogueFileDetected: a region image the manifest does not list cannot be
// trusted, however well it verifies on its own; strict loads fail and partial
// loads exclude it.
func TestRogueFileDetected(t *testing.T) {
	dir, ds := writeTestDataset(t)
	rogue, err := appendColumnarSample(nil, ds.Samples[0], ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "rogue.gdmc"), rogue, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ReadDataset(dir)
	wantIntegrityError(t, err, ReasonStaleManifest)
	got, rep, err := OpenDataset(dir, IntegrityPolicy{AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) != 2 || !rep.Partial() || rep.Quarantined[0].Sample != "rogue" {
		t.Fatalf("ds=%d samples, report=%+v", len(got.Samples), rep)
	}
}

// TestSchemaDamageAlwaysFatal: without a trustworthy schema nothing is
// interpretable, so even the partial policy refuses the load.
func TestSchemaDamageAlwaysFatal(t *testing.T) {
	dir, _ := writeTestDataset(t)
	flipByte(t, filepath.Join(dir, "schema.txt"))
	_, _, err := OpenDataset(dir, IntegrityPolicy{AllowPartial: true, Quarantine: true})
	wantIntegrityError(t, err, ReasonChecksum)
}

// TestBadManifestDetected: a damaged manifest is typed bad_manifest damage,
// not a crash or a silent unverified import.
func TestBadManifestDetected(t *testing.T) {
	dir, _ := writeTestDataset(t)
	flipByte(t, filepath.Join(dir, ManifestName))
	_, _, err := OpenDataset(dir, IntegrityPolicy{AllowPartial: true})
	wantIntegrityError(t, err, ReasonBadManifest)
}

// TestTornRenameDetected: a missing dataset directory with a ".<name>.old"
// sibling is the torn-rename signature, and fsck rolls it back.
func TestTornRenameDetected(t *testing.T) {
	dir, ds := writeTestDataset(t)
	parent := filepath.Dir(dir)
	if err := os.Rename(dir, filepath.Join(parent, ".PEAKS.old")); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenDataset(dir, IntegrityPolicy{})
	wantIntegrityError(t, err, ReasonTornRename)

	results, err := FsckRepo(parent, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !results[0].Clean() {
		t.Fatalf("fsck results = %+v", results)
	}
	if results[0].Repaired[0].Action != ActionRestoreTornRename {
		t.Fatalf("repairs = %+v", results[0].Repaired)
	}
	got, err := ReadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, got)
}

// writeTextExport lays out a text export by hand: no footers, no manifest.
func writeTextExport(t *testing.T, dir string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"schema.txt":  "p_value\tfloat\n",
		"s1.gdm":      "chr1\t100\t200\t+\t0.5\nchr2\t5\t10\t-\t0.25\n",
		"s1.gdm.meta": "cell\tHeLa\n",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLegacyDatasetLoadsUnverified: a text export (no manifest) imports —
// flagged unverified, never refused.
func TestLegacyDatasetLoadsUnverified(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "OLD")
	writeTextExport(t, dir)
	ds, rep, err := OpenDataset(dir, IntegrityPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Unverified || rep.Verified {
		t.Fatalf("report = %+v, want unverified", rep)
	}
	if len(ds.Samples) != 1 || len(ds.Samples[0].Regions) != 2 {
		t.Fatalf("import = %s", ds)
	}
}

// TestRepoIntegrityReports: a catalog keeps the latest verdict on each
// dataset it read — a full load's report, to which a later pruned read adds
// the samples it excluded, once each and without touching the stored report —
// serves all of it on /debug/repo/{name}, and drops it when a dataset is
// registered in memory under the name.
func TestRepoIntegrityReports(t *testing.T) {
	dir, ds := writeTestDataset(t)
	c := &DirCatalog{Root: filepath.Dir(dir), Policy: IntegrityPolicy{AllowPartial: true, Quarantine: true}}
	if _, err := c.Dataset("PEAKS"); err != nil {
		t.Fatal(err)
	}
	loaded := c.Reports()
	if len(loaded) != 1 || loaded[0].Dir != dir || !loaded[0].Verified || loaded[0].SamplesLoaded != 2 {
		t.Fatalf("reports after a full load = %+v, want one verified report for %s", loaded, dir)
	}

	flipByte(t, filepath.Join(dir, "sample2.gdmc")) // its one partition, chr1
	keepChr1 := func(chrom string, minStart, maxStop int64) bool { return chrom == "chr1" }
	for range 2 {
		if _, _, err := c.DatasetPruned("PEAKS", keepChr1); err != nil {
			t.Fatal(err)
		}
	}
	reps := c.Reports()
	if len(reps) != 1 || reps[0].Verified || len(reps[0].Quarantined) != 1 || reps[0].SamplesLoaded != 2 {
		t.Fatalf("reports after two pruned reads = %+v, want the full load's with sample2 added once", reps)
	}
	if q := reps[0].Quarantined[0]; q.Sample != "sample2" || q.Reason != ReasonChecksum || q.MovedTo == "" {
		t.Errorf("quarantined = %+v, want sample2 moved aside for checksum_mismatch", q)
	}
	if !loaded[0].Verified || loaded[0].Partial() {
		t.Errorf("a pruned read modified the stored report: %+v", loaded[0])
	}

	v, ok := c.View().Drill("PEAKS")
	if !ok {
		t.Fatal("no drill-down for PEAKS")
	}
	d := v.(DatasetDetail)
	if d.Integrity != "partial" || d.Quarantined != 1 || d.Report != reps[0] {
		t.Errorf("drill-down = %s %d %+v, want the catalog's partial report", d.Integrity, d.Quarantined, d.Report)
	}
	body, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"report":{"dataset":"PEAKS"`, `"dir":`, `"digest":`, `"verified":false`,
		`"unverified":false`, `"samples_loaded":2`, `"quarantined":[{"sample":"sample2"`, `"file":"sample2.gdmc"`,
		`"reason":"checksum_mismatch"`, `"detail":`, `"moved_to":`} {
		if !strings.Contains(string(body), field) {
			t.Errorf("/debug/repo/PEAKS lacks %s: %s", field, body)
		}
	}

	c.Add(ds.Clone())
	if reps := c.Reports(); len(reps) != 0 {
		t.Errorf("reports after Add = %+v, want none for a dataset registered in memory", reps)
	}
}

// TestCrashRecoveryMatrix kills the writer at each stage of the commit
// sequence and asserts the invariant the storage layer sells: after fsck,
// the directory holds the old materialization in full or the new one in
// full — never a hybrid and never an unreadable state.
func TestCrashRecoveryMatrix(t *testing.T) {
	for _, stage := range []string{"pre-manifest", "pre-rename", "mid-rename"} {
		t.Run(stage, func(t *testing.T) {
			parent := t.TempDir()
			dir := filepath.Join(parent, "PEAKS")
			v1 := testDataset(t)
			if err := WriteDatasetColumnar(dir, v1); err != nil {
				t.Fatal(err)
			}
			v2 := testDataset(t)
			v2.Samples[0].Regions[0].Stop += 1000
			d1, d2 := v1.ContentDigest(), v2.ContentDigest()

			crashPoint = func(s string) {
				if s == stage {
					panic("simulated crash at " + s)
				}
			}
			defer func() { crashPoint = nil }()
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("crash at %s did not fire", stage)
					}
				}()
				_ = WriteDatasetColumnar(dir, v2)
			}()
			crashPoint = nil

			results, err := FsckRepo(parent, FsckOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				if !r.Clean() {
					t.Fatalf("fsck after %s crash left damage: %+v", stage, r.Problems)
				}
			}
			got, rep, err := OpenDataset(dir, IntegrityPolicy{})
			if err != nil {
				t.Fatalf("unreadable after %s crash + fsck: %v", stage, err)
			}
			if !rep.Verified {
				t.Fatalf("after %s crash + fsck: report = %+v", stage, rep)
			}
			if g := got.ContentDigest(); g != d1 && g != d2 {
				t.Fatalf("after %s crash: digest %s is neither old %s nor new %s — hybrid state",
					stage, g, d1, d2)
			}
		})
	}
}

// TestSchemaFieldCap: a schema declaring absurdly many attributes is a parse
// error.
func TestSchemaFieldCap(t *testing.T) {
	var sb strings.Builder
	for i := 0; i <= maxSchemaFields; i++ {
		sb.WriteString("f\tfloat\n")
	}
	if _, err := ReadSchema(strings.NewReader(sb.String())); err == nil {
		t.Fatal("oversized schema accepted")
	}
}

// TestMemberTextMustReadBack: a metadata pair or schema field name the text
// readers would not return unchanged fails the member write with
// ErrUnwritable and commits nothing — a verified member never reads back
// different metadata from what was written.
func TestMemberTextMustReadBack(t *testing.T) {
	for _, pairs := range [][][2]string{
		{{"#hash", "x"}, {"note", "foo\nbar\tbaz"}},
		{{"a\tb", "c"}},
		{{"cr", "x\r"}},
		{{"browser x", "y"}},
		{{"", ""}},
	} {
		ds := testDataset(t)
		for _, p := range pairs {
			ds.Samples[0].Meta.Add(p[0], p[1])
		}
		dir := filepath.Join(t.TempDir(), "PEAKS")
		if err := WriteDatasetColumnar(dir, ds); !errors.Is(err, ErrUnwritable) {
			t.Errorf("meta %q: err = %v, want ErrUnwritable", pairs, err)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("meta %q: a member was committed", pairs)
		}
	}
	ds := testDataset(t)
	ds.Schema = gdm.MustSchema(gdm.Field{Name: "#p_value", Type: gdm.KindFloat}, gdm.Field{Name: "name", Type: gdm.KindString})
	if err := WriteDatasetColumnar(filepath.Join(t.TempDir(), "PEAKS"), ds); !errors.Is(err, ErrUnwritable) {
		t.Errorf("schema field %q: err = %v, want ErrUnwritable", "#p_value", err)
	}

	// What the readers do return unchanged still round-trips.
	ds = testDataset(t)
	ds.Samples[0].Meta.Add(" note ", "tab\tinside, spaces around ")
	dir := filepath.Join(t.TempDir(), "PEAKS")
	if err := WriteDatasetColumnar(dir, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, got)
}
