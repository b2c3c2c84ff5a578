package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"genogo/internal/formats"
	"genogo/internal/gdm"
	"genogo/internal/resilience"
)

func campaignDataset(t *testing.T, name string) *gdm.Dataset {
	t.Helper()
	schema := gdm.MustSchema(
		gdm.Field{Name: "p_value", Type: gdm.KindFloat},
		gdm.Field{Name: "name", Type: gdm.KindString},
	)
	ds := gdm.NewDataset(name, schema)
	for _, id := range []string{"s1", "s2", "s3"} {
		s := gdm.NewSample(id)
		s.Meta.Add("source", "campaign")
		s.AddRegion(gdm.NewRegion("chr1", 100, 200, gdm.StrandPlus), gdm.Float(0.01), gdm.Str(id))
		s.AddRegion(gdm.NewRegion("chr2", 10, 20, gdm.StrandMinus), gdm.Float(0.5), gdm.Null())
		if err := ds.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func TestFsckCLIUsage(t *testing.T) {
	var out, errOut bytes.Buffer
	if rc := run(nil, &out, &errOut); rc != 2 {
		t.Errorf("missing -data: rc = %d, want 2", rc)
	}
	if rc := run([]string{"-data", "/nonexistent/xyz"}, &out, &errOut); rc != 2 {
		t.Errorf("unreadable root: rc = %d, want 2", rc)
	}
}

func TestFsckCLICleanAndDamaged(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "DS")
	if err := formats.WriteDatasetColumnar(dir, campaignDataset(t, "DS")); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if rc := run([]string{"-data", root, "-v"}, &out, &errOut); rc != 0 {
		t.Fatalf("clean repo: rc = %d, output:\n%s%s", rc, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "1 clean") {
		t.Errorf("output = %q", out.String())
	}

	// Corrupt a sample: detection without -rebuild exits 1 and names the
	// damage; -rebuild repairs and exits 0.
	data, err := os.ReadFile(filepath.Join(dir, "s1.gdmc"))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40 // inside the last partition's payload
	if err := os.WriteFile(filepath.Join(dir, "s1.gdmc"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if rc := run([]string{"-data", root}, &out, &errOut); rc != 1 {
		t.Fatalf("damaged repo: rc = %d, want 1; output:\n%s", rc, out.String())
	}
	if !strings.Contains(out.String(), string(formats.ReasonChecksum)) {
		t.Errorf("damage not named: %q", out.String())
	}
	out.Reset()
	if rc := run([]string{"-data", root, "-rebuild"}, &out, &errOut); rc != 0 {
		t.Fatalf("rebuild: rc = %d, output:\n%s", rc, out.String())
	}
	out.Reset()
	if rc := run([]string{"-data", root}, &out, &errOut); rc != 0 {
		t.Fatalf("post-repair verify: rc = %d, output:\n%s", rc, out.String())
	}
}

func TestFsckCLISingleDatasetAndJSON(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "DS")
	if err := formats.WriteDatasetColumnar(dir, campaignDataset(t, "DS")); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if rc := run([]string{"-data", dir, "-json"}, &out, &errOut); rc != 0 {
		t.Fatalf("rc = %d, stderr: %s", rc, errOut.String())
	}
	var results []*formats.FsckResult
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatalf("non-JSON output: %v\n%s", err, out.String())
	}
	if len(results) != 1 || results[0].Samples != 3 || results[0].Digest == "" {
		t.Fatalf("results = %+v", results[0])
	}
}

// TestFsckCampaign is the corruption-chaos round trip: seeded faults are
// injected into a live repository, gmqlfsck detects and repairs them, and the
// repaired repository must verify clean with zero silent wrong-result loads —
// every strict read either verifies against the rebuilt manifest or fails
// typed. The iteration count defaults low for the ordinary test run;
// GENOGO_FSCK_CAMPAIGN raises it (CI runs 400).
func TestFsckCampaign(t *testing.T) {
	iterations := 25
	if env := os.Getenv("GENOGO_FSCK_CAMPAIGN"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil {
			t.Fatalf("GENOGO_FSCK_CAMPAIGN=%q: %v", env, err)
		}
		iterations = n
	}
	t.Run("columnar", func(t *testing.T) {
		for i := 0; i < iterations; i++ {
			seed := int64(i + 1)
			root := t.TempDir()
			want := campaignDataset(t, "DS")
			dir := filepath.Join(root, "DS")
			if err := formats.WriteDatasetColumnar(dir, want); err != nil {
				t.Fatal(err)
			}
			inj := &resilience.DiskFaultInjector{Seed: seed}
			class, err := inj.Inject(dir)
			if err != nil {
				t.Fatalf("seed %d: inject: %v", seed, err)
			}

			// Detect: the strict read path must refuse the damage. A fault the
			// verified path cannot see would be a silent wrong-result load.
			if _, err := formats.ReadDataset(dir); err == nil {
				t.Fatalf("seed %d: strict read succeeded on %s damage", seed, class)
			}

			repairAndVerify(t, root, dir, want, seed, class)
		}
	})
}

// repairAndVerify runs gmqlfsck -rebuild, then re-checks: a second pass finds
// nothing, the strict read verifies end to end, and every surviving sample is
// identical to what was written — repaired never means silently altered.
func repairAndVerify(t *testing.T, root, dir string, want *gdm.Dataset, seed int64, class string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if rc := run([]string{"-data", root, "-rebuild"}, &out, &errOut); rc != 0 {
		t.Fatalf("seed %d (%s): repair rc = %d\n%s%s", seed, class, rc, out.String(), errOut.String())
	}
	out.Reset()
	if rc := run([]string{"-data", root}, &out, &errOut); rc != 0 {
		t.Fatalf("seed %d (%s): post-repair fsck rc = %d\n%s", seed, class, rc, out.String())
	}
	got, rep, err := formats.OpenDataset(dir, formats.IntegrityPolicy{})
	if err != nil {
		t.Fatalf("seed %d (%s): post-repair strict read: %v", seed, class, err)
	}
	if !rep.Verified {
		t.Fatalf("seed %d (%s): post-repair report = %+v", seed, class, rep)
	}
	wantByID := map[string]*gdm.Sample{}
	for _, s := range want.Samples {
		wantByID[s.ID] = s
	}
	for _, s := range got.Samples {
		w, ok := wantByID[s.ID]
		if !ok {
			t.Fatalf("seed %d (%s): repaired dataset invented sample %s", seed, class, s.ID)
		}
		if len(s.Regions) != len(w.Regions) {
			t.Fatalf("seed %d (%s): sample %s regions %d != %d", seed, class, s.ID, len(s.Regions), len(w.Regions))
		}
		for j := range s.Regions {
			if fmt.Sprint(s.Regions[j], s.Row(j)) != fmt.Sprint(w.Regions[j], w.Row(j)) {
				t.Fatalf("seed %d (%s): sample %s region %d: %q != %q",
					seed, class, s.ID, j, s.Regions[j], w.Regions[j])
			}
		}
	}
}

// TestFsckCampaignColumnarBoundaries aims chaos exactly where the columnar
// format is most sensitive: a bit flip or truncation at every CRC-protected
// section boundary of a .gdmc file. Each must be detected by the strict read
// and repaired by gmqlfsck -rebuild.
func TestFsckCampaignColumnarBoundaries(t *testing.T) {
	probe := filepath.Join(t.TempDir(), "DS")
	if err := formats.WriteDatasetColumnar(probe, campaignDataset(t, "DS")); err != nil {
		t.Fatal(err)
	}
	offsets, err := formats.ColumnarSectionOffsets(filepath.Join(probe, "s1.gdmc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(offsets) < 2 {
		t.Fatalf("probe file has %d sections", len(offsets))
	}
	seed := int64(1)
	for _, class := range []string{resilience.DiskFaultBitFlip, resilience.DiskFaultTruncate} {
		for oi, off := range offsets {
			if class == resilience.DiskFaultTruncate && off == 0 {
				continue // truncate-to-zero is the empty file, exercised by the fuzz target
			}
			root := t.TempDir()
			want := campaignDataset(t, "DS")
			dir := filepath.Join(root, "DS")
			if err := formats.WriteDatasetColumnar(dir, want); err != nil {
				t.Fatal(err)
			}
			inj := &resilience.DiskFaultInjector{Seed: seed}
			seed++
			target := filepath.Join(dir, "s1.gdmc")
			if err := inj.InjectFileAt(target, class, off); err != nil {
				t.Fatalf("%s at section %d (offset %d): %v", class, oi, off, err)
			}
			if _, err := formats.ReadDataset(dir); err == nil {
				t.Fatalf("strict read survived %s at section %d (offset %d)", class, oi, off)
			}
			repairAndVerify(t, root, dir, want, seed, class)
		}
	}
}
