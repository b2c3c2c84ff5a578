package formats

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"genogo/internal/gdm"
)

// TestWriteDatasetAtomicReplace: a rewrite replaces the previous
// materialization wholesale — stale sample files from the old version must
// not survive next to the new ones — and leaves no staging debris behind.
func TestWriteDatasetAtomicReplace(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "PEAKS")
	ds1 := testDataset(t)
	if err := WriteDatasetColumnar(dir, ds1); err != nil {
		t.Fatal(err)
	}

	schema := gdm.MustSchema(gdm.Field{Name: "score", Type: gdm.KindFloat})
	ds2 := gdm.NewDataset("PEAKS", schema)
	s := gdm.NewSample("other")
	s.AddRegion(gdm.NewRegion("chr3", 1, 2, gdm.StrandNone), gdm.Float(1))
	if err := ds2.Add(s); err != nil {
		t.Fatal(err)
	}
	if err := WriteDatasetColumnar(dir, ds2); err != nil {
		t.Fatal(err)
	}

	got, err := ReadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds2, got)
	if _, err := os.Stat(filepath.Join(dir, "sample1.gdmc")); !os.IsNotExist(err) {
		t.Errorf("stale sample1.gdmc from the replaced materialization survived (err=%v)", err)
	}
	entries, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".") {
			t.Errorf("staging debris left behind: %s", e.Name())
		}
	}
}

// TestWriteDatasetCrashLeftoverIsHarmless: a writer killed mid-stage leaves
// only a hidden temp directory; the dataset at the real path is untouched and
// still reads back in full, and the leftover is recognizable (dot-prefixed)
// so repository loaders skip it.
func TestWriteDatasetCrashLeftoverIsHarmless(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "PEAKS")
	ds := testDataset(t)
	if err := WriteDatasetColumnar(dir, ds); err != nil {
		t.Fatal(err)
	}

	// Simulate the on-disk state of a writer killed mid-write: a staging
	// directory with a valid schema, a torn image and no manifest yet.
	crash := filepath.Join(parent, ".PEAKS.tmp12345")
	if err := os.Mkdir(crash, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(crash, "schema.txt"), []byte("p_value\tfloat\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(crash, "torn.gdmc"), []byte("GDMC02"), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := ReadDataset(dir)
	if err != nil {
		t.Fatalf("dataset unreadable after simulated crash leftover: %v", err)
	}
	datasetsEqual(t, ds, got)

	// The leftover itself is half-readable garbage — exactly why loaders
	// must skip dot-prefixed directories.
	if _, err := ReadDataset(crash); err == nil {
		t.Fatal("torn staging dir read back without error; corruption test is vacuous")
	}
}

// TestWriteDatasetFreshParent: writing into a nested path creates the parent
// chain.
func TestWriteDatasetFreshParent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b", "PEAKS")
	ds := testDataset(t)
	if err := WriteDatasetColumnar(dir, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, got)
}
