package resilience

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"genogo/internal/formats"
	"genogo/internal/gdm"
)

func faultTestDataset(t *testing.T) (string, string) {
	t.Helper()
	parent := t.TempDir()
	dir := filepath.Join(parent, "DS")
	schema := gdm.MustSchema(gdm.Field{Name: "score", Type: gdm.KindFloat})
	ds := gdm.NewDataset("DS", schema)
	for _, id := range []string{"s1", "s2"} {
		s := gdm.NewSample(id)
		s.Meta.Add("origin", "chaos-test")
		s.AddRegion(gdm.NewRegion("chr1", 10, 20, gdm.StrandPlus), gdm.Float(1))
		if err := ds.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := formats.WriteDatasetColumnar(dir, ds); err != nil {
		t.Fatal(err)
	}
	return parent, dir
}

// TestDiskFaultDeterministic: one seed, one damage schedule — byte for byte.
func TestDiskFaultDeterministic(t *testing.T) {
	run := func() ([]string, map[string][]byte) {
		_, dir := faultTestDataset(t)
		inj := &DiskFaultInjector{Seed: 7}
		for i := 0; i < 4; i++ {
			if _, err := inj.Inject(dir); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(dir); os.IsNotExist(err) {
				// A torn rename removed the directory; put it back so the
				// next injection has a target, as the fsck campaign does.
				old := filepath.Join(filepath.Dir(dir), "."+filepath.Base(dir)+".old")
				if err := os.Rename(old, dir); err != nil {
					t.Fatal(err)
				}
			}
		}
		state := make(map[string][]byte)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			state[e.Name()] = data
		}
		return inj.Faults(), state
	}
	f1, s1 := run()
	f2, s2 := run()
	if !reflect.DeepEqual(f1, f2) {
		t.Fatalf("fault schedules differ: %v vs %v", f1, f2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("identical seeds left different on-disk damage")
	}
}

// TestDiskFaultClasses: every class produces its advertised damage, all of
// it detected by the verified read path.
func TestDiskFaultClasses(t *testing.T) {
	for _, class := range AllDiskFaults {
		t.Run(class, func(t *testing.T) {
			_, dir := faultTestDataset(t)
			inj := &DiskFaultInjector{Seed: 11}
			if err := inj.InjectClass(dir, class); err != nil {
				t.Fatal(err)
			}
			if got := inj.Faults(); len(got) != 1 || got[0] != class {
				t.Fatalf("Faults() = %v", got)
			}
			switch class {
			case DiskFaultTornRename:
				if _, err := os.Stat(dir); !os.IsNotExist(err) {
					t.Fatal("dataset directory still present after torn rename")
				}
				old := filepath.Join(filepath.Dir(dir), ".DS.old")
				if _, err := os.Stat(old); err != nil {
					t.Fatalf(".old sibling missing: %v", err)
				}
			case DiskFaultMissingFile:
				// One sample file is gone.
			}
			// Whatever the class, the strict verified read must refuse the
			// damage — zero silent wrong-result loads.
			if _, err := formats.ReadDataset(dir); err == nil {
				t.Fatalf("strict read succeeded on %s damage", class)
			}
		})
	}
}

// TestDiskFaultTargetsSampleFilesOnly: destructive classes never hit
// schema.txt or the manifest, keeping injected damage within what gmqlfsck
// repairs automatically.
func TestDiskFaultTargetsSampleFilesOnly(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		_, dir := faultTestDataset(t)
		before := map[string][]byte{}
		for _, f := range []string{"schema.txt", "manifest.json"} {
			data, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				t.Fatal(err)
			}
			before[f] = data
		}
		inj := &DiskFaultInjector{Seed: seed}
		for _, class := range []string{DiskFaultBitFlip, DiskFaultTruncate, DiskFaultStaleManifest} {
			if err := inj.InjectClass(dir, class); err != nil {
				t.Fatal(err)
			}
		}
		for f, want := range before {
			got, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("seed %d: %s was modified by sample-level fault classes", seed, f)
			}
		}
	}
}

// TestDiskFaultErrors: unknown classes and misuse are errors, not silent
// no-ops.
func TestDiskFaultErrors(t *testing.T) {
	_, dir := faultTestDataset(t)
	inj := &DiskFaultInjector{Seed: 1}
	if err := inj.InjectClass(dir, "meteor_strike"); err == nil {
		t.Error("unknown fault class accepted")
	}
	if err := inj.InjectFile(filepath.Join(dir, "schema.txt"), DiskFaultTornRename); err == nil {
		t.Error("directory-level class accepted by InjectFile")
	}
	if err := inj.InjectClass(t.TempDir(), DiskFaultBitFlip); err == nil {
		t.Error("empty directory accepted for a file-level fault")
	}
}

// TestDiskFaultColumnar: the stale-manifest class, which rewrites text
// footers, must pick a member's .gdm.meta files, never its binary .gdmc
// images; and every class stays visible to the strict verified read.
func TestDiskFaultColumnar(t *testing.T) {
	for _, class := range AllDiskFaults {
		t.Run(class, func(t *testing.T) {
			_, dir := faultTestDataset(t)
			inj := &DiskFaultInjector{Seed: 3}
			if err := inj.InjectClass(dir, class); err != nil {
				t.Fatal(err)
			}
			if class == DiskFaultStaleManifest {
				// The rewritten file must be a text one: every .gdmc still
				// passes its own structural check.
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					if filepath.Ext(e.Name()) != ".gdmc" {
						continue
					}
					path := filepath.Join(dir, e.Name())
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if ie := formats.CheckColumnarStructure("DS", path, data); ie != nil {
						t.Fatalf("stale-manifest injection touched binary file %s: %v", e.Name(), ie)
					}
				}
			}
			if _, err := formats.ReadDataset(dir); err == nil {
				t.Fatalf("strict read succeeded on %s damage", class)
			}
		})
	}
}

// TestDiskFaultInjectFileAt: offset-targeted faults land exactly where aimed
// and reject offsets outside the file.
func TestDiskFaultInjectFileAt(t *testing.T) {
	_, dir := faultTestDataset(t)
	path := filepath.Join(dir, "s1.gdmc")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	inj := &DiskFaultInjector{Seed: 5}
	if err := inj.InjectFileAt(path, DiskFaultBitFlip, 3); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range before {
		if before[i] != after[i] {
			if i != 3 {
				t.Fatalf("byte %d changed, aimed at 3", i)
			}
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes changed, want exactly 1", diff)
	}
	if err := inj.InjectFileAt(path, DiskFaultTruncate, 4); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); len(data) != 4 {
		t.Fatalf("truncate-at left %d bytes, want 4", len(data))
	}
	if err := inj.InjectFileAt(path, DiskFaultBitFlip, 99); err == nil {
		t.Error("offset past end accepted")
	}
	if err := inj.InjectFileAt(path, DiskFaultBitFlip, -1); err == nil {
		t.Error("negative offset accepted")
	}
	if err := inj.InjectFileAt(path, DiskFaultStaleManifest, 0); err == nil {
		t.Error("non-file-level class accepted")
	}
}
