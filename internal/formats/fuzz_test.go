package formats

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzBED: the BED reader ingests files from outside the system (track hubs,
// collaborators' exports), so it must never panic — malformed lines either
// parse permissively or return an error.
func FuzzBED(f *testing.F) {
	f.Add("chr1\t100\t200\tpeak1\t5.5\t+\n")
	f.Add("chr1\t100\t200\nchr2\t5\t10\tx\t1\t-\nchrX\t0\t1\n")
	f.Add("track name=x\n# comment\nchr7\t10\t20\t.\t.\t.\n")
	f.Add("chr1\t200\t100\n")   // inverted coordinates
	f.Add("chr1\tNaN\t1e99\n")  // absurd numbers
	f.Add("\x00\xff\nchr\t\t.") // binary junk
	f.Fuzz(func(t *testing.T, data string) {
		s, schema, err := ReadBED("fuzz", strings.NewReader(data))
		if err != nil {
			return
		}
		if s == nil || schema == nil {
			t.Fatalf("ReadBED returned nil sample/schema without error for %q", data)
		}
		// Every parsed region must have the schema's arity, or downstream
		// operators index out of bounds.
		for i := range s.Regions {
			if len(s.Row(i)) != schema.Len() {
				t.Fatalf("region %d arity %d != schema %d for input %q",
					i, len(s.Row(i)), schema.Len(), data)
			}
		}
	})
}

// FuzzNativeRead: the text import and the manifest check consume whatever a
// disk hands back — torn files, flipped bits, hand-edited manifests, hostile
// record counts. Whatever the bytes, OpenDataset must never panic and must
// never return a dataset whose shape disagrees with its schema: it either
// loads, degrades with a typed report, or fails with a typed error. A
// directory of text files under a manifest that does not verify is never
// imported: it fails typed bad_manifest.
func FuzzNativeRead(f *testing.F) {
	goodSchema := "p_value\tfloat\nname\tstring\n"
	goodRegions := "chr1\t100\t200\t+\t0.5\tpeak\nchr2\t5\t10\t-\t0.25\t.\n"
	goodMeta := "antibody\tCTCF\ncell\tHeLa\n"
	f.Add(goodSchema, goodRegions, goodMeta, "")
	f.Add(goodSchema, goodRegions, goodMeta,
		`{"format_version":1,"dataset":"DS","samples":1,"digest":"x","files":{"schema.txt":{"size":1,"crc32c":"00000000"}}}`)
	f.Add("p\tfloat\n", "chr1\t1\t", "", "{")
	f.Add("", "", "", "")
	f.Add("x\tbanana\n", "chr1\t-5\t-1\t?\t1\n", "\x00\xff", "null")
	f.Add(goodSchema, "chr1\t100\t200\t+\t0.5\tpeak\n#gdmsum\tcrc32c:deadbeef\tbytes:999\n", goodMeta, "")
	f.Fuzz(func(t *testing.T, schema, regions, meta, manifest string) {
		dir := filepath.Join(t.TempDir(), "DS")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		files := map[string]string{"schema.txt": schema, "s1.gdm": regions, "s1.gdm.meta": meta}
		if manifest != "" {
			files[ManifestName] = manifest
		}
		for name, body := range files {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, manErr := ReadManifest(dir)
		for _, pol := range []IntegrityPolicy{{}, {AllowPartial: true, Quarantine: true}} {
			ds, rep, err := OpenDataset(dir, pol)
			var ie *IntegrityError
			if manifest != "" && manErr != nil && (!errors.As(err, &ie) || ie.Reason != ReasonBadManifest) {
				t.Fatalf("manifest %q does not verify, but the open returned %v", manifest, err)
			}
			if err != nil {
				continue
			}
			if ds == nil || rep == nil {
				t.Fatalf("OpenDataset returned nils without error (policy %+v)", pol)
			}
			for _, s := range ds.Samples {
				for i := range s.Regions {
					if len(s.Row(i)) != ds.Schema.Len() {
						t.Fatalf("region arity %d != schema %d", len(s.Row(i)), ds.Schema.Len())
					}
				}
			}
		}
	})
}
