package formats

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"

	"genogo/internal/catalog"
	"genogo/internal/gdm"
)

// maxSchemaFields caps the variable attributes a schema may declare: a
// corrupt or crafted schema must fail with a parse error, not drive a huge
// allocation.
const maxSchemaFields = 1 << 12

// The native GDM on-disk layout mirrors the repository layout of the GMQL
// system: a dataset is a directory holding
//
//	schema.txt          one "name<TAB>type" line per variable attribute
//	<sample>.gdm        regions: chrom<TAB>start<TAB>stop<TAB>strand<TAB>values...
//	<sample>.gdm.meta   metadata: attribute<TAB>value lines
//
// Datasets move over the wire (federation protocol, Internet-of-Genomes
// crawler) as binary frames of .gdmc images instead: see stream.go.

// WriteSchema writes a schema as schema.txt lines.
func WriteSchema(w io.Writer, s *gdm.Schema) error {
	for _, f := range s.Fields() {
		if _, err := fmt.Fprintf(w, "%s\t%s\n", f.Name, f.Type); err != nil {
			return fmt.Errorf("schema: %w", err)
		}
	}
	return nil
}

// ReadSchema parses schema.txt lines.
func ReadSchema(r io.Reader) (*gdm.Schema, error) {
	var fields []gdm.Field
	ls := newLineScanner(r)
	for ls.next() {
		parts := splitTabsOrSpaces(ls.text)
		if len(parts) != 2 {
			return nil, ls.errf("schema: want 'name type', have %q", ls.text)
		}
		k, err := gdm.ParseKind(parts[1])
		if err != nil {
			return nil, ls.errf("schema: %v", err)
		}
		fields = append(fields, gdm.Field{Name: parts[0], Type: k})
		if len(fields) > maxSchemaFields {
			return nil, ls.errf("schema: more than %d fields", maxSchemaFields)
		}
	}
	if err := ls.err(); err != nil {
		return nil, fmt.Errorf("schema: %w", err)
	}
	return gdm.NewSchema(fields...)
}

// WriteRegions writes a sample's regions in the native TSV form.
func WriteRegions(w io.Writer, s *gdm.Sample) error {
	bw := bufio.NewWriter(w)
	for i := range s.Regions {
		r := &s.Regions[i]
		fmt.Fprintf(bw, "%s\t%d\t%d\t%s", r.Chrom, r.Start, r.Stop, r.Strand)
		for _, v := range r.Values {
			bw.WriteByte('\t')
			bw.WriteString(v.String())
		}
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("regions: %w", err)
	}
	return nil
}

// ReadRegions parses native-form regions into the sample, validating against
// the schema.
func ReadRegions(r io.Reader, schema *gdm.Schema, s *gdm.Sample) error {
	ls := newLineScanner(r)
	for ls.next() {
		fields := strings.Split(ls.text, "\t")
		if len(fields) != 4+schema.Len() {
			return ls.errf("regions: want %d fields for schema %s, have %d",
				4+schema.Len(), schema, len(fields))
		}
		start, err := parseInt64(fields[1])
		if err != nil {
			return ls.errf("regions: bad start %q", fields[1])
		}
		stop, err := parseInt64(fields[2])
		if err != nil {
			return ls.errf("regions: bad stop %q", fields[2])
		}
		strand, err := gdm.ParseStrand(fields[3])
		if err != nil {
			return ls.errf("regions: %v", err)
		}
		vals := make([]gdm.Value, schema.Len())
		for i := 0; i < schema.Len(); i++ {
			v, err := gdm.ParseValue(schema.Field(i).Type, fields[4+i])
			if err != nil {
				return ls.errf("regions: attribute %q: %v", schema.Field(i).Name, err)
			}
			vals[i] = v
		}
		s.AddRegion(gdm.Region{Chrom: fields[0], Start: start, Stop: stop, Strand: strand, Values: vals})
	}
	if err := ls.err(); err != nil {
		return fmt.Errorf("regions: %w", err)
	}
	return nil
}

// WriteMeta writes sample metadata as attribute<TAB>value lines.
func WriteMeta(w io.Writer, md *gdm.Metadata) error {
	for _, p := range md.Pairs() {
		if _, err := fmt.Fprintf(w, "%s\t%s\n", p[0], p[1]); err != nil {
			return fmt.Errorf("meta: %w", err)
		}
	}
	return nil
}

// ReadMeta parses attribute<TAB>value lines.
func ReadMeta(r io.Reader) (*gdm.Metadata, error) {
	md := gdm.NewMetadata()
	ls := newLineScanner(r)
	for ls.next() {
		parts := strings.SplitN(ls.text, "\t", 2)
		if len(parts) != 2 {
			return nil, ls.errf("meta: want 'attribute<TAB>value', have %q", ls.text)
		}
		md.Add(parts[0], parts[1])
	}
	if err := ls.err(); err != nil {
		return nil, fmt.Errorf("meta: %w", err)
	}
	return md, nil
}

// crashPoint, when non-nil, is invoked at named stages of WriteDataset's
// commit sequence ("pre-manifest", "pre-rename", "mid-rename"). Tests use it
// to simulate a writer killed mid-write by panicking out of the stage;
// production code never sets it.
var crashPoint func(stage string)

func crash(stage string) {
	if crashPoint != nil {
		crashPoint(stage)
	}
}

// WriteDataset materializes a dataset into dir using the native layout,
// atomically and self-verifyingly: every file is staged in a hidden sibling
// directory (".<name>.tmp*") with an integrity footer, the manifest
// (checksums, sample count, content digest) is written last, everything is
// fsynced, then the staged directory is renamed into place in one step. A
// process killed mid-write can therefore never leave a half-readable dataset
// at dir — readers see either the previous materialization in full or the
// new one, nothing in between — and a manifest's presence certifies the
// materialization completed. Leftover hidden staging directories from a
// crash are ignored by the repository loaders (they skip dot-prefixed
// entries); gmqlfsck removes them.
func WriteDataset(dir string, ds *gdm.Dataset) error {
	return writeDatasetLayout(dir, ds, LayoutNative)
}

// writeDatasetLayout is the shared atomic materialization path: stage, write
// the layout's files, fsync, swap into place. WriteDataset and
// WriteDatasetColumnar differ only in the staged files.
func writeDatasetLayout(dir string, ds *gdm.Dataset, layout string) error {
	dir = filepath.Clean(dir)
	parent, base := filepath.Dir(dir), filepath.Base(dir)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return fmt.Errorf("dataset %s: %w", ds.Name, err)
	}
	tmp, err := os.MkdirTemp(parent, "."+base+".tmp")
	if err != nil {
		return fmt.Errorf("dataset %s: %w", ds.Name, err)
	}
	defer os.RemoveAll(tmp) // no-op once renamed into place
	if layout == LayoutColumnar {
		err = writeColumnarDatasetFiles(tmp, ds)
	} else {
		err = writeDatasetFiles(tmp, ds)
	}
	if err != nil {
		return err
	}
	if err := syncDir(tmp); err != nil {
		return fmt.Errorf("dataset %s: %w", ds.Name, err)
	}
	crash("pre-rename")
	// Swap the staged directory into place. A previous materialization is
	// moved aside under another hidden name first so the final rename is a
	// single atomic step, then discarded. A crash between the two renames
	// leaves the ".<name>.old" directory as the only copy; OpenDataset
	// detects that state as a torn rename and gmqlfsck restores it.
	old := filepath.Join(parent, "."+base+".old")
	if err := os.RemoveAll(old); err != nil {
		return fmt.Errorf("dataset %s: %w", ds.Name, err)
	}
	if err := os.Rename(dir, old); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("dataset %s: %w", ds.Name, err)
	}
	crash("mid-rename")
	if err := os.Rename(tmp, dir); err != nil {
		return fmt.Errorf("dataset %s: %w", ds.Name, err)
	}
	if err := os.RemoveAll(old); err != nil {
		return fmt.Errorf("dataset %s: %w", ds.Name, err)
	}
	return syncDir(parent)
}

// writeDatasetFiles writes the native layout (schema plus per-sample region
// and metadata files, each with an integrity footer) into an existing
// directory, then the manifest recording their checksums.
func writeDatasetFiles(dir string, ds *gdm.Dataset) error {
	files := make(map[string]FileInfo, 1+2*len(ds.Samples))
	sampleStats := make([]catalog.SampleStats, 0, len(ds.Samples))
	info, err := writeFileWith(filepath.Join(dir, "schema.txt"), func(w io.Writer) error {
		return WriteSchema(w, ds.Schema)
	})
	if err != nil {
		return fmt.Errorf("dataset %s: %w", ds.Name, err)
	}
	files["schema.txt"] = info
	for _, s := range ds.Samples {
		info, err := writeFileWith(filepath.Join(dir, s.ID+".gdm"), func(w io.Writer) error {
			return WriteRegions(w, s)
		})
		if err != nil {
			return fmt.Errorf("dataset %s sample %s: %w", ds.Name, s.ID, err)
		}
		files[s.ID+".gdm"] = info
		info, err = writeFileWith(filepath.Join(dir, s.ID+".gdm.meta"), func(w io.Writer) error {
			return WriteMeta(w, s.Meta)
		})
		if err != nil {
			return fmt.Errorf("dataset %s sample %s: %w", ds.Name, s.ID, err)
		}
		files[s.ID+".gdm.meta"] = info
		sampleStats = append(sampleStats, catalog.ComputeSample(s))
	}
	crash("pre-manifest")
	if err := writeManifest(dir, buildManifest(ds, files, sampleStats)); err != nil {
		return fmt.Errorf("dataset %s: %w", ds.Name, err)
	}
	return nil
}

// countingWriter tracks how many payload bytes fn wrote and whether the last
// one was a newline, so the integrity footer always starts on its own line.
type countingWriter struct {
	w        io.Writer
	n        int64
	lastByte byte
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	if n > 0 {
		c.lastByte = p[n-1]
	}
	return n, err
}

// writeFileWith creates path, streams fn's output into it, appends the
// integrity footer and fsyncs before closing, so the bytes are durable and
// self-verifying by the time the staged directory is renamed into place. It
// returns the file's manifest entry.
func writeFileWith(path string, fn func(io.Writer) error) (FileInfo, error) {
	f, err := os.Create(path)
	if err != nil {
		return FileInfo{}, err
	}
	h := crc32.New(castagnoli)
	cw := &countingWriter{w: io.MultiWriter(f, h)}
	if err := fn(cw); err != nil {
		f.Close()
		return FileInfo{}, err
	}
	if cw.n > 0 && cw.lastByte != '\n' {
		if _, err := cw.Write([]byte("\n")); err != nil {
			f.Close()
			return FileInfo{}, err
		}
	}
	footer := footerLine(h.Sum32(), cw.n)
	if _, err := f.WriteString(footer); err != nil {
		f.Close()
		return FileInfo{}, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return FileInfo{}, err
	}
	if err := f.Close(); err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Size: cw.n + int64(len(footer)), CRC32C: crcHex(h.Sum32())}, nil
}

// syncDir fsyncs a directory, making the renames and file creations inside
// it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadDataset loads a native-layout dataset directory through the verified
// read path with the strict policy: any integrity damage fails the load with
// a typed *IntegrityError. Callers that prefer to degrade — load the intact
// samples, quarantine the corrupt ones — use OpenDataset with an
// IntegrityPolicy instead. The dataset name is the directory base name.
func ReadDataset(dir string) (*gdm.Dataset, error) {
	ds, _, err := OpenDataset(dir, IntegrityPolicy{})
	return ds, err
}
