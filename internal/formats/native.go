package formats

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"genogo/internal/gdm"
)

// maxSchemaFields caps the variable attributes a schema may declare: a
// corrupt or crafted schema must fail with a parse error, not drive a huge
// allocation.
const maxSchemaFields = 1 << 12

// The GDM text layout is the export and import form of a dataset, the
// repository layout of the original GMQL system: a directory holding
//
//	schema.txt          one "name<TAB>type" line per variable attribute
//	<sample>.gdm        regions: chrom<TAB>start<TAB>stop<TAB>strand<TAB>values...
//	<sample>.gdm.meta   metadata: attribute<TAB>value lines
//
// A repository member keeps schema.txt and <sample>.gdm.meta in this form,
// each with an integrity footer, and its regions as .gdmc images (see
// columnar.go). Datasets move over the wire as binary frames of .gdmc images:
// see stream.go.

// ErrUnwritable marks a schema field name or metadata pair the text readers
// would not return unchanged (a newline, a leading '#', a tab in a name, ...):
// writing it would commit a file that reads back as something else.
var ErrUnwritable = errors.New("formats: text line would not read back unchanged")

// readsBack reports whether the line scanner returns line, a "key<TAB>rest"
// line without its newline, exactly as written.
func readsBack(key, line string) bool {
	return !strings.Contains(key, "\t") && !strings.Contains(line, "\n") &&
		!strings.HasSuffix(line, "\r") && len(line) < maxLineBytes &&
		!skipsLine(strings.TrimSpace(line))
}

// WriteSchema writes a schema as schema.txt lines. A field name ReadSchema
// would not return unchanged fails with ErrUnwritable.
func WriteSchema(w io.Writer, s *gdm.Schema) error {
	for _, f := range s.Fields() {
		line := f.Name + "\t" + f.Type.String()
		if !readsBack(f.Name, line) {
			return fmt.Errorf("schema: field %q: %w", f.Name, ErrUnwritable)
		}
		if _, err := io.WriteString(w, line+"\n"); err != nil {
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
		for _, v := range s.Row(i) {
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
		s.AddRegion(gdm.Region{Chrom: fields[0], Start: start, Stop: stop, Strand: strand})
		for i := 0; i < schema.Len(); i++ {
			v, err := gdm.ParseValue(schema.Field(i).Type, fields[4+i])
			if err != nil {
				return ls.errf("regions: attribute %q: %v", schema.Field(i).Name, err)
			}
			s.Values = append(s.Values, v)
		}
	}
	if err := ls.err(); err != nil {
		return fmt.Errorf("regions: %w", err)
	}
	return nil
}

// WriteMeta writes sample metadata as attribute<TAB>value lines. A pair
// ReadMeta would not return unchanged fails with ErrUnwritable.
func WriteMeta(w io.Writer, md *gdm.Metadata) error {
	for _, p := range md.Pairs() {
		line := p[0] + "\t" + p[1]
		if !readsBack(p[0], line) {
			return fmt.Errorf("meta: attribute %q value %q: %w", p[0], p[1], ErrUnwritable)
		}
		if _, err := io.WriteString(w, line+"\n"); err != nil {
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

// crashPoint, when non-nil, is invoked at named stages of the staged write
// ("pre-manifest", "pre-rename", "mid-rename"). Tests use it to simulate a
// writer killed mid-write by panicking out of the stage; production code
// never sets it.
var crashPoint func(stage string)

func crash(stage string) {
	if crashPoint != nil {
		crashPoint(stage)
	}
}

// WriteDataset exports a dataset into dir in the GDM text layout: plain
// schema.txt, <id>.gdm and <id>.gdm.meta files, with no footers, manifest or
// statistics. The export is staged and swapped into place like a member
// (see writeStaged), so dir never holds half of it. Reading it back is an
// unverified import; gmqlfsck -rebuild converts it into a member.
func WriteDataset(dir string, ds *gdm.Dataset) error {
	return writeStaged(dir, ds, writeExportFiles)
}

// writeStaged is the atomic materialization path shared by the export and
// the member writer: stage, write files into the staging directory, fsync,
// swap into place. Every file lands in a hidden sibling directory
// (".<name>.tmp*") first, then the staged directory is renamed into place in
// one step. A process killed mid-write can therefore never leave a
// half-readable dataset at dir — readers see either the previous
// materialization in full or the new one, nothing in between. Leftover
// hidden staging directories from a crash are ignored by the repository
// loaders (they skip dot-prefixed entries); gmqlfsck removes them.
func writeStaged(dir string, ds *gdm.Dataset, writeFiles func(dir string, ds *gdm.Dataset) error) error {
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
	if err := writeFiles(tmp, ds); err != nil {
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

// writeExportFiles writes the text layout into an existing directory.
func writeExportFiles(dir string, ds *gdm.Dataset) error {
	if err := writeSynced(filepath.Join(dir, "schema.txt"), func(w io.Writer) error {
		return WriteSchema(w, ds.Schema)
	}); err != nil {
		return fmt.Errorf("dataset %s: %w", ds.Name, err)
	}
	for _, s := range ds.Samples {
		if err := writeSynced(filepath.Join(dir, s.ID+".gdm"), func(w io.Writer) error {
			return WriteRegions(w, s)
		}); err != nil {
			return fmt.Errorf("dataset %s sample %s: %w", ds.Name, s.ID, err)
		}
		if err := writeSynced(filepath.Join(dir, s.ID+".gdm.meta"), func(w io.Writer) error {
			return WriteMeta(w, s.Meta)
		}); err != nil {
			return fmt.Errorf("dataset %s sample %s: %w", ds.Name, s.ID, err)
		}
	}
	return nil
}

// writeSynced creates path, streams fn's output into it through a buffer and
// fsyncs before closing, so the bytes are durable by the time the staged
// directory is renamed into place.
func writeSynced(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := fn(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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

// readExport imports a text export — a dataset directory without a
// manifest — as unverified data: nothing vouches for its bytes, so they are
// only parsed. A directory holding .gdmc images is a member that lost its
// manifest, never an export, and fails typed instead of loading as a dataset
// without those samples.
func readExport(dir string, pol IntegrityPolicy, rep *IntegrityReport) (*gdm.Dataset, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("dataset %s: %w", dir, err)
	}
	var ids []string // ReadDir sorts by name, so these come sorted
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), columnarExt) {
			metricIntegrityFailures.With(string(ReasonMissing)).Inc()
			return nil, &IntegrityError{Dataset: rep.Dataset, Path: filepath.Join(dir, ManifestName), Reason: ReasonMissing,
				Detail: "directory holds .gdmc images but no manifest; gmqlfsck -rebuild reconstructs it"}
		}
		if id, ok := strings.CutSuffix(e.Name(), ".gdm"); ok {
			ids = append(ids, id)
		}
	}
	var schema *gdm.Schema
	if ie := readTextFile(rep.Dataset, filepath.Join(dir, "schema.txt"), false, func(r io.Reader) (err error) {
		schema, err = ReadSchema(r)
		return err
	}); ie != nil {
		metricIntegrityFailures.With(string(ie.Reason)).Inc()
		return nil, ie
	}
	ds := gdm.NewDataset(rep.Dataset, schema)
	err = addSamples(ids, ".gdm", pol, rep, func(id string) *IntegrityError {
		s, ie := readExportSample(dir, id, schema)
		if ie != nil {
			return ie
		}
		// Text is only parsed: Add validates the regions and coerces values.
		s.SortRegions()
		if err := ds.Add(s); err != nil {
			return &IntegrityError{Dataset: ds.Name, Path: filepath.Join(dir, id+".gdm"), Reason: ReasonParse, Detail: err.Error()}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ds, nil
}

// readExportSample parses one sample of a text export; its metadata file is
// optional.
func readExportSample(dir, id string, schema *gdm.Schema) (*gdm.Sample, *IntegrityError) {
	name := filepath.Base(dir)
	s := gdm.NewSample(id)
	if ie := readTextFile(name, filepath.Join(dir, id+".gdm"), false, func(r io.Reader) error {
		return ReadRegions(r, schema, s)
	}); ie != nil {
		return nil, ie
	}
	meta := filepath.Join(dir, id+".gdm.meta")
	if _, err := os.Stat(meta); os.IsNotExist(err) {
		return s, nil
	}
	if ie := readTextFile(name, meta, false, func(r io.Reader) (err error) {
		s.Meta, err = ReadMeta(r)
		return err
	}); ie != nil {
		return nil, ie
	}
	return s, nil
}

// readTextFile reads one text file and parses its payload. A footer must
// match where the file carries one, and be present when footered; an
// import's bytes are only parsed, but a footered text directory that lost
// its manifest is imported too.
func readTextFile(dataset, path string, footered bool, parse func(io.Reader) error) *IntegrityError {
	data, err := os.ReadFile(path)
	if err != nil {
		return fileError(dataset, path, err)
	}
	payload, _, ie := footerPayload(dataset, path, data, footered)
	if ie == nil {
		if err := parse(bytes.NewReader(payload)); err != nil {
			ie = &IntegrityError{Dataset: dataset, Path: path, Reason: ReasonParse, Detail: err.Error()}
		}
	}
	return ie
}

// ReadDataset loads a dataset directory through OpenDataset with the strict
// policy: any integrity damage fails the load with a typed *IntegrityError.
// Callers that prefer to degrade — load the intact samples, quarantine the
// corrupt ones — use OpenDataset with an IntegrityPolicy instead. The dataset
// name is the directory base name.
func ReadDataset(dir string) (*gdm.Dataset, error) {
	ds, _, err := OpenDataset(dir, IntegrityPolicy{})
	return ds, err
}
