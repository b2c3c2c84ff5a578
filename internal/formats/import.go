package formats

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"genogo/internal/gdm"
)

// ImportSample reads one region file in any supported interchange format
// (detected from the extension) into a sample. If a sidecar file named
// "<path>.meta" exists, its attribute<TAB>value lines become the sample's
// metadata; otherwise the metadata records only the source format and file
// name, so provenance survives the import.
func ImportSample(path, id string) (*gdm.Sample, *gdm.Schema, error) {
	kind := Detect(path)
	if kind == KindUnknown || kind == KindGDM {
		return nil, nil, fmt.Errorf("formats: cannot import %q: unsupported format %s", path, kind)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("formats: import %q: %w", path, err)
	}
	defer f.Close()
	if id == "" {
		id = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	s, schema, err := Read(kind, id, f)
	if err != nil {
		return nil, nil, fmt.Errorf("formats: import %q: %w", path, err)
	}
	if mf, err := os.Open(path + ".meta"); err == nil {
		md, merr := ReadMeta(mf)
		mf.Close()
		if merr != nil {
			return nil, nil, fmt.Errorf("formats: import %q: %w", path+".meta", merr)
		}
		s.Meta = md
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("formats: import %q: %w", path+".meta", err)
	}
	s.Meta.Add("_source_file", filepath.Base(path))
	s.Meta.Add("_source_format", kind.String())
	return s, schema, nil
}

// ImportDataset builds one GDM dataset from many region files, possibly in
// different formats. Per-file schemas are unified by attribute name — the
// GDM interoperability move: the combined schema holds the union of all
// attributes (same-name attributes must agree on type), and every sample is
// re-laid-out onto it with nulls for the attributes its format lacks.
func ImportDataset(name string, paths []string) (*gdm.Dataset, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("formats: import dataset %s: no files", name)
	}
	type loaded struct {
		sample *gdm.Sample
		schema *gdm.Schema
	}
	var all []loaded
	var fields []gdm.Field
	index := make(map[string]int)
	for _, p := range paths {
		s, schema, err := ImportSample(p, "")
		if err != nil {
			return nil, err
		}
		for _, f := range schema.Fields() {
			if at, ok := index[f.Name]; ok {
				if fields[at].Type != f.Type {
					return nil, fmt.Errorf(
						"formats: import dataset %s: attribute %q is %s in one file and %s in another",
						name, f.Name, fields[at].Type, f.Type)
				}
				continue
			}
			index[f.Name] = len(fields)
			fields = append(fields, f)
		}
		all = append(all, loaded{s, schema})
	}
	combined, err := gdm.NewSchema(fields...)
	if err != nil {
		return nil, fmt.Errorf("formats: import dataset %s: %w", name, err)
	}
	ds := gdm.NewDataset(name, combined)
	seen := make(map[string]int)
	for _, l := range all {
		// Position map from the file schema into the combined schema.
		pos := make([]int, l.schema.Len())
		for i := 0; i < l.schema.Len(); i++ {
			pos[i] = index[l.schema.Field(i).Name]
		}
		w, cw := l.schema.Len(), combined.Len()
		vals := make([]gdm.Value, len(l.sample.Regions)*cw) // zero Values are null
		for ri := range l.sample.Regions {
			for i, v := range l.sample.Values[ri*w : (ri+1)*w] {
				vals[ri*cw+pos[i]] = v
			}
		}
		l.sample.Values = vals
		// De-duplicate IDs from same-named files in different directories.
		orig := l.sample.ID
		n := seen[orig]
		seen[orig] = n + 1
		if n > 0 {
			l.sample.ID = fmt.Sprintf("%s.%d", orig, n)
		}
		if err := ds.Add(l.sample); err != nil {
			return nil, err
		}
	}
	return ds, nil
}
