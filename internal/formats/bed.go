package formats

import (
	"fmt"
	"io"
	"strconv"

	"genogo/internal/gdm"
)

// BEDSchema is the variable-attribute schema of BED6 files: name, score.
// (Strand, when present, folds into the fixed attributes.)
var BEDSchema = gdm.MustSchema(
	gdm.Field{Name: "name", Type: gdm.KindString},
	gdm.Field{Name: "score", Type: gdm.KindFloat},
)

// NarrowPeakSchema is the ENCODE narrowPeak schema: BED6 plus signalValue,
// pValue, qValue and peak offset.
var NarrowPeakSchema = gdm.MustSchema(
	gdm.Field{Name: "name", Type: gdm.KindString},
	gdm.Field{Name: "score", Type: gdm.KindFloat},
	gdm.Field{Name: "signal", Type: gdm.KindFloat},
	gdm.Field{Name: "p_value", Type: gdm.KindFloat},
	gdm.Field{Name: "q_value", Type: gdm.KindFloat},
	gdm.Field{Name: "peak", Type: gdm.KindInt},
)

// BroadPeakSchema is the ENCODE broadPeak schema: narrowPeak without the
// summit offset.
var BroadPeakSchema = gdm.MustSchema(
	gdm.Field{Name: "name", Type: gdm.KindString},
	gdm.Field{Name: "score", Type: gdm.KindFloat},
	gdm.Field{Name: "signal", Type: gdm.KindFloat},
	gdm.Field{Name: "p_value", Type: gdm.KindFloat},
	gdm.Field{Name: "q_value", Type: gdm.KindFloat},
)

// BedGraphSchema is the single-value signal schema of bedGraph tracks.
var BedGraphSchema = gdm.MustSchema(
	gdm.Field{Name: "value", Type: gdm.KindFloat},
)

// ReadBED parses a BED3/BED6 file. Missing optional columns become nulls so
// heterogeneous BED files share one schema.
func ReadBED(id string, r io.Reader) (*gdm.Sample, *gdm.Schema, error) {
	s := gdm.NewSample(id)
	ls := newLineScanner(r)
	for ls.next() {
		fields := splitTabsOrSpaces(ls.text)
		chrom, start, stop, err := coordinates(fields)
		if err != nil {
			return nil, nil, ls.errf("bed: %v", err)
		}
		reg := gdm.Region{Chrom: chrom, Start: start, Stop: stop}
		name, score := gdm.Null(), gdm.Null()
		if len(fields) > 3 {
			name = gdm.Str(fields[3])
		}
		if len(fields) > 4 {
			if score, err = gdm.ParseValue(gdm.KindFloat, fields[4]); err != nil {
				return nil, nil, ls.errf("bed: score: %v", err)
			}
		}
		if len(fields) > 5 {
			st, err := gdm.ParseStrand(fields[5])
			if err != nil {
				return nil, nil, ls.errf("bed: %v", err)
			}
			reg.Strand = st
		}
		s.AddRegion(reg, name, score)
	}
	if err := ls.err(); err != nil {
		return nil, nil, fmt.Errorf("bed: %w", err)
	}
	s.SortRegions()
	return s, BEDSchema, nil
}

// WriteBED writes the sample as BED6, rendering null names as "." and null
// scores as 0 per the UCSC convention.
func WriteBED(w io.Writer, s *gdm.Sample, schema *gdm.Schema) error {
	nameIdx, hasName := schema.Index("name")
	scoreIdx, hasScore := schema.Index("score")
	for i := range s.Regions {
		r, row := &s.Regions[i], s.Row(i)
		name, score := ".", "0"
		if hasName && !row[nameIdx].IsNull() {
			name = row[nameIdx].String()
		}
		if hasScore && !row[scoreIdx].IsNull() {
			score = row[scoreIdx].String()
		}
		strand := r.Strand.String()
		if strand == "*" {
			strand = "."
		}
		if _, err := fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%s\t%s\n",
			r.Chrom, r.Start, r.Stop, name, score, strand); err != nil {
			return fmt.Errorf("bed: %w", err)
		}
	}
	return nil
}

// readPeak parses narrowPeak (withSummit) or broadPeak lines.
func readPeak(id string, r io.Reader, withSummit bool) (*gdm.Sample, *gdm.Schema, error) {
	schema := BroadPeakSchema
	want := 9
	if withSummit {
		schema = NarrowPeakSchema
		want = 10
	}
	s := gdm.NewSample(id)
	ls := newLineScanner(r)
	for ls.next() {
		fields := splitTabsOrSpaces(ls.text)
		if len(fields) < want {
			return nil, nil, ls.errf("peak: need %d fields, have %d", want, len(fields))
		}
		chrom, start, stop, err := coordinates(fields)
		if err != nil {
			return nil, nil, ls.errf("peak: %v", err)
		}
		strand, err := gdm.ParseStrand(fields[5])
		if err != nil {
			return nil, nil, ls.errf("peak: %v", err)
		}
		s.AddRegion(gdm.Region{Chrom: chrom, Start: start, Stop: stop, Strand: strand}, gdm.Str(fields[3]))
		for col := 4; col < want; col++ {
			if col == 5 {
				continue // strand, already handled
			}
			kind := gdm.KindFloat
			if withSummit && col == 9 {
				kind = gdm.KindInt
			}
			v, err := gdm.ParseValue(kind, fields[col])
			if err != nil {
				return nil, nil, ls.errf("peak: column %d: %v", col+1, err)
			}
			s.Values = append(s.Values, v)
		}
	}
	if err := ls.err(); err != nil {
		return nil, nil, fmt.Errorf("peak: %w", err)
	}
	s.SortRegions()
	return s, schema, nil
}

// ReadNarrowPeak parses an ENCODE narrowPeak file.
func ReadNarrowPeak(id string, r io.Reader) (*gdm.Sample, *gdm.Schema, error) {
	return readPeak(id, r, true)
}

// ReadBroadPeak parses an ENCODE broadPeak file.
func ReadBroadPeak(id string, r io.Reader) (*gdm.Sample, *gdm.Schema, error) {
	return readPeak(id, r, false)
}

// WriteNarrowPeak writes a sample whose schema contains the narrowPeak
// attributes back into narrowPeak form.
func WriteNarrowPeak(w io.Writer, s *gdm.Sample, schema *gdm.Schema) error {
	idx := make([]int, 0, 6)
	for _, name := range []string{"name", "score", "signal", "p_value", "q_value", "peak"} {
		i, ok := schema.Index(name)
		if !ok {
			return fmt.Errorf("narrowPeak: schema %s lacks %q", schema, name)
		}
		idx = append(idx, i)
	}
	for i := range s.Regions {
		r, row := &s.Regions[i], s.Row(i)
		strand := r.Strand.String()
		if strand == "*" {
			strand = "."
		}
		peak := int64(-1)
		if v := row[idx[5]]; !v.IsNull() {
			peak = v.Int()
		}
		if _, err := fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%s\t%s\t%s\t%s\t%s\t%d\n",
			r.Chrom, r.Start, r.Stop,
			orDot(row[idx[0]]), orZero(row[idx[1]]), strand,
			orZero(row[idx[2]]), orDot(row[idx[3]]), orDot(row[idx[4]]),
			peak); err != nil {
			return fmt.Errorf("narrowPeak: %w", err)
		}
	}
	return nil
}

func orDot(v gdm.Value) string {
	if v.IsNull() {
		return "."
	}
	return v.String()
}

func orZero(v gdm.Value) string {
	if v.IsNull() {
		return "0"
	}
	return v.String()
}

// ReadBedGraph parses a bedGraph signal track.
func ReadBedGraph(id string, r io.Reader) (*gdm.Sample, *gdm.Schema, error) {
	s := gdm.NewSample(id)
	ls := newLineScanner(r)
	for ls.next() {
		fields := splitTabsOrSpaces(ls.text)
		if len(fields) < 4 {
			return nil, nil, ls.errf("bedGraph: need 4 fields, have %d", len(fields))
		}
		chrom, start, stop, err := coordinates(fields)
		if err != nil {
			return nil, nil, ls.errf("bedGraph: %v", err)
		}
		v, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, nil, ls.errf("bedGraph: bad value %q", fields[3])
		}
		s.AddRegion(gdm.Region{Chrom: chrom, Start: start, Stop: stop}, gdm.Float(v))
	}
	if err := ls.err(); err != nil {
		return nil, nil, fmt.Errorf("bedGraph: %w", err)
	}
	s.SortRegions()
	return s, BedGraphSchema, nil
}

// WriteBedGraph writes a single-value signal sample as bedGraph.
func WriteBedGraph(w io.Writer, s *gdm.Sample, schema *gdm.Schema) error {
	vi, ok := schema.Index("value")
	if !ok {
		if schema.Len() != 1 {
			return fmt.Errorf("bedGraph: schema %s has no single value attribute", schema)
		}
		vi = 0
	}
	for i := range s.Regions {
		r := &s.Regions[i]
		if _, err := fmt.Fprintf(w, "%s\t%d\t%d\t%s\n",
			r.Chrom, r.Start, r.Stop, orZero(s.Row(i)[vi])); err != nil {
			return fmt.Errorf("bedGraph: %w", err)
		}
	}
	return nil
}
