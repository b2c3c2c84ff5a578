package formats

import (
	"fmt"
	"io"
	"strings"

	"genogo/internal/gdm"
)

// GTFSchema is the variable-attribute schema GDM gives to GTF/GFF annotation
// files: source, feature, score, frame, plus the gene_id and transcript_id
// pulled out of the attribute column (the two attributes GTF mandates).
var GTFSchema = gdm.MustSchema(
	gdm.Field{Name: "source", Type: gdm.KindString},
	gdm.Field{Name: "feature", Type: gdm.KindString},
	gdm.Field{Name: "score", Type: gdm.KindFloat},
	gdm.Field{Name: "frame", Type: gdm.KindString},
	gdm.Field{Name: "gene_id", Type: gdm.KindString},
	gdm.Field{Name: "transcript_id", Type: gdm.KindString},
)

// ReadGTF parses a GTF/GFF2 annotation file. GTF coordinates are 1-based
// inclusive; they are converted to the 0-based half-open GDM convention.
func ReadGTF(id string, r io.Reader) (*gdm.Sample, *gdm.Schema, error) {
	s := gdm.NewSample(id)
	ls := newLineScanner(r)
	for ls.next() {
		fields := strings.Split(ls.text, "\t")
		if len(fields) < 8 {
			return nil, nil, ls.errf("gtf: need 8+ fields, have %d", len(fields))
		}
		start, err := parseInt64(fields[3])
		if err != nil {
			return nil, nil, ls.errf("gtf: bad start %q", fields[3])
		}
		stop, err := parseInt64(fields[4])
		if err != nil {
			return nil, nil, ls.errf("gtf: bad end %q", fields[4])
		}
		if start < 1 || stop < start {
			return nil, nil, ls.errf("gtf: bad interval [%d,%d]", start, stop)
		}
		strand, err := gdm.ParseStrand(fields[6])
		if err != nil {
			return nil, nil, ls.errf("gtf: %v", err)
		}
		score, err := gdm.ParseValue(gdm.KindFloat, fields[5])
		if err != nil {
			return nil, nil, ls.errf("gtf: score: %v", err)
		}
		geneID, transcriptID := gdm.Null(), gdm.Null()
		if len(fields) > 8 {
			attrs := parseGTFAttributes(fields[8])
			if v, ok := attrs["gene_id"]; ok {
				geneID = gdm.Str(v)
			}
			if v, ok := attrs["transcript_id"]; ok {
				transcriptID = gdm.Str(v)
			}
		}
		s.AddRegion(gdm.Region{Chrom: fields[0], Start: start - 1, Stop: stop, Strand: strand},
			gdm.Str(fields[1]), gdm.Str(fields[2]), score, gdm.Str(fields[7]), geneID, transcriptID)
	}
	if err := ls.err(); err != nil {
		return nil, nil, fmt.Errorf("gtf: %w", err)
	}
	s.SortRegions()
	return s, GTFSchema, nil
}

// parseGTFAttributes parses the semicolon-separated key "value" pairs of the
// GTF attribute column.
func parseGTFAttributes(s string) map[string]string {
	out := make(map[string]string)
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		sp := strings.IndexAny(part, " \t")
		if sp < 0 {
			continue
		}
		key := part[:sp]
		val := strings.TrimSpace(part[sp+1:])
		val = strings.Trim(val, `"`)
		out[key] = val
	}
	return out
}

// WriteGTF writes a sample whose schema contains the GTF attributes back as
// GTF, converting coordinates back to 1-based inclusive.
func WriteGTF(w io.Writer, s *gdm.Sample, schema *gdm.Schema) error {
	get := func(row []gdm.Value, name, fallback string) string {
		if i, ok := schema.Index(name); ok && !row[i].IsNull() {
			return row[i].String()
		}
		return fallback
	}
	for i := range s.Regions {
		r, row := &s.Regions[i], s.Row(i)
		strand := r.Strand.String()
		if strand == "*" {
			strand = "."
		}
		attrs := make([]string, 0, 2)
		if g := get(row, "gene_id", ""); g != "" {
			attrs = append(attrs, fmt.Sprintf("gene_id %q", g))
		}
		if tr := get(row, "transcript_id", ""); tr != "" {
			attrs = append(attrs, fmt.Sprintf("transcript_id %q", tr))
		}
		if _, err := fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%d\t%s\t%s\t%s\t%s\n",
			r.Chrom, get(row, "source", "."), get(row, "feature", "."),
			r.Start+1, r.Stop, get(row, "score", "."), strand, get(row, "frame", "."),
			strings.Join(attrs, "; ")); err != nil {
			return fmt.Errorf("gtf: %w", err)
		}
	}
	return nil
}
