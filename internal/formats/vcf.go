package formats

import (
	"fmt"
	"io"
	"strings"

	"genogo/internal/gdm"
)

// VCFSchema is the variable-attribute schema GDM gives to VCF variant files.
var VCFSchema = gdm.MustSchema(
	gdm.Field{Name: "id", Type: gdm.KindString},
	gdm.Field{Name: "ref", Type: gdm.KindString},
	gdm.Field{Name: "alt", Type: gdm.KindString},
	gdm.Field{Name: "qual", Type: gdm.KindFloat},
	gdm.Field{Name: "filter", Type: gdm.KindString},
	gdm.Field{Name: "info", Type: gdm.KindString},
)

// ReadVCF parses a VCF variant file. A variant at POS with reference allele
// REF becomes the region [POS-1, POS-1+len(REF)) — the bases the variant
// replaces — which makes mutations directly joinable with peaks and
// annotations, the tertiary-analysis move of Section 3.
func ReadVCF(id string, r io.Reader) (*gdm.Sample, *gdm.Schema, error) {
	s := gdm.NewSample(id)
	ls := newLineScanner(r)
	for ls.next() {
		// Double-hash meta lines are removed by the comment filter; the
		// single-hash column header also starts with '#', so data starts
		// here.
		fields := strings.Split(ls.text, "\t")
		if len(fields) < 8 {
			fields = splitTabsOrSpaces(ls.text)
		}
		if len(fields) < 8 {
			return nil, nil, ls.errf("vcf: need 8 fields, have %d", len(fields))
		}
		pos, err := parseInt64(fields[1])
		if err != nil || pos < 1 {
			return nil, nil, ls.errf("vcf: bad POS %q", fields[1])
		}
		ref := fields[3]
		qual, err := gdm.ParseValue(gdm.KindFloat, fields[5])
		if err != nil {
			return nil, nil, ls.errf("vcf: QUAL: %v", err)
		}
		s.AddRegion(gdm.Region{Chrom: fields[0], Start: pos - 1, Stop: pos - 1 + int64(len(ref))},
			strOrNull(fields[2]), gdm.Str(ref), gdm.Str(fields[4]),
			qual, strOrNull(fields[6]), strOrNull(fields[7]))
	}
	if err := ls.err(); err != nil {
		return nil, nil, fmt.Errorf("vcf: %w", err)
	}
	s.SortRegions()
	return s, VCFSchema, nil
}

func strOrNull(s string) gdm.Value {
	if s == "." || s == "" {
		return gdm.Null()
	}
	return gdm.Str(s)
}

// WriteVCF writes a sample with the VCF schema back into VCF form, including
// the minimal header.
func WriteVCF(w io.Writer, s *gdm.Sample, schema *gdm.Schema) error {
	idx := make(map[string]int, 6)
	for _, name := range []string{"id", "ref", "alt", "qual", "filter", "info"} {
		i, ok := schema.Index(name)
		if !ok {
			return fmt.Errorf("vcf: schema %s lacks %q", schema, name)
		}
		idx[name] = i
	}
	if _, err := fmt.Fprintf(w, "##fileformat=VCFv4.2\n#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\n"); err != nil {
		return fmt.Errorf("vcf: %w", err)
	}
	for i := range s.Regions {
		r, row := &s.Regions[i], s.Row(i)
		if _, err := fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%s\t%s\t%s\t%s\n",
			r.Chrom, r.Start+1,
			orDot(row[idx["id"]]), orDot(row[idx["ref"]]), orDot(row[idx["alt"]]),
			orDot(row[idx["qual"]]), orDot(row[idx["filter"]]), orDot(row[idx["info"]]),
		); err != nil {
			return fmt.Errorf("vcf: %w", err)
		}
	}
	return nil
}
