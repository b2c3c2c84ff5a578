package formats

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"genogo/internal/gdm"
)

func TestDetect(t *testing.T) {
	cases := map[string]Kind{
		"a.bed": KindBED, "b.narrowPeak": KindNarrowPeak, "c.broadPeak": KindBroadPeak,
		"d.bedgraph": KindBedGraph, "d2.bdg": KindBedGraph,
		"e.gtf": KindGTF, "e2.gff": KindGTF, "f.vcf": KindVCF, "g.gdm": KindGDM,
		"h.xyz": KindUnknown, "noext": KindUnknown,
	}
	for name, want := range cases {
		if got := Detect(name); got != want {
			t.Errorf("Detect(%q) = %v, want %v", name, got, want)
		}
	}
	if KindNarrowPeak.String() != "narrowPeak" || KindUnknown.String() != "unknown" {
		t.Error("Kind.String wrong")
	}
}

const bedText = `# a comment
track name="peaks"
browser position chr1
chr1	100	200	peak1	5.5	+
chr1	300	400	peak2	7	-
chr2	50	80	peak3	1	.

chr1	10	20
`

func TestReadBED(t *testing.T) {
	s, schema, err := ReadBED("s1", strings.NewReader(bedText))
	if err != nil {
		t.Fatal(err)
	}
	if !schema.Equal(BEDSchema) {
		t.Errorf("schema = %s", schema)
	}
	if len(s.Regions) != 4 {
		t.Fatalf("regions = %d", len(s.Regions))
	}
	if !s.RegionsSorted() {
		t.Error("regions not sorted")
	}
	// First in canonical order is chr1:10-20 with null name/score.
	r0 := s.Regions[0]
	if r0.Start != 10 || !s.Row(0)[0].IsNull() || !s.Row(0)[1].IsNull() {
		t.Errorf("r0 = %v", r0)
	}
	r1 := s.Regions[1]
	if s.Row(1)[0].Str() != "peak1" || s.Row(1)[1].Float() != 5.5 || r1.Strand != gdm.StrandPlus {
		t.Errorf("r1 = %v", r1)
	}
}

func TestReadBEDErrors(t *testing.T) {
	bad := []string{
		"chr1\t100",              // too few fields
		"chr1\tx\t200",           // bad start
		"chr1\t100\ty",           // bad end
		"chr1\t200\t100",         // inverted
		"chr1\t-5\t100",          // negative
		"chr1\t1\t2\tn\tscore",   // bad score
		"chr1\t1\t2\tn\t1\twhat", // bad strand
	}
	for _, text := range bad {
		if _, _, err := ReadBED("x", strings.NewReader(text)); err == nil {
			t.Errorf("ReadBED(%q) succeeded", text)
		}
	}
}

func TestBEDRoundTrip(t *testing.T) {
	s, schema, err := ReadBED("s1", strings.NewReader(bedText))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBED(&buf, s, schema); err != nil {
		t.Fatal(err)
	}
	s2, _, err := ReadBED("s1", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Regions) != len(s.Regions) {
		t.Fatalf("round trip lost regions: %d vs %d", len(s2.Regions), len(s.Regions))
	}
	for i := range s.Regions {
		a, b := s.Regions[i], s2.Regions[i]
		if a.Chrom != b.Chrom || a.Start != b.Start || a.Stop != b.Stop || a.Strand != b.Strand {
			t.Errorf("region %d coordinates changed: %v vs %v", i, a, b)
		}
		// Null name becomes "." and null score becomes 0 on write; values
		// that were present must survive exactly.
		if !s.Row(i)[0].IsNull() && s.Row(i)[0].Str() != s2.Row(i)[0].Str() {
			t.Errorf("region %d name changed: %v vs %v", i, s.Row(i)[0], s2.Row(i)[0])
		}
	}
}

const narrowPeakText = "chr1\t9000\t9500\tpeak_a\t100\t+\t5.5\t3.2\t2.8\t250\n" +
	"chr2\t100\t200\tpeak_b\t50\t.\t1.5\t0.9\t0.5\t-1\n"

func TestReadNarrowPeakAndRoundTrip(t *testing.T) {
	s, schema, err := ReadNarrowPeak("np", strings.NewReader(narrowPeakText))
	if err != nil {
		t.Fatal(err)
	}
	if !schema.Equal(NarrowPeakSchema) {
		t.Errorf("schema = %s", schema)
	}
	if len(s.Regions) != 2 {
		t.Fatalf("regions = %d", len(s.Regions))
	}
	r := s.Regions[0]
	if r.Chrom != "chr1" || s.Row(0)[0].Str() != "peak_a" || s.Row(0)[2].Float() != 5.5 ||
		s.Row(0)[3].Float() != 3.2 || s.Row(0)[5].Int() != 250 {
		t.Errorf("r = %v", r)
	}
	var buf bytes.Buffer
	if err := WriteNarrowPeak(&buf, s, schema); err != nil {
		t.Fatal(err)
	}
	s2, _, err := ReadNarrowPeak("np", &buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Regions {
		if a, b := fmt.Sprint(s.Regions[i], s.Row(i)), fmt.Sprint(s2.Regions[i], s2.Row(i)); a != b {
			t.Errorf("round trip region %d: %q vs %q", i, a, b)
		}
	}
	if _, _, err := ReadNarrowPeak("x", strings.NewReader("chr1\t1\t2\tn\t1\t+\t1\t1\t1")); err == nil {
		t.Error("short narrowPeak accepted")
	}
}

func TestReadBroadPeak(t *testing.T) {
	text := "chr1\t10\t90\tbp1\t10\t+\t4.4\t2.2\t1.1\n"
	s, schema, err := ReadBroadPeak("bp", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if !schema.Equal(BroadPeakSchema) {
		t.Errorf("schema = %s", schema)
	}
	if len(s.Regions) != 1 || s.Row(0)[2].Float() != 4.4 {
		t.Errorf("regions = %v", s.Regions)
	}
}

func TestBedGraphRoundTrip(t *testing.T) {
	text := "chr1\t0\t100\t1.5\nchr1\t100\t200\t-0.5\n"
	s, schema, err := ReadBedGraph("bg", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if !schema.Equal(BedGraphSchema) || len(s.Regions) != 2 {
		t.Fatalf("schema=%s regions=%d", schema, len(s.Regions))
	}
	var buf bytes.Buffer
	if err := WriteBedGraph(&buf, s, schema); err != nil {
		t.Fatal(err)
	}
	if buf.String() != text {
		t.Errorf("round trip = %q, want %q", buf.String(), text)
	}
	if _, _, err := ReadBedGraph("x", strings.NewReader("chr1\t0\t1")); err == nil {
		t.Error("short bedGraph accepted")
	}
	if _, _, err := ReadBedGraph("x", strings.NewReader("chr1\t0\t1\tzz")); err == nil {
		t.Error("bad value accepted")
	}
}

const gtfText = `chr1	HAVANA	gene	1000	2000	.	+	.	gene_id "G1"; transcript_id "T1";
chr1	HAVANA	exon	1000	1200	0.5	+	0	gene_id "G1"
chrX	RefSeq	promoter	500	600	.	-	.	gene_id "G2"; note "no quotes here"
`

func TestReadGTF(t *testing.T) {
	s, schema, err := ReadGTF("g", strings.NewReader(gtfText))
	if err != nil {
		t.Fatal(err)
	}
	if !schema.Equal(GTFSchema) {
		t.Errorf("schema = %s", schema)
	}
	if len(s.Regions) != 3 {
		t.Fatalf("regions = %d", len(s.Regions))
	}
	// Canonical order puts the exon (same start, smaller stop) first.
	exon, gene := s.Row(0), s.Regions[1]
	// 1-based inclusive [1000,2000] becomes 0-based half-open [999,2000).
	if gene.Start != 999 || gene.Stop != 2000 || gene.Strand != gdm.StrandPlus {
		t.Errorf("gene coordinates = %v", gene)
	}
	if s.Row(1)[1].Str() != "gene" || s.Row(1)[4].Str() != "G1" || s.Row(1)[5].Str() != "T1" {
		t.Errorf("gene attributes = %v", s.Row(1))
	}
	if exon[1].Str() != "exon" || !exon[5].IsNull() {
		t.Errorf("exon missing transcript_id should be null: %v", exon)
	}
	x := s.Regions[2]
	if x.Chrom != "chrX" || x.Strand != gdm.StrandMinus || s.Row(2)[4].Str() != "G2" {
		t.Errorf("chrX region = %v", x)
	}
}

func TestGTFRoundTrip(t *testing.T) {
	s, schema, err := ReadGTF("g", strings.NewReader(gtfText))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGTF(&buf, s, schema); err != nil {
		t.Fatal(err)
	}
	s2, _, err := ReadGTF("g", &buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Regions {
		a, b := s.Regions[i], s2.Regions[i]
		if a.Chrom != b.Chrom || a.Start != b.Start || a.Stop != b.Stop || a.Strand != b.Strand {
			t.Errorf("region %d coordinates: %v vs %v", i, a, b)
		}
		if s.Row(i)[4].String() != s2.Row(i)[4].String() {
			t.Errorf("region %d gene_id: %v vs %v", i, s.Row(i)[4], s2.Row(i)[4])
		}
	}
}

func TestReadGTFErrors(t *testing.T) {
	bad := []string{
		"chr1\tsrc\tgene\t100",                 // short
		"chr1\tsrc\tgene\tx\t200\t.\t+\t.",     // bad start
		"chr1\tsrc\tgene\t100\tx\t.\t+\t.",     // bad end
		"chr1\tsrc\tgene\t0\t200\t.\t+\t.",     // GTF is 1-based
		"chr1\tsrc\tgene\t300\t200\t.\t+\t.",   // inverted
		"chr1\tsrc\tgene\t100\t200\t.\t%\t.",   // bad strand
		"chr1\tsrc\tgene\t100\t200\tabc\t+\t.", // bad score
	}
	for _, text := range bad {
		if _, _, err := ReadGTF("x", strings.NewReader(text)); err == nil {
			t.Errorf("ReadGTF(%q) succeeded", text)
		}
	}
}

const vcfText = `##fileformat=VCFv4.2
#CHROM	POS	ID	REF	ALT	QUAL	FILTER	INFO
chr1	101	rs1	A	T	50	PASS	DP=10
chr1	205	.	ACG	A	.	.	.
chr7	77	rs7	G	C	99.5	PASS	AF=0.5
`

func TestReadVCF(t *testing.T) {
	s, schema, err := ReadVCF("v", strings.NewReader(vcfText))
	if err != nil {
		t.Fatal(err)
	}
	if !schema.Equal(VCFSchema) {
		t.Errorf("schema = %s", schema)
	}
	if len(s.Regions) != 3 {
		t.Fatalf("regions = %d", len(s.Regions))
	}
	// SNV at POS 101 covers [100,101).
	r := s.Regions[0]
	if r.Start != 100 || r.Stop != 101 || s.Row(0)[1].Str() != "A" {
		t.Errorf("snv = %v", r)
	}
	// Deletion with 3-base REF covers [204,207).
	d := s.Regions[1]
	if d.Start != 204 || d.Stop != 207 || !s.Row(1)[0].IsNull() || !s.Row(1)[3].IsNull() {
		t.Errorf("deletion = %v", d)
	}
}

func TestVCFRoundTrip(t *testing.T) {
	s, schema, err := ReadVCF("v", strings.NewReader(vcfText))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteVCF(&buf, s, schema); err != nil {
		t.Fatal(err)
	}
	s2, _, err := ReadVCF("v", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Regions) != len(s.Regions) {
		t.Fatalf("lost regions")
	}
	for i := range s.Regions {
		if fmt.Sprint(s.Regions[i], s.Row(i)) != fmt.Sprint(s2.Regions[i], s2.Row(i)) {
			t.Errorf("region %d: %q vs %q", i, s.Regions[i], s2.Regions[i])
		}
	}
}

func TestReadVCFErrors(t *testing.T) {
	for _, text := range []string{
		"chr1\t101\trs1\tA",             // short
		"chr1\tx\trs1\tA\tT\t.\t.\t.",   // bad pos
		"chr1\t0\trs1\tA\tT\t.\t.\t.",   // pos < 1
		"chr1\t10\trs1\tA\tT\tzz\t.\t.", // bad qual
	} {
		if _, _, err := ReadVCF("x", strings.NewReader(text)); err == nil {
			t.Errorf("ReadVCF(%q) succeeded", text)
		}
	}
}

func TestReadDispatch(t *testing.T) {
	if _, _, err := Read(KindBED, "s", strings.NewReader("chr1\t1\t2\n")); err != nil {
		t.Errorf("Read(BED): %v", err)
	}
	if _, _, err := Read(KindGTF, "s", strings.NewReader(gtfText)); err != nil {
		t.Errorf("Read(GTF): %v", err)
	}
	if _, _, err := Read(KindVCF, "s", strings.NewReader(vcfText)); err != nil {
		t.Errorf("Read(VCF): %v", err)
	}
	if _, _, err := Read(KindBedGraph, "s", strings.NewReader("chr1\t0\t1\t2\n")); err != nil {
		t.Errorf("Read(bedGraph): %v", err)
	}
	if _, _, err := Read(KindNarrowPeak, "s", strings.NewReader(narrowPeakText)); err != nil {
		t.Errorf("Read(narrowPeak): %v", err)
	}
	if _, _, err := Read(KindUnknown, "s", strings.NewReader("")); err == nil {
		t.Error("Read(unknown) succeeded")
	}
	if _, _, err := Read(KindGDM, "s", strings.NewReader("")); err == nil {
		t.Error("Read(gdm) via region dispatch succeeded")
	}
}
