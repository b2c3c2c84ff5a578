// Package formats implements the data interoperability layer of the paper:
// readers and writers that mediate between the technology-driven formats of
// secondary analysis (BED, narrowPeak/broadPeak, bedGraph, GTF, VCF) and the
// GDM data model, plus the repository's one on-disk dataset layout (a
// manifest-verified member of .gdmc images) and the GDM text layout it
// exports to and imports from.
//
// Every reader produces a gdm.Sample plus the schema its variable attributes
// follow; datasets group samples with equal schemas, per the GDM constraint.
package formats

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"

	"genogo/internal/gdm"
)

// Kind identifies a supported interchange format.
type Kind uint8

// Supported formats.
const (
	KindUnknown Kind = iota
	KindBED
	KindNarrowPeak
	KindBroadPeak
	KindBedGraph
	KindGTF
	KindVCF
	KindGDM
)

// String returns the conventional format name.
func (k Kind) String() string {
	switch k {
	case KindBED:
		return "bed"
	case KindNarrowPeak:
		return "narrowPeak"
	case KindBroadPeak:
		return "broadPeak"
	case KindBedGraph:
		return "bedGraph"
	case KindGTF:
		return "gtf"
	case KindVCF:
		return "vcf"
	case KindGDM:
		return "gdm"
	default:
		return "unknown"
	}
}

// Detect guesses the format from a file name's extension.
func Detect(name string) Kind {
	switch strings.ToLower(filepath.Ext(name)) {
	case ".bed":
		return KindBED
	case ".narrowpeak":
		return KindNarrowPeak
	case ".broadpeak":
		return KindBroadPeak
	case ".bedgraph", ".bdg":
		return KindBedGraph
	case ".gtf", ".gff":
		return KindGTF
	case ".vcf":
		return KindVCF
	case ".gdm":
		return KindGDM
	default:
		return KindUnknown
	}
}

// Read parses a region file of the given format into a sample (with the given
// ID and empty metadata) and the schema of its variable attributes.
func Read(k Kind, id string, r io.Reader) (*gdm.Sample, *gdm.Schema, error) {
	switch k {
	case KindBED:
		return ReadBED(id, r)
	case KindNarrowPeak:
		return ReadNarrowPeak(id, r)
	case KindBroadPeak:
		return ReadBroadPeak(id, r)
	case KindBedGraph:
		return ReadBedGraph(id, r)
	case KindGTF:
		return ReadGTF(id, r)
	case KindVCF:
		return ReadVCF(id, r)
	default:
		return nil, nil, fmt.Errorf("formats: cannot read format %s", k)
	}
}

// lineScanner iterates the non-empty, non-comment lines of a region file,
// tracking line numbers for error messages.
type lineScanner struct {
	sc    *bufio.Scanner
	line  int
	text  string
	bytes int64 // raw bytes consumed, flushed to the parse-bytes counter
}

// maxLineBytes bounds one line of a text file: a longer one fails the scan.
const maxLineBytes = 16 * 1024 * 1024

// lineBufBytes is the scanner's starting buffer; a longer line grows it.
const lineBufBytes = 64 * 1024

func newLineScanner(r io.Reader) *lineScanner {
	size := lineBufBytes
	if br, ok := r.(*bytes.Reader); ok {
		// An in-memory payload, such as a verified member file, is scanned
		// in a buffer its size: one byte more, so that a last line without
		// a newline does not make the scanner grow a full buffer.
		size = min(size, br.Len()+1)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, size), maxLineBytes)
	return &lineScanner{sc: sc}
}

// skipsLine reports whether the scanner passes over a line, given its
// whitespace-trimmed form: blanks, comments and browser/track headers.
func skipsLine(trimmed string) bool {
	return trimmed == "" || strings.HasPrefix(trimmed, "#") ||
		strings.HasPrefix(trimmed, "track ") || trimmed == "track" ||
		strings.HasPrefix(trimmed, "browser ")
}

// next advances to the next payload line, skipping what skipsLine names.
func (ls *lineScanner) next() bool {
	for ls.sc.Scan() {
		ls.line++
		ls.bytes += int64(len(ls.sc.Bytes())) + 1
		t := strings.TrimRight(ls.sc.Text(), "\r\n")
		if skipsLine(strings.TrimSpace(t)) {
			continue
		}
		ls.text = t
		return true
	}
	ls.flushBytes()
	return false
}

// flushBytes credits the consumed bytes to genogo_storage_bytes_parsed_total.
// Called at the parse loop's terminal points (EOF, scanner error, parse
// error); counting locally and flushing once keeps the per-line cost at a
// plain add.
func (ls *lineScanner) flushBytes() {
	if ls.bytes > 0 {
		metricBytesParsed.Add(ls.bytes)
		ls.bytes = 0
	}
}

func (ls *lineScanner) err() error {
	ls.flushBytes()
	return ls.sc.Err()
}

// errf formats a parse error with the current line number.
func (ls *lineScanner) errf(format string, args ...any) error {
	ls.flushBytes()
	return fmt.Errorf("line %d: %s", ls.line, fmt.Sprintf(format, args...))
}

// splitTabsOrSpaces splits a region line on tabs when present (the standard)
// and falls back to arbitrary whitespace for hand-written files.
func splitTabsOrSpaces(s string) []string {
	if strings.ContainsRune(s, '\t') {
		return strings.Split(s, "\t")
	}
	return strings.Fields(s)
}

func parseInt64(s string) (int64, error) {
	return strconv.ParseInt(strings.TrimSpace(s), 10, 64)
}

// coordinates parses the chrom/start/stop triple common to BED-family lines.
func coordinates(fields []string) (string, int64, int64, error) {
	if len(fields) < 3 {
		return "", 0, 0, fmt.Errorf("need at least 3 fields, have %d", len(fields))
	}
	start, err := parseInt64(fields[1])
	if err != nil {
		return "", 0, 0, fmt.Errorf("bad start %q: %w", fields[1], err)
	}
	stop, err := parseInt64(fields[2])
	if err != nil {
		return "", 0, 0, fmt.Errorf("bad end %q: %w", fields[2], err)
	}
	if start < 0 || stop < start {
		return "", 0, 0, fmt.Errorf("bad interval [%d,%d)", start, stop)
	}
	return fields[0], start, stop, nil
}
