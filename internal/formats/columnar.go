package formats

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"genogo/internal/catalog"
	"genogo/internal/gdm"
)

// A repository member is the one layout the repository stores a dataset in:
// a footered schema.txt and <sample>.gdm.meta per sample, as in the text
// layout, a manifest.json with Layout: "columnar", and each sample's regions
// in a <sample>.gdmc image partitioned by chromosome — the on-disk
// realization of the catalog's per-(sample, chromosome) zone cells. The
// image's index records every partition's zone window [MinStart, MaxStop)
// next to its byte extent, so a reader can skip a partition a query's
// coordinate window provably cannot touch without reading (or checksumming)
// a single payload byte. The same image is the body of a wire frame
// (stream.go): disk and wire share one encoder and one decoder.
//
// File layout (fixed-width integers little-endian; "uv" is an unsigned
// varint, "zz" a zigzag varint, as in encoding/binary):
//
//	header   magic "GDMC02" (6) · attr arity (u16) · partition count (u32)
//	index    per partition: chrom len (u16) · chrom · regions (u32) ·
//	         minStart (i64) · maxStop (i64) · payload offset (i64) ·
//	         payload length (i64) · payload crc32c (u32)
//	crc      crc32c over header+index (u32)
//	payload  per partition, contiguous, in index order, column-major:
//	         starts   regions × zz delta from the previous start (first from 0)
//	         lengths  regions × uv (stop − start)
//	         strands  mode byte: 0 = one strand byte for every region,
//	                  1 = one strand byte per region
//	         per attribute column a mode byte: 1 = uniform (every value has
//	         the schema kind, none is null), 0 = tagged (regions × kind tag,
//	         each null or the schema kind, then only the non-null values);
//	         the values by schema kind: int zz · float IEEE-754 bits (u64) ·
//	         bool u8 · string a run of uv lengths, then one block of all the
//	         bytes
//
// Every section (the index, each partition payload) carries its own CRC32C,
// so damage is detected exactly as precisely as it can be skipped: a pruned
// read verifies the index and only the partitions it actually loads, a full
// read verifies everything, and the manifest additionally records the whole
// file's size and checksum for fsck's end-to-end pass.

// LayoutColumnar is the layout word every member's manifest records.
const LayoutColumnar = "columnar"

// columnarExt is the extension of a member's region images.
const columnarExt = ".gdmc"

// columnarMagic opens every .gdmc image; its last two bytes are the payload
// coding's version.
var columnarMagic = []byte("GDMC02")

// Hostile-input bounds for the columnar decoder: a crafted file must fail
// with a typed error, not drive a huge allocation.
const (
	// maxColumnarParts caps the partitions one sample file may declare.
	maxColumnarParts = 1 << 20
	// maxColumnarChrom caps a chromosome name's length.
	maxColumnarChrom = 1 << 12
	// maxColumnarRegions caps the regions one partition may declare.
	maxColumnarRegions = 1 << 30
	// columnarHeaderLen is the fixed header size.
	columnarHeaderLen = 6 + 2 + 4
	// columnarEntryFixed is the fixed part of one index entry (everything but
	// the chromosome name).
	columnarEntryFixed = 2 + 4 + 8 + 8 + 8 + 8 + 4
)

// Mode bytes of the payload coding.
const (
	// strandConstant: one strand byte stands for every region.
	strandConstant = 0
	// strandPerRegion: one strand byte per region follows.
	strandPerRegion = 1
	// columnTagged prefixes the column's values with one kind tag per region.
	columnTagged = 0
	// columnUniform drops the tags: every value has the schema kind.
	columnUniform = 1
)

// columnarPart is one decoded index entry: a (sample, chromosome) partition's
// zone window and byte extent.
type columnarPart struct {
	Chrom    string
	Regions  int
	MinStart int64
	MaxStop  int64
	Offset   int64
	Length   int64
	CRC      uint32
}

// minRegionBytes is the smallest possible payload footprint of one region: a
// start delta, a length, and at least one byte in every attribute column (a
// tag, a varint, or a fixed-width value). It bounds what a declared region
// count may make the decoder allocate by the bytes actually present.
func minRegionBytes(arity int) int64 { return 2 + int64(arity) }

// columnarSizeHint guesses the image size of a sample of that many regions, to
// reserve before encoding: an index of a few dozen partitions, a few bytes of
// coordinates per region and about a fixed-width value per attribute. A low
// guess only costs a regrowth.
func columnarSizeHint(regions, arity int) int { return 2048 + regions*(6+9*arity) }

// ---------------------------------------------------------------------------
// Encoding

// appendUint16/32/64 are the little-endian writers of the encoder.
func appendUint16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendUint32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendUint64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// appendColumnarSample appends one sample's .gdmc image to dst. Regions are
// grouped by chromosome in order of first appearance (canonical genomic order
// for canonically sorted samples); the sample's value slab must hold one row
// of the schema's arity per region and every value must be null or of its
// column's kind.
func appendColumnarSample(dst []byte, s *gdm.Sample, schema *gdm.Schema) ([]byte, error) {
	type partBuild struct {
		chrom    string
		n        int
		minStart int64
		maxStop  int64
	}
	arity, regs, vals := schema.Len(), s.Regions, s.Values
	if len(vals) != len(regs)*arity {
		return nil, fmt.Errorf("columnar: sample %s has %d values for %d regions, schema has %d attributes",
			s.ID, len(vals), len(regs), arity)
	}
	var parts []partBuild
	byChrom := make(map[string]int)
	last, contiguous := -1, true
	for i := range regs {
		r := &regs[i]
		// Sorted samples change chromosome a few dozen times, so the map is
		// consulted only then.
		if last < 0 || parts[last].chrom != r.Chrom {
			pi, seen := byChrom[r.Chrom]
			if !seen {
				pi = len(parts)
				byChrom[r.Chrom] = pi
				parts = append(parts, partBuild{chrom: r.Chrom, minStart: r.Start, maxStop: r.Stop})
			}
			last, contiguous = pi, contiguous && !seen
		}
		p := &parts[last]
		p.n++
		p.minStart, p.maxStop = min(p.minStart, r.Start), max(p.maxStop, r.Stop)
	}
	if !contiguous {
		// A chromosome came back after another one: gather each one's regions
		// and rows into a run, in place of the order an unsorted sample holds
		// them in.
		regs, vals = s.Gather(gdm.Permutation(len(regs), func(a, b int32) int {
			return byChrom[regs[a].Chrom] - byChrom[regs[b].Chrom]
		}))
	}
	if len(parts) > maxColumnarParts {
		return nil, fmt.Errorf("columnar: sample %s has %d partitions, limit %d", s.ID, len(parts), maxColumnarParts)
	}
	indexLen := columnarHeaderLen + 4 // header + index crc
	for _, p := range parts {
		if len(p.chrom) > maxColumnarChrom || p.n > maxColumnarRegions {
			return nil, fmt.Errorf("columnar: sample %s: partition %.32q exceeds the format's name or region limit", s.ID, p.chrom)
		}
		indexLen += columnarEntryFixed + len(p.chrom)
	}

	// The index's size is known before the payloads are, so it is reserved
	// and filled in once their extents and checksums exist.
	base := len(dst)
	dst = slices.Grow(dst, columnarSizeHint(len(regs), arity))
	dst = append(dst, make([]byte, indexLen)...)
	index := make([]byte, 0, indexLen)
	index = append(index, columnarMagic...)
	index = appendUint16(index, uint16(arity))
	index = appendUint32(index, uint32(len(parts)))
	for _, p := range parts {
		off := len(dst)
		var err error
		if dst, err = appendColumnarPayload(dst, regs[:p.n], vals[:p.n*arity], schema); err != nil {
			return nil, fmt.Errorf("columnar: sample %s: %w", s.ID, err)
		}
		regs, vals = regs[p.n:], vals[p.n*arity:]
		index = appendUint16(index, uint16(len(p.chrom)))
		index = append(index, p.chrom...)
		index = appendUint32(index, uint32(p.n))
		index = appendUint64(index, uint64(p.minStart))
		index = appendUint64(index, uint64(p.maxStop))
		index = appendUint64(index, uint64(off-base))
		index = appendUint64(index, uint64(len(dst)-off))
		index = appendUint32(index, crc32.Checksum(dst[off:], castagnoli))
	}
	index = appendUint32(index, crc32.Checksum(index, castagnoli))
	copy(dst[base:], index)
	return dst, nil
}

// zigzag maps a signed integer to the unsigned one whose varint is short when
// the magnitude is small.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendColumnarPayload appends one partition's payload: regs and their rows
// (vals, row-major) column by column.
func appendColumnarPayload(dst []byte, regs []gdm.Region, vals []gdm.Value, schema *gdm.Schema) ([]byte, error) {
	arity := schema.Len()
	var prev int64
	for i := range regs {
		dst = binary.AppendUvarint(dst, zigzag(regs[i].Start-prev))
		prev = regs[i].Start
	}
	constStrand := true
	for i := range regs {
		dst = binary.AppendUvarint(dst, uint64(regs[i].Stop-regs[i].Start))
		constStrand = constStrand && regs[i].Strand == regs[0].Strand
	}
	if constStrand {
		dst = append(dst, strandConstant, byte(regs[0].Strand))
	} else {
		dst = append(dst, strandPerRegion)
		for i := range regs {
			dst = append(dst, byte(regs[i].Strand))
		}
	}
	for ai := 0; ai < arity; ai++ {
		col := vals[ai:]
		want := schema.Field(ai).Type
		if want > gdm.KindBool {
			return nil, fmt.Errorf("attribute %q has unencodable kind %d", schema.Field(ai).Name, want)
		}
		// The column is written in one pass as uniform, and rewound to the
		// tagged form at the first value that is not of the schema kind. A
		// null-typed column has no uniform form: it would cost no bytes per
		// region, and minRegionBytes counts on one.
		mark := len(dst)
		dst = append(dst, columnUniform)
		i := 0
		for ; want != gdm.KindNull && i < len(regs) && col[i*arity].Kind() == want; i++ {
			dst = appendValue(dst, &col[i*arity])
		}
		if i < len(regs) {
			dst = append(dst[:mark], columnTagged)
			for i := range regs {
				k := col[i*arity].Kind()
				if k != gdm.KindNull && k != want {
					return nil, fmt.Errorf("attribute %q holds %s, schema says %s", schema.Field(ai).Name, k, want)
				}
				dst = append(dst, byte(k))
			}
			for i := range regs {
				dst = appendValue(dst, &col[i*arity])
			}
		}
		if want == gdm.KindString {
			for i := range regs {
				dst = append(dst, col[i*arity].Str()...)
			}
		}
	}
	return dst, nil
}

// appendValue appends one value's column entry: nothing for a null, the
// length for a string (whose bytes follow the column's lengths).
func appendValue(dst []byte, v *gdm.Value) []byte {
	switch v.Kind() {
	case gdm.KindInt:
		dst = binary.AppendUvarint(dst, zigzag(v.Int()))
	case gdm.KindFloat:
		dst = appendUint64(dst, math.Float64bits(v.Float()))
	case gdm.KindBool:
		dst = append(dst, byte(v.Int()))
	case gdm.KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.Str())))
	}
	return dst
}

// writeColumnarFile materializes one sample's .gdmc, fsynced, and returns its
// manifest entry. Binary files carry no text footer; the manifest records the
// whole file's size and CRC32C instead (the internal section checksums make
// the file self-verifying on their own).
func writeColumnarFile(path string, s *gdm.Sample, schema *gdm.Schema) (FileInfo, error) {
	data, err := appendColumnarSample(nil, s, schema)
	if err != nil {
		return FileInfo{}, err
	}
	if err := writeSynced(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		return FileInfo{}, err
	}
	return columnarFileInfo(data), nil
}

// columnarFileInfo is a columnar image's manifest entry: whole-file size and
// whole-file CRC32C (binary files carry no text footer).
func columnarFileInfo(data []byte) FileInfo {
	return FileInfo{Size: int64(len(data)), CRC32C: crcHex(crc32.Checksum(data, castagnoli))}
}

// ---------------------------------------------------------------------------
// Decoding

// columnarIndex is a parsed .gdmc header+index.
type columnarIndex struct {
	Arity    int
	IndexLen int64 // bytes from file start through the index CRC
	Parts    []columnarPart
}

// parseColumnarIndex decodes and verifies the header+index section from the
// start of a .gdmc stream. size is the file's total size (for extent bounds
// checking); pass < 0 to skip extent checks (the caller will bound-check
// against the data it has).
func parseColumnarIndex(dataset, path string, r io.Reader, size int64) (*columnarIndex, *IntegrityError) {
	fail := func(reason FaultReason, detail string) *IntegrityError {
		return &IntegrityError{Dataset: dataset, Path: path, Reason: reason, Detail: detail}
	}
	h := crc32.New(castagnoli)
	tr := io.TeeReader(r, h)
	header := make([]byte, columnarHeaderLen)
	if _, err := io.ReadFull(tr, header); err != nil {
		return nil, fail(ReasonTruncated, "file shorter than columnar header")
	}
	if magic := header[:len(columnarMagic)]; !bytes.Equal(magic, columnarMagic) {
		if bytes.HasPrefix(magic, columnarMagic[:4]) {
			return nil, fail(ReasonParse, fmt.Sprintf("unsupported columnar format version %s (this build reads %s)", magic, columnarMagic))
		}
		return nil, fail(ReasonParse, "bad columnar magic")
	}
	arity := int(binary.LittleEndian.Uint16(header[6:8]))
	nParts := int(binary.LittleEndian.Uint32(header[8:12]))
	if nParts > maxColumnarParts {
		return nil, fail(ReasonParse, fmt.Sprintf("declared %d partitions exceeds limit %d", nParts, maxColumnarParts))
	}
	// The capacity is a hint: a count the bytes do not back must not size
	// an allocation.
	ci := &columnarIndex{Arity: arity, Parts: make([]columnarPart, 0, min(nParts, 256))}
	indexLen := int64(columnarHeaderLen)
	var prevEnd int64 = -1
	var rest []byte // one entry after its name's length, reused: the name is copied out
	for i := 0; i < nParts; i++ {
		var lenBuf [2]byte
		if _, err := io.ReadFull(tr, lenBuf[:]); err != nil {
			return nil, fail(ReasonTruncated, "index truncated")
		}
		chromLen := int(binary.LittleEndian.Uint16(lenBuf[:]))
		if chromLen > maxColumnarChrom {
			return nil, fail(ReasonParse, fmt.Sprintf("chromosome name length %d exceeds limit %d", chromLen, maxColumnarChrom))
		}
		rest = slices.Grow(rest[:0], chromLen+columnarEntryFixed-2)[:chromLen+columnarEntryFixed-2] // the name, then the fixed fields
		if _, err := io.ReadFull(tr, rest); err != nil {
			return nil, fail(ReasonTruncated, "index truncated")
		}
		entry := rest[chromLen:]
		p := columnarPart{
			Chrom:    string(rest[:chromLen]),
			Regions:  int(binary.LittleEndian.Uint32(entry[0:4])),
			MinStart: int64(binary.LittleEndian.Uint64(entry[4:12])),
			MaxStop:  int64(binary.LittleEndian.Uint64(entry[12:20])),
			Offset:   int64(binary.LittleEndian.Uint64(entry[20:28])),
			Length:   int64(binary.LittleEndian.Uint64(entry[28:36])),
			CRC:      binary.LittleEndian.Uint32(entry[36:40]),
		}
		indexLen += int64(2 + len(rest))
		if p.Regions > maxColumnarRegions {
			return nil, fail(ReasonParse, fmt.Sprintf("partition %s declares %d regions", p.Chrom, p.Regions))
		}
		if p.Offset < 0 || p.Length < 0 || p.Length > math.MaxInt64-p.Offset {
			return nil, fail(ReasonParse, fmt.Sprintf("partition %s has invalid byte extent", p.Chrom))
		}
		if int64(p.Regions)*minRegionBytes(arity) > p.Length {
			return nil, fail(ReasonParse, fmt.Sprintf("partition %s declares %d regions in %d bytes", p.Chrom, p.Regions, p.Length))
		}
		// Payloads are contiguous and in index order; anything else is not a
		// file this writer produced.
		if prevEnd >= 0 && p.Offset != prevEnd {
			return nil, fail(ReasonParse, fmt.Sprintf("partition %s payload is not contiguous", p.Chrom))
		}
		prevEnd = p.Offset + p.Length
		ci.Parts = append(ci.Parts, p)
	}
	sum := h.Sum32() // checksum of everything read so far: header + entries
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return nil, fail(ReasonTruncated, "index CRC missing")
	}
	indexLen += 4
	if declared := binary.LittleEndian.Uint32(crcBuf[:]); declared != sum {
		return nil, fail(ReasonChecksum, fmt.Sprintf("index crc32c %s != declared %s", crcHex(sum), crcHex(declared)))
	}
	ci.IndexLen = indexLen
	for i := range ci.Parts {
		// Payloads start right after the index (checked via the first
		// partition — contiguity chains the rest): no unchecksummed gap can
		// hide between sections.
		if i == 0 && ci.Parts[i].Offset != indexLen {
			return nil, fail(ReasonParse, fmt.Sprintf("partition %s payload does not follow the index", ci.Parts[i].Chrom))
		}
		if size >= 0 && ci.Parts[i].Offset+ci.Parts[i].Length > size {
			return nil, fail(ReasonTruncated, fmt.Sprintf("partition %s extends past end of file", ci.Parts[i].Chrom))
		}
	}
	return ci, nil
}

// decodeColumnarPart verifies one partition payload against its index entry
// and decodes it into regs (p.Regions zeroed regions) and values (their
// p.Regions × arity values). Attribute kinds must match the schema (or be
// null) — a mismatch is corruption, never a silent coercion.
func decodeColumnarPart(dataset, path string, p columnarPart, payload []byte, schema *gdm.Schema, regs []gdm.Region, values []gdm.Value) *IntegrityError {
	fail := func(reason FaultReason, detail string) *IntegrityError {
		return &IntegrityError{Dataset: dataset, Path: path, Reason: reason,
			Detail: fmt.Sprintf("partition %s: %s", p.Chrom, detail)}
	}
	if int64(len(payload)) != p.Length {
		return fail(ReasonTruncated, fmt.Sprintf("have %d payload bytes, index declares %d", len(payload), p.Length))
	}
	if sum := crc32.Checksum(payload, castagnoli); sum != p.CRC {
		return fail(ReasonChecksum, fmt.Sprintf("payload crc32c %s != declared %s", crcHex(sum), crcHex(p.CRC)))
	}
	n, arity := p.Regions, schema.Len()
	if int64(n)*minRegionBytes(arity) > int64(len(payload)) {
		return fail(ReasonParse, fmt.Sprintf("%d regions cannot fit %d payload bytes", n, len(payload)))
	}
	if detail := decodeColumnarPayload(payload, p, schema, regs[:n], values[:n*arity]); detail != "" {
		return fail(ReasonParse, detail)
	}
	return nil
}

// byteCursor walks checksummed bytes whose counts and lengths are still not
// to be trusted. Running out of bytes empties it and sets bad, so a caller
// checks once per section, not per field.
type byteCursor struct {
	b   []byte
	bad bool
}

func (c *byteCursor) fail() { c.b, c.bad = nil, true }

// uvarint reads an unsigned varint, 0 on failure.
func (c *byteCursor) uvarint() uint64 {
	if len(c.b) > 0 && c.b[0] < 0x80 { // one byte: most deltas, lengths, counts
		u := uint64(c.b[0])
		c.b = c.b[1:]
		return u
	}
	u, k := binary.Uvarint(c.b)
	if k <= 0 {
		c.fail()
		return 0
	}
	c.b = c.b[k:]
	return u
}

// take reads the next n bytes, nil on failure.
func (c *byteCursor) take(n int) []byte {
	if n < 0 || n > len(c.b) {
		c.fail()
		return nil
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out
}

// u8 reads one byte, 0 on failure.
func (c *byteCursor) u8() byte {
	if b := c.take(1); b != nil {
		return b[0]
	}
	return 0
}

// decodeColumnarPayload decodes a checksummed partition payload into regs
// (len(regs) regions, zeroed) and their rows of values (len(regs) × arity,
// zeroed, row-major), allocating one string per string column. It returns
// what is wrong with the payload, or "" when it decoded in full. A region it
// returns passes Region.Validate — a chromosome, a start ≥ 0, a stop ≥ the
// start — and each value is null or of its column's kind: everything
// Dataset.Add checks of a sample, so decoded samples join a dataset as they
// are.
func decodeColumnarPayload(payload []byte, p columnarPart, schema *gdm.Schema, regs []gdm.Region, values []gdm.Value) string {
	n, arity := len(regs), schema.Len()
	if n == 0 {
		return "partition without regions" // the writer makes one per chromosome seen
	}
	if p.Chrom == "" {
		return "partition without a chromosome"
	}
	c := byteCursor{b: payload}
	var prev int64
	minStart, maxStop := int64(math.MaxInt64), int64(math.MinInt64)
	for i := range regs {
		prev += unzigzag(c.uvarint())
		regs[i].Chrom, regs[i].Start = p.Chrom, prev
		minStart = min(minStart, prev)
	}
	// A start that wraps past MaxInt64 comes back negative, so this bounds
	// every start, and the stops below cannot overflow from a negative one.
	if minStart < 0 {
		return "region with a negative start"
	}
	for i := range regs {
		u := c.uvarint()
		if u > uint64(math.MaxInt64-regs[i].Start) {
			return fmt.Sprintf("region %d: start %d + length %d overflows", i, regs[i].Start, u)
		}
		regs[i].Stop = regs[i].Start + int64(u)
		maxStop = max(maxStop, regs[i].Stop)
	}
	var strands []byte
	stride := 0 // a constant column is read at index 0 for every region
	switch mode := c.u8(); mode {
	case strandConstant:
		strands = c.take(1)
	case strandPerRegion:
		strands, stride = c.take(n), 1
	default:
		return fmt.Sprintf("bad strand column mode %d", mode)
	}
	if c.bad {
		return "payload truncated"
	}
	// The decoded regions must actually lie inside the zone window the index
	// declares — a lying window would make pruning silently wrong, so it is
	// corruption.
	if minStart < p.MinStart || maxStop > p.MaxStop {
		return "region outside declared zone window"
	}
	for i := range regs {
		switch s := gdm.Strand(strands[i*stride]); s {
		case gdm.StrandNone, gdm.StrandPlus, gdm.StrandMinus:
			regs[i].Strand = s
		default:
			return fmt.Sprintf("region %d has strand byte %d", i, s)
		}
	}
	for ai := 0; ai < arity; ai++ {
		f := schema.Field(ai)
		// tags stays nil for a uniform column; a tagged column's null entries
		// keep the zero Value, which is gdm.Null().
		var tags []byte
		present := n
		switch mode := c.u8(); {
		case mode == columnUniform && f.Type != gdm.KindNull:
		case mode == columnTagged:
			tags = c.take(n)
			for i, t := range tags {
				if gdm.Kind(t) == gdm.KindNull {
					present--
				} else if gdm.Kind(t) != f.Type {
					return fmt.Sprintf("attribute %q region %d has kind tag %d, schema wants %s", f.Name, i, t, f.Type)
				}
			}
		default:
			return fmt.Sprintf("attribute %q: bad column mode %d", f.Name, mode)
		}
		// Fixed-width values are taken as one run; a string column is a run
		// of lengths (walked here to find and bound the block, again below to
		// slice it) and then the one string every value is cut from.
		var raw []byte
		var block string
		lens := c
		switch f.Type {
		case gdm.KindFloat:
			raw = c.take(8 * present)
		case gdm.KindBool:
			raw = c.take(present)
		case gdm.KindString:
			total := uint64(0)
			for i := 0; i < present && !c.bad; i++ {
				// Each length is bounded before it is added: one varint can
				// carry ~2^64, and a sum that wrapped back under the bound
				// would slice past the block below.
				u, rest := c.uvarint(), uint64(len(c.b))
				if total > rest || u > rest-total {
					c.fail()
					break
				}
				total += u
			}
			block = string(c.take(int(total)))
		}
		if c.bad {
			return fmt.Sprintf("attribute %q: column truncated", f.Name)
		}
		col, j := values[ai:], 0
		for i := 0; i < n; i++ {
			if tags != nil && tags[i] == 0 {
				continue
			}
			switch f.Type {
			case gdm.KindInt:
				col[i*arity] = gdm.Int(unzigzag(c.uvarint()))
			case gdm.KindFloat:
				col[i*arity] = gdm.Float(math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:])))
			case gdm.KindBool:
				if raw[j] > 1 {
					return fmt.Sprintf("attribute %q region %d has bool byte %d", f.Name, i, raw[j])
				}
				col[i*arity] = gdm.Bool(raw[j] == 1)
			case gdm.KindString:
				u := lens.uvarint()
				col[i*arity] = gdm.Str(block[:u])
				block = block[u:]
			}
			j++
		}
	}
	if c.bad || len(c.b) != 0 {
		return fmt.Sprintf("payload truncated or %d bytes trail it", len(c.b))
	}
	return ""
}

// decodeColumnarSample decodes a whole in-memory .gdmc image into a sample —
// the full-read path (and the fuzz target's core). Every section checksum is
// verified.
func decodeColumnarSample(dataset, path, id string, data []byte, schema *gdm.Schema) (*gdm.Sample, *IntegrityError) {
	ci, ie := parseColumnarIndex(dataset, path, bytes.NewReader(data), int64(len(data)))
	if ie != nil {
		return nil, ie
	}
	if ci.Arity != schema.Len() {
		return nil, &IntegrityError{Dataset: dataset, Path: path, Reason: ReasonParse,
			Detail: fmt.Sprintf("file declares %d attributes, schema has %d", ci.Arity, schema.Len())}
	}
	if id == "" {
		return nil, &IntegrityError{Dataset: dataset, Path: path, Reason: ReasonParse, Detail: "sample with empty ID"}
	}
	s := gdm.NewSample(id)
	values := allocRegions(s, ci.Parts, schema)
	var end int64 = ci.IndexLen
	at := 0
	for _, p := range ci.Parts {
		if ie := decodeColumnarPart(dataset, path, p, data[p.Offset:p.Offset+p.Length], schema, s.Regions[at:], values[at*schema.Len():]); ie != nil {
			return nil, ie
		}
		at += p.Regions
		end = p.Offset + p.Length
	}
	if end != int64(len(data)) {
		return nil, &IntegrityError{Dataset: dataset, Path: path, Reason: ReasonParse,
			Detail: fmt.Sprintf("%d trailing bytes after last partition", int64(len(data))-end)}
	}
	return s, nil
}

// allocRegions gives s the regions of the partitions parts and their value
// slab, both sized from the index's region counts, and returns the slab.
// parseColumnarIndex bounds every count by the bytes its partition spans, and
// the partitions by the image's size, so the index cannot make this allocate
// more than the image backs.
func allocRegions(s *gdm.Sample, parts []columnarPart, schema *gdm.Schema) []gdm.Value {
	total := 0
	for _, p := range parts {
		total += p.Regions
	}
	s.Regions = make([]gdm.Region, total)
	if schema.Len() > 0 {
		s.Values = make([]gdm.Value, total*schema.Len())
	}
	return s.Values
}

// readColumnarSampleVerified is the full verified read of one member sample:
// whole-file manifest check (size and CRC32C), then structural decode with
// every section checksum verified, then the metadata file.
func readColumnarSampleVerified(dir, id string, schema *gdm.Schema, man *Manifest) (*gdm.Sample, *IntegrityError) {
	name := filepath.Base(dir)
	file := id + columnarExt
	path := filepath.Join(dir, file)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fileError(name, path, err)
	}
	if ie := checkColumnarManifest(name, path, file, data, man); ie != nil {
		return nil, ie
	}
	s, ie := decodeColumnarSample(name, path, id, data, schema)
	if ie != nil {
		return nil, ie
	}
	if ie := readSampleMeta(dir, id, man, s); ie != nil {
		return nil, ie
	}
	return s, nil
}

// checkColumnarManifest verifies a columnar file's bytes against its manifest
// entry: listed, right size, right whole-file checksum.
func checkColumnarManifest(dataset, path, file string, data []byte, man *Manifest) *IntegrityError {
	want, listed := man.Files[file]
	if !listed {
		return &IntegrityError{Dataset: dataset, Path: path, Reason: ReasonStaleManifest,
			Detail: "file not listed in manifest"}
	}
	switch {
	case int64(len(data)) < want.Size:
		return &IntegrityError{Dataset: dataset, Path: path, Reason: ReasonTruncated,
			Detail: fmt.Sprintf("file is %d bytes, manifest records %d", len(data), want.Size)}
	case int64(len(data)) > want.Size:
		return &IntegrityError{Dataset: dataset, Path: path, Reason: ReasonStaleManifest,
			Detail: fmt.Sprintf("file is %d bytes, manifest records %d", len(data), want.Size)}
	}
	if sum := crcHex(crc32.Checksum(data, castagnoli)); sum != want.CRC32C {
		return &IntegrityError{Dataset: dataset, Path: path, Reason: ReasonChecksum,
			Detail: fmt.Sprintf("file crc32c %s != manifest %s", sum, want.CRC32C)}
	}
	return nil
}

// readSampleMeta verifies and parses one member sample's .gdm.meta into s —
// the metadata half the full and the pruned read share.
func readSampleMeta(dir, id string, man *Manifest, s *gdm.Sample) *IntegrityError {
	file := id + ".gdm.meta"
	ie := readMemberFile(dir, file, man, func(r io.Reader) (err error) {
		s.Meta, err = ReadMeta(r)
		return err
	})
	if _, listed := man.Files[file]; ie != nil && !listed && ie.Reason == ReasonMissing {
		return nil // metadata is optional when nothing vouches for it
	}
	return ie
}

// ---------------------------------------------------------------------------
// Pruned (partition-granular) reads

// openColumnarSamplePruned reads one member sample under both halves of
// keep. The metadata comes first: a sample keep.Sample rejects is counted in
// st and comes back nil, its image never opened. Otherwise the image's index
// is read and verified, and only the partitions keep.Part accepts are read,
// each verifying its section CRC — rejected partitions' payload bytes are
// never read (real skipped I/O, not post-load filtering).
func openColumnarSamplePruned(dir, id string, schema *gdm.Schema, man *Manifest, keep catalog.Keep) (*gdm.Sample, catalog.PruneStats, *IntegrityError) {
	var st catalog.PruneStats
	name := filepath.Base(dir)
	file := id + columnarExt
	path := filepath.Join(dir, file)
	if id == "" {
		return nil, st, &IntegrityError{Dataset: name, Path: path, Reason: ReasonParse, Detail: "sample with empty ID"}
	}
	s := gdm.NewSample(id)
	if ie := readSampleMeta(dir, id, man, s); ie != nil {
		return nil, st, ie
	}
	if !keep.KeepsSample(s.Meta) {
		st.SkippedSamples = 1
		return nil, st, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, st, fileError(name, path, err)
	}
	defer f.Close()
	// The size bounds the index's extents, and with them what the region
	// counts may make allocRegions allocate.
	fi, err := f.Stat()
	if err != nil {
		return nil, st, fileError(name, path, err)
	}
	size := fi.Size()
	if want, listed := man.Files[file]; listed && size != want.Size {
		reason := ReasonStaleManifest
		if size < want.Size {
			reason = ReasonTruncated
		}
		return nil, st, &IntegrityError{Dataset: name, Path: path, Reason: reason,
			Detail: fmt.Sprintf("file is %d bytes, manifest records %d", size, want.Size)}
	}
	ci, ie := parseColumnarIndex(name, path, bufio.NewReader(f), size)
	if ie != nil {
		return nil, st, ie
	}
	if ci.Arity != schema.Len() {
		return nil, st, &IntegrityError{Dataset: name, Path: path, Reason: ReasonParse,
			Detail: fmt.Sprintf("file declares %d attributes, schema has %d", ci.Arity, schema.Len())}
	}
	kept := make([]columnarPart, 0, len(ci.Parts))
	for _, p := range ci.Parts {
		if keep.Part != nil {
			st.Parts++ // consulted: a read without a partition half consults none
		}
		if !keep.KeepsPart(p.Chrom, p.MinStart, p.MaxStop) {
			st.SkippedParts++
			st.SkippedRegions += int64(p.Regions)
			st.SkippedBytes += p.Length
			continue
		}
		kept = append(kept, p)
	}
	values := allocRegions(s, kept, schema)
	var buf []byte
	at := 0
	for _, p := range kept {
		if int64(cap(buf)) < p.Length {
			buf = make([]byte, p.Length)
		}
		buf = buf[:p.Length]
		if _, err := f.ReadAt(buf, p.Offset); err != nil {
			return nil, st, &IntegrityError{Dataset: name, Path: path, Reason: ReasonTruncated,
				Detail: fmt.Sprintf("partition %s: %v", p.Chrom, err)}
		}
		if ie := decodeColumnarPart(name, path, p, buf, schema, s.Regions[at:], values[at*schema.Len():]); ie != nil {
			return nil, st, ie
		}
		at += p.Regions
	}
	return s, st, nil
}

// checkColumnarStructure verifies a columnar image's self-consistency without
// a schema: the index parses, every partition payload matches its declared
// length and CRC, and nothing trails the last partition. fsck uses it to
// distinguish a stale manifest (file fine, manifest wrong — rebuild re-adopts
// the file) from real corruption (quarantine).
func checkColumnarStructure(dataset, path string, data []byte) *IntegrityError {
	ci, ie := parseColumnarIndex(dataset, path, bytes.NewReader(data), int64(len(data)))
	if ie != nil {
		return ie
	}
	end := ci.IndexLen
	for _, p := range ci.Parts {
		if sum := crc32.Checksum(data[p.Offset:p.Offset+p.Length], castagnoli); sum != p.CRC {
			return &IntegrityError{Dataset: dataset, Path: path, Reason: ReasonChecksum,
				Detail: fmt.Sprintf("partition %s: payload crc32c %s != declared %s", p.Chrom, crcHex(sum), crcHex(p.CRC))}
		}
		end = p.Offset + p.Length
	}
	if end != int64(len(data)) {
		return &IntegrityError{Dataset: dataset, Path: path, Reason: ReasonParse,
			Detail: fmt.Sprintf("%d trailing bytes after last partition", int64(len(data))-end)}
	}
	return nil
}

// CheckColumnarStructure is the exported form of the schema-free structural
// check, for chaos harnesses that need to assert a .gdmc image is (or is not)
// self-consistent without opening the whole dataset. Returns nil when the
// image verifies.
func CheckColumnarStructure(dataset, path string, data []byte) error {
	if ie := checkColumnarStructure(dataset, path, data); ie != nil {
		return ie
	}
	return nil
}

// ColumnarSectionOffsets lists the byte offsets where a .gdmc file's
// CRC-protected sections begin: the header/index at 0, then each partition
// payload. The disk-fault injector targets these boundaries to prove
// section-granular damage is detected by exactly the read that would have
// consumed it.
func ColumnarSectionOffsets(path string) ([]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ci, ie := parseColumnarIndex(filepath.Base(filepath.Dir(path)), path, bytes.NewReader(data), int64(len(data)))
	if ie != nil {
		return nil, ie
	}
	offsets := []int64{0}
	for _, p := range ci.Parts {
		offsets = append(offsets, p.Offset)
	}
	return offsets, nil
}

// ---------------------------------------------------------------------------
// Dataset-level write

// WriteDatasetColumnar materializes a dataset into dir as a repository
// member, atomically and self-verifyingly: every file is staged, checksummed
// and fsynced, the manifest (checksums, sample count, content digest) is
// written last, and the staged directory swaps into place in one rename (see
// writeStaged). A manifest's presence therefore certifies the
// materialization completed. A schema field name or metadata pair the text
// readers would not return unchanged fails the write with ErrUnwritable.
func WriteDatasetColumnar(dir string, ds *gdm.Dataset) error {
	return writeStaged(dir, ds, writeColumnarDatasetFiles)
}

// writeColumnarDatasetFiles writes a member (footered schema, .gdmc images,
// footered metadata files) into an existing directory, then its stats.json —
// the catalog's partition index — and the manifest recording every file's
// checksum.
func writeColumnarDatasetFiles(dir string, ds *gdm.Dataset) error {
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
		info, err := writeColumnarFile(filepath.Join(dir, s.ID+columnarExt), s, ds.Schema)
		if err != nil {
			return fmt.Errorf("dataset %s sample %s: %w", ds.Name, s.ID, err)
		}
		files[s.ID+columnarExt] = info
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
	if err := writeMemberIndex(dir, ds, files, sampleStats); err != nil {
		return fmt.Errorf("dataset %s: %w", ds.Name, err)
	}
	return nil
}
