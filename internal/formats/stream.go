package formats

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"strconv"

	"genogo/internal/gdm"
)

// A dataset travels (federation results, uploads and downloads, the
// genome-net crawler) as one binary frame whose sample bodies are the very
// .gdmc images the columnar layout stores, so the receiver decodes them with
// the storage reader, section checksums included:
//
//	prefix   magic "GDMF01" (6) · header length (u32)
//	header   name · field count (uv) · per field: name · kind (u8) ·
//	         sample count (uv) · per sample: ID · pair count (uv) ·
//	         per pair: attribute · value · image length (uv)
//	crc      crc32c over prefix+header (u32)
//	images   one .gdmc image per sample, contiguous, in header order
//
// Strings are a uv length followed by the bytes, so any byte may occur in a
// name, a metadata value or (inside an image) an attribute value. Every
// declared count and length is checked against the bytes that remain before
// anything is allocated for it.

// streamMagic opens every wire frame.
var streamMagic = []byte("GDMF01")

// streamPrefixLen is the fixed part before the header: magic and its length.
const streamPrefixLen = 6 + 4

// streamPath stands in for the file path in a frame's IntegrityErrors.
const streamPath = "stream"

// FrameContentType is the media type of a frame on HTTP.
const FrameContentType = "application/x-gdmc"

// ServeDataset answers an HTTP request with ds as one frame. The frame is
// encoded in full first, so an encoding failure is a 500 carrying the reason
// instead of a cut body, and the response declares its Content-Length.
func ServeDataset(w http.ResponseWriter, ds *gdm.Dataset) {
	var buf bytes.Buffer
	if err := EncodeDataset(&buf, ds); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", FrameContentType)
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes()) // fails only when the requester is gone
}

// appendString appends a length-prefixed string.
func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// EncodeDataset writes the whole dataset as one frame: the wire format of the
// federation protocol and the genome-net crawler.
func EncodeDataset(w io.Writer, ds *gdm.Dataset) error {
	hdr := append(make([]byte, 0, 512), streamMagic...)
	hdr = appendUint32(hdr, 0) // header length, set once it is known
	hdr = appendString(hdr, ds.Name)
	hdr = binary.AppendUvarint(hdr, uint64(ds.Schema.Len()))
	for _, f := range ds.Schema.Fields() {
		hdr = append(appendString(hdr, f.Name), byte(f.Type))
	}
	hdr = binary.AppendUvarint(hdr, uint64(len(ds.Samples)))
	reserve := 0
	for _, s := range ds.Samples {
		reserve += columnarSizeHint(len(s.Regions), ds.Schema.Len())
	}
	images := make([]byte, 0, reserve)
	for _, s := range ds.Samples {
		hdr = appendString(hdr, s.ID)
		pairs := s.Meta.Pairs()
		hdr = binary.AppendUvarint(hdr, uint64(len(pairs)))
		for _, p := range pairs {
			hdr = appendString(appendString(hdr, p[0]), p[1])
		}
		before := len(images)
		var err error
		if images, err = appendColumnarSample(images, s, ds.Schema); err != nil {
			return fmt.Errorf("encode dataset %s: %w", ds.Name, err)
		}
		hdr = binary.AppendUvarint(hdr, uint64(len(images)-before))
	}
	if len(hdr) > math.MaxUint32 {
		return fmt.Errorf("encode dataset %s: frame header exceeds encodable length", ds.Name)
	}
	binary.LittleEndian.PutUint32(hdr[len(streamMagic):], uint32(len(hdr)-streamPrefixLen))
	hdr = appendUint32(hdr, crc32.Checksum(hdr, castagnoli))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("encode dataset %s: %w", ds.Name, err)
	}
	if _, err := w.Write(images); err != nil {
		return fmt.Errorf("encode dataset %s: %w", ds.Name, err)
	}
	return nil
}

// DecodeDataset reads a frame produced by EncodeDataset. Any damage — a
// flipped bit, a cut, a count the bytes cannot back — fails the decode with
// a typed *IntegrityError; nothing is ever returned from a frame that does
// not verify in full.
func DecodeDataset(r io.Reader) (*gdm.Dataset, error) {
	// Callers hold a fetched body and pass a bytes.Reader over it, which
	// io.Copy lets write itself into the buffer in one piece, where
	// io.ReadAll would grow and copy its way up to it.
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, fmt.Errorf("decode dataset: %w", err)
	}
	data := buf.Bytes()
	ds, ie := decodeFrame(data)
	if ie != nil {
		metricIntegrityFailures.With(string(ie.Reason)).Inc()
		if ie.Reason == ReasonChecksum {
			metricStreamChecksumFailures.Inc()
		}
		return nil, ie
	}
	return ds, nil
}

// count reads a declared count of elements at least minBytes long each; more
// than the remaining bytes can hold is corruption, never an allocation.
func (c *byteCursor) count(minBytes int) int {
	u := c.uvarint()
	if u > uint64(len(c.b)/minBytes) {
		c.fail()
		return 0
	}
	return int(u)
}

// str reads a length-prefixed string.
func (c *byteCursor) str() string { return string(c.take(c.count(1))) }

// decodeFrame verifies and decodes one in-memory frame.
func decodeFrame(data []byte) (*gdm.Dataset, *IntegrityError) {
	name := ""
	fail := func(reason FaultReason, detail string) *IntegrityError {
		return &IntegrityError{Dataset: name, Path: streamPath, Reason: reason, Detail: detail}
	}
	if len(data) < streamPrefixLen {
		return nil, fail(ReasonTruncated, "stream shorter than frame prefix")
	}
	if !bytes.Equal(data[:len(streamMagic)], streamMagic) {
		return nil, fail(ReasonParse, "bad frame magic")
	}
	hend := streamPrefixLen + int64(binary.LittleEndian.Uint32(data[len(streamMagic):]))
	if hend+4 > int64(len(data)) {
		return nil, fail(ReasonTruncated, "frame header extends past end of stream")
	}
	if sum, declared := crc32.Checksum(data[:hend], castagnoli), binary.LittleEndian.Uint32(data[hend:]); sum != declared {
		return nil, fail(ReasonChecksum, fmt.Sprintf("header crc32c %s != declared %s", crcHex(sum), crcHex(declared)))
	}
	h := &byteCursor{b: data[streamPrefixLen:hend]}
	images := data[hend+4:]
	name = h.str()
	fields := make([]gdm.Field, h.count(2))
	for i := range fields {
		fields[i] = gdm.Field{Name: h.str(), Type: gdm.Kind(h.u8())}
		h.bad = h.bad || fields[i].Type > gdm.KindBool
	}
	if h.bad || len(fields) > maxSchemaFields {
		return nil, fail(ReasonParse, "malformed frame schema")
	}
	schema, err := gdm.NewSchema(fields...)
	if err != nil {
		return nil, fail(ReasonParse, err.Error())
	}
	ds := gdm.NewDataset(name, schema)
	ds.Samples = make([]*gdm.Sample, 0, h.count(3))
	for range cap(ds.Samples) {
		id := h.str()
		md := gdm.NewMetadata()
		for range h.count(2) {
			attr := h.str()
			md.Add(attr, h.str())
		}
		size := h.uvarint()
		if h.bad {
			return nil, fail(ReasonParse, "malformed frame header")
		}
		if size > uint64(len(images)) {
			return nil, fail(ReasonTruncated, fmt.Sprintf("sample %s image extends past end of stream", id))
		}
		s, ie := decodeColumnarSample(name, streamPath+":"+id, id, images[:size], schema)
		if ie != nil {
			return nil, ie
		}
		images = images[size:]
		s.Meta = md
		if err := ds.Add(s); err != nil {
			return nil, fail(ReasonParse, err.Error())
		}
	}
	if h.bad || len(h.b) != 0 || len(images) != 0 {
		return nil, fail(ReasonParse, "malformed frame header or trailing bytes")
	}
	return ds, nil
}
