package formats

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

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
	f, err := NewFrame(ds)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	f.ServeRange(w, 0, f.Samples())
}

// EncodeDataset writes the whole dataset as one frame: the wire format of the
// federation protocol and the genome-net crawler.
func EncodeDataset(w io.Writer, ds *gdm.Dataset) error {
	f, err := NewFrame(ds)
	if err != nil {
		return err
	}
	if err := f.WriteRange(w, 0, f.Samples()); err != nil {
		return fmt.Errorf("encode dataset %s: %w", ds.Name, err)
	}
	return nil
}

// appendString appends a length-prefixed string.
func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// Frame is a dataset encoded once for the wire: the name and schema part of
// the header, each sample's header entry, and each sample's .gdmc image in
// an exactly sized buffer of its own. Any contiguous window of its samples
// goes out as a frame of its own, byte-identical to EncodeDataset of that
// window: only the small header is rebuilt, and the window's images follow
// it as they are. A staged result is therefore encoded once however it is
// fetched. A Frame is immutable and safe for concurrent use.
type Frame struct {
	head     []byte   // name and schema, as the header carries them
	entries  []byte   // per-sample header entries, in sample order
	entryOff []int    // sample i's entry is entries[entryOff[i]:entryOff[i+1]]
	images   [][]byte // sample i's .gdmc image
	imageOff []int    // images[:i] hold imageOff[i] bytes together
}

// NewFrame encodes ds. It fails, naming the dataset, on what the columnar
// encoder refuses (a region whose arity differs from the schema's, a value
// of the wrong kind) and on a header too long for the frame's length field.
func NewFrame(ds *gdm.Dataset) (*Frame, error) {
	images, err := encodeImages(ds)
	if err != nil {
		return nil, fmt.Errorf("encode dataset %s: %w", ds.Name, err)
	}
	n := len(ds.Samples)
	f := &Frame{entryOff: make([]int, n+1), images: images, imageOff: make([]int, n+1)}
	f.head = appendString(f.head, ds.Name)
	f.head = binary.AppendUvarint(f.head, uint64(ds.Schema.Len()))
	for _, fd := range ds.Schema.Fields() {
		f.head = append(appendString(f.head, fd.Name), byte(fd.Type))
	}
	for i, s := range ds.Samples {
		f.entries = appendString(f.entries, s.ID)
		pairs := s.Meta.Pairs()
		f.entries = binary.AppendUvarint(f.entries, uint64(len(pairs)))
		for _, p := range pairs {
			f.entries = appendString(appendString(f.entries, p[0]), p[1])
		}
		f.entries = binary.AppendUvarint(f.entries, uint64(len(images[i])))
		f.entryOff[i+1], f.imageOff[i+1] = len(f.entries), f.imageOff[i]+len(images[i])
	}
	if len(f.head)+binary.MaxVarintLen64+len(f.entries) > math.MaxUint32 {
		return nil, fmt.Errorf("encode dataset %s: frame header exceeds encodable length", ds.Name)
	}
	return f, nil
}

// encodeImages encodes every sample's .gdmc image on up to GOMAXPROCS
// goroutines, the images being independent. Each worker encodes into one
// reused buffer and keeps an exactly sized copy; the copies are not joined
// into one buffer, because that second copy of the frame would land at the
// end of the evaluation, where it raised a server's peak RSS (EXPERIMENTS.md,
// "Staged frames"). The error, if any, is the lowest-indexed failing
// sample's, so it reads the same on every run.
func encodeImages(ds *gdm.Dataset) ([][]byte, error) {
	images := make([][]byte, len(ds.Samples))
	errs := make([]error, len(ds.Samples))
	var next atomic.Int64
	work := func() {
		var buf []byte
		for {
			i := int(next.Add(1) - 1)
			if i >= len(images) {
				return
			}
			buf, errs[i] = appendColumnarSample(buf[:0], ds.Samples[i], ds.Schema)
			images[i] = bytes.Clone(buf)
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(images)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return images, nil
}

// Samples is the number of samples in the frame.
func (f *Frame) Samples() int { return len(f.images) }

// Size is the length of the whole frame in bytes, what EncodeDataset writes.
func (f *Frame) Size() int64 {
	var count [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(count[:], uint64(f.Samples()))
	return int64(streamPrefixLen + len(f.head) + n + len(f.entries) + 4 + f.imageOff[len(f.images)])
}

// window clamps [start, start+count) to the frame's samples: a start past the
// end is the end, and the count is cut to what remains. It never adds start
// and count, which need not fit an int together.
func (f *Frame) window(start, count int) (int, int) {
	start = min(max(start, 0), f.Samples())
	return start, min(max(count, 0), f.Samples()-start)
}

// rangeParts returns the frame of samples [start, start+count), clamped by
// window, as its rebuilt header and its images, and the frame's length.
func (f *Frame) rangeParts(start, count int) (hdr []byte, images [][]byte, size int) {
	start, count = f.window(start, count)
	entries := f.entries[f.entryOff[start]:f.entryOff[start+count]]
	hdr = make([]byte, 0, streamPrefixLen+len(f.head)+binary.MaxVarintLen64+len(entries)+4)
	hdr = append(hdr, streamMagic...)
	hdr = appendUint32(hdr, 0) // header length, set once it is known
	hdr = append(hdr, f.head...)
	hdr = binary.AppendUvarint(hdr, uint64(count))
	hdr = append(hdr, entries...)
	binary.LittleEndian.PutUint32(hdr[len(streamMagic):], uint32(len(hdr)-streamPrefixLen))
	hdr = appendUint32(hdr, crc32.Checksum(hdr, castagnoli))
	return hdr, f.images[start : start+count], len(hdr) + f.imageOff[start+count] - f.imageOff[start]
}

// writeParts writes a frame's header and then its images.
func writeParts(w io.Writer, hdr []byte, images [][]byte) error {
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	for _, img := range images {
		if _, err := w.Write(img); err != nil {
			return err
		}
	}
	return nil
}

// WriteRange writes samples [start, start+count) as one frame. The window is
// clamped to the frame's samples, so an empty or out-of-range window writes
// a valid frame of no samples.
func (f *Frame) WriteRange(w io.Writer, start, count int) error {
	hdr, images, _ := f.rangeParts(start, count)
	return writeParts(w, hdr, images)
}

// ServeRange answers an HTTP request with samples [start, start+count) as
// one frame (clamped as WriteRange clamps), its Content-Length declared.
func (f *Frame) ServeRange(w http.ResponseWriter, start, count int) {
	hdr, images, size := f.rangeParts(start, count)
	w.Header().Set("Content-Type", FrameContentType)
	w.Header().Set("Content-Length", strconv.Itoa(size))
	_ = writeParts(w, hdr, images) // fails only when the requester is gone
}

// DecodeDataset reads a frame produced by EncodeDataset from r, then decodes
// it with DecodeFrame. A caller that holds the frame's bytes calls
// DecodeFrame, which does not copy them first.
func DecodeDataset(r io.Reader) (*gdm.Dataset, error) {
	// A bytes.Reader writes itself into the buffer in one piece through
	// io.Copy, where io.ReadAll would grow and copy its way up to it.
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, fmt.Errorf("decode dataset: %w", err)
	}
	return DecodeFrame(buf.Bytes())
}

// DecodeFrame decodes a frame produced by EncodeDataset. Any damage — a
// flipped bit, a cut, a count the bytes cannot back — fails the decode with
// a typed *IntegrityError; nothing is ever returned from a frame that does
// not verify in full. The dataset shares no memory with data.
func DecodeFrame(data []byte) (*gdm.Dataset, error) {
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
		ds.Samples = append(ds.Samples, s) // decodeColumnarSample proved what Add checks
	}
	if h.bad || len(h.b) != 0 || len(images) != 0 {
		return nil, fail(ReasonParse, "malformed frame header or trailing bytes")
	}
	return ds, nil
}
