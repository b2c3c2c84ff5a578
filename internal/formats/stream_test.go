package formats

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"genogo/internal/gdm"
)

// encodeFrame is EncodeDataset into a fresh byte slice.
func encodeFrame(t testing.TB, ds *gdm.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeDataset(&buf, ds); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStreamRoundTrip(t *testing.T) {
	for _, ds := range []*gdm.Dataset{testDataset(t), kindsDataset(t)} {
		got, err := DecodeDataset(bytes.NewReader(encodeFrame(t, ds)))
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != ds.Name {
			t.Errorf("name = %q, want %q", got.Name, ds.Name)
		}
		datasetsEqual(t, ds, got)
	}
}

func TestStreamEmptyDataset(t *testing.T) {
	got, err := DecodeDataset(bytes.NewReader(encodeFrame(t, gdm.NewDataset("EMPTY", nil))))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "EMPTY" || len(got.Samples) != 0 || got.Schema.Len() != 0 {
		t.Errorf("got %s", got)
	}
}

// wantStreamError asserts a decode failed with a typed error and no dataset.
func wantStreamError(t *testing.T, what string, data []byte) *IntegrityError {
	t.Helper()
	ds, err := DecodeDataset(bytes.NewReader(data))
	var ie *IntegrityError
	if ds != nil || !errors.As(err, &ie) || ie.Reason == "" {
		t.Fatalf("%s: dataset %v, error %v; want a typed *IntegrityError and no dataset", what, ds != nil, err)
	}
	return ie
}

// testFrames are the frames the damage tests corrupt: the all-kinds fixture
// whole, and window [0, 1) of it as a staged result serves it (a rebuilt
// header and the window's images).
func testFrames(t *testing.T) map[string][]byte {
	f, err := NewFrame(kindsDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"whole": encodeFrame(t, kindsDataset(t)), "range": frameRange(t, f, 0, 1)}
}

// TestStreamEveryBitFlipDetected is the wire twin of
// TestColumnarEveryBitFlipDetected: the header CRC covers the prefix and the
// header, every image carries its own section checksums, so flipping any
// single bit of a frame must fail the decode with a typed error.
func TestStreamEveryBitFlipDetected(t *testing.T) {
	for what, data := range testFrames(t) {
		mut := make([]byte, len(data))
		for off := range data {
			for bit := uint(0); bit < 8; bit++ {
				copy(mut, data)
				mut[off] ^= 1 << bit
				wantStreamError(t, what+" frame bit flip", mut)
			}
		}
		// The flip that still parses as metadata is the header checksum's to
		// find.
		copy(mut, data)
		mut[bytes.Index(data, []byte("HeLa"))] = 'X'
		if ie := wantStreamError(t, what+" frame metadata flip", mut); ie.Reason != ReasonChecksum {
			t.Errorf("%s frame metadata flip: reason %s, want %s", what, ie.Reason, ReasonChecksum)
		}
	}
}

// TestStreamEveryTruncationDetected: every proper prefix of a frame, and a
// frame with a byte appended, fails the decode.
func TestStreamEveryTruncationDetected(t *testing.T) {
	for what, data := range testFrames(t) {
		for n := 0; n < len(data); n++ {
			wantStreamError(t, what+" frame truncation", data[:n])
		}
		wantStreamError(t, what+" frame trailing byte", append(append([]byte{}, data...), 0))
	}
}

// sealFrame wraps a hand-made header and image block in a valid prefix and
// header checksum, so that only the decoder's own bounds stand between a
// hostile count and an allocation.
func sealFrame(header, images []byte) []byte {
	out := append([]byte{}, streamMagic...)
	out = appendUint32(out, uint32(len(header)))
	out = append(out, header...)
	out = appendUint32(out, crc32.Checksum(out, castagnoli))
	return append(out, images...)
}

// TestDecodeHostileCounts: a frame whose checksums are right but whose counts
// and lengths lie is a typed error, and decoding it allocates no more than
// its few bytes can back — a declared 2^40 of anything never reaches make.
func TestDecodeHostileCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	str := func(s string) []byte { return appendString(nil, s) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	oneField := cat([]byte{1}, str("p"), []byte{byte(gdm.KindFloat)})
	schema := gdm.MustSchema(gdm.Field{Name: "p", Type: gdm.KindFloat})

	s := gdm.NewSample("s")
	s.AddRegion(gdm.NewRegion("chr1", 10, 20, gdm.StrandPlus, gdm.Float(1)))
	s.AddRegion(gdm.NewRegion("chr1", 30, 40, gdm.StrandPlus, gdm.Float(2)))
	image, err := appendColumnarSample(nil, s, schema)
	if err != nil {
		t.Fatal(err)
	}
	sampleHeader := func(image []byte) []byte {
		return cat(str("X"), oneField, []byte{1}, str("s"), []byte{0}, binary.AppendUvarint(nil, uint64(len(image))))
	}
	// The image's one partition claims 2^30 regions in its 30-odd payload
	// bytes, under a recomputed index checksum.
	manyRegions := append([]byte{}, image...)
	entry := columnarHeaderLen + 2 + len("chr1")
	binary.LittleEndian.PutUint32(manyRegions[entry:], 1<<30)
	indexEnd := columnarHeaderLen + columnarEntryFixed + len("chr1")
	binary.LittleEndian.PutUint32(manyRegions[indexEnd:], crc32.Checksum(manyRegions[:indexEnd], castagnoli))
	// The image claims 2^20 partitions and holds one.
	manyParts := append([]byte{}, image...)
	binary.LittleEndian.PutUint32(manyParts[8:], 1<<20)

	hostile := map[string][]byte{
		"name length":     sealFrame(huge, nil),
		"field count":     sealFrame(cat(str("X"), huge), nil),
		"field name":      sealFrame(cat(str("X"), []byte{1}, huge), nil),
		"unknown kind":    sealFrame(cat(str("X"), []byte{1}, str("p"), []byte{9}, []byte{0}), nil),
		"sample count":    sealFrame(cat(str("X"), oneField, huge), nil),
		"sample id":       sealFrame(cat(str("X"), oneField, []byte{1}, huge), nil),
		"pair count":      sealFrame(cat(str("X"), oneField, []byte{1}, str("s"), huge), nil),
		"pair value":      sealFrame(cat(str("X"), oneField, []byte{1}, str("s"), []byte{1}, str("a"), huge), nil),
		"image length":    sealFrame(cat(str("X"), oneField, []byte{1}, str("s"), []byte{0}, huge), image),
		"region count":    sealFrame(sampleHeader(manyRegions), manyRegions),
		"partition count": sealFrame(sampleHeader(manyParts), manyParts),
		"header length":   append(appendUint32(append([]byte{}, streamMagic...), 1<<31), 1, 2, 3),
	}
	for what, frame := range hostile {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		wantStreamError(t, what, frame)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: decoding a %d-byte frame allocated %d bytes", what, len(frame), grew)
		}
	}
	// The same frames are well-formed once the lie is taken out.
	if _, err := DecodeDataset(bytes.NewReader(sealFrame(sampleHeader(image), image))); err != nil {
		t.Fatalf("honest hand-made frame: %v", err)
	}
}

// TestStreamHostilePayload: lengths inside a checksummed partition payload
// are bounded by the payload, not trusted.
func TestStreamHostilePayload(t *testing.T) {
	schema := gdm.MustSchema(gdm.Field{Name: "name", Type: gdm.KindString})
	part := columnarPart{Chrom: "chr1", Regions: 2, MinStart: 0, MaxStop: 100}
	huge := binary.AppendUvarint(nil, 1<<40)
	// Two lengths whose uint64 sum wraps to exactly the bytes that follow.
	wrapTo5 := binary.AppendUvarint(nil, 1<<64-5)
	wrapTo2 := binary.AppendUvarint(nil, 1<<64-1)
	for what, payload := range map[string][]byte{
		"string length":          bytes.Join([][]byte{{2, 2, 2, 2, strandConstant, 0, columnUniform}, huge, {1, 'a'}}, nil),
		"string sum":             {2, 2, 2, 2, strandConstant, 0, columnUniform, 2, 2, 'a', 'b', 'c'},
		"string sum wraps":       bytes.Join([][]byte{{2, 2, 2, 2, strandConstant, 0, columnUniform, 10}, wrapTo5, []byte("abcde")}, nil),
		"string sum wraps under": bytes.Join([][]byte{{2, 2, 2, 2, strandConstant, 0, columnUniform, 3}, wrapTo2, []byte("ab")}, nil),
		"strand mode":            {2, 2, 2, 2, 7, 0, columnUniform, 0, 0},
		"strand byte":            {2, 2, 2, 2, strandConstant, 5, columnUniform, 0, 0},
		"column mode":            {2, 2, 2, 2, strandConstant, 0, 9, 0, 0},
		"kind tag":               {2, 2, 2, 2, strandConstant, 0, columnTagged, byte(gdm.KindInt), 0},
		"outside window":         {2, 2, 200, 1, 2, strandConstant, 0, columnUniform, 0, 0},
		"cut varint":             {2, 0x80},
		"trailing":               {2, 2, 2, 2, strandConstant, 0, columnUniform, 0, 0, 0},
	} {
		regs := make([]gdm.Region, part.Regions)
		if detail := decodeColumnarPayload(payload, part, schema, regs); detail == "" {
			t.Errorf("%s: hostile payload decoded cleanly: %v", what, regs)
		}
	}
	regs := make([]gdm.Region, part.Regions)
	if detail := decodeColumnarPayload([]byte{2, 2, 2, 2, strandConstant, 0, columnUniform, 1, 0, 'a'}, part, schema, regs); detail != "" {
		t.Fatalf("honest hand-made payload: %s", detail)
	}
	if regs[0].String() != "chr1:1-3(*) a" || regs[1].String() != "chr1:2-4(*) " {
		t.Errorf("decoded %v", regs)
	}
}
