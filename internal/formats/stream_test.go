package formats

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"genogo/internal/catalog"
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
	s.AddRegion(gdm.NewRegion("chr1", 10, 20, gdm.StrandPlus), gdm.Float(1))
	s.AddRegion(gdm.NewRegion("chr1", 30, 40, gdm.StrandPlus), gdm.Float(2))
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
		if detail := decodeColumnarPayload(payload, part, schema, regs, make([]gdm.Value, part.Regions)); detail == "" {
			t.Errorf("%s: hostile payload decoded cleanly: %v", what, regs)
		}
	}
	s := &gdm.Sample{Regions: make([]gdm.Region, part.Regions), Values: make([]gdm.Value, part.Regions)}
	if detail := decodeColumnarPayload([]byte{2, 2, 2, 2, strandConstant, 0, columnUniform, 1, 0, 'a'}, part, schema, s.Regions, s.Values); detail != "" {
		t.Fatalf("honest hand-made payload: %s", detail)
	}
	if fmt.Sprint(s.Regions[0], s.Row(0)) != "chr1:1-3(*) [a]" || fmt.Sprint(s.Regions[1], s.Row(1)) != "chr1:2-4(*) []" {
		t.Errorf("decoded %v", s.Values)
	}
}

// sealImage builds a one-partition .gdmc image of arity 1 around a hand-made
// payload, with a zone window that admits anything and every checksum right,
// so that only the payload decoder's own checks judge the regions.
func sealImage(chrom string, regions int, payload []byte) []byte {
	img := append([]byte{}, columnarMagic...)
	img = appendUint16(img, 1)
	img = appendUint32(img, 1)
	img = appendUint16(img, uint16(len(chrom)))
	img = append(img, chrom...)
	img = appendUint32(img, uint32(regions))
	img = appendUint64(img, 1<<63)   // minStart: MinInt64
	img = appendUint64(img, 1<<63-1) // maxStop: MaxInt64
	img = appendUint64(img, uint64(len(img)+8+8+4+4))
	img = appendUint64(img, uint64(len(payload)))
	img = appendUint32(img, crc32.Checksum(payload, castagnoli))
	img = appendUint32(img, crc32.Checksum(img, castagnoli))
	return append(img, payload...)
}

// TestDecodeHostileRegions: regions Dataset.Add would refuse — no
// chromosome, a negative start, a stop past MaxInt64 — fail the decode
// itself with a typed parse error, whether they arrive as an image, in a
// frame, or from a member on disk through the full and the pruned read. The
// decoder's samples join a dataset without Add, so nothing else stops them.
func TestDecodeHostileRegions(t *testing.T) {
	schema := gdm.MustSchema(gdm.Field{Name: "n", Type: gdm.KindInt})
	uv := func(u uint64) []byte { return binary.AppendUvarint(nil, u) }
	zz := func(v int64) []byte { return uv(zigzag(v)) }
	payload := func(starts, lengths [2][]byte) []byte {
		return bytes.Join([][]byte{starts[0], starts[1], lengths[0], lengths[1],
			{strandConstant, 0, columnUniform}, zz(2), zz(4)}, nil)
	}
	honest := payload([2][]byte{zz(10), zz(10)}, [2][]byte{uv(5), uv(5)})
	hostile := map[string][]byte{
		"empty chromosome":   sealImage("", 2, honest),
		"negative start":     sealImage("chr1", 2, payload([2][]byte{zz(10), zz(-11)}, [2][]byte{uv(5), uv(5)})),
		"start wraps":        sealImage("chr1", 2, payload([2][]byte{zz(math.MaxInt64), zz(2)}, [2][]byte{uv(0), uv(0)})),
		"start+length wraps": sealImage("chr1", 2, payload([2][]byte{zz(10), zz(0)}, [2][]byte{uv(5), uv(math.MaxInt64 - 9)})),
	}
	wantParse := func(what string, err error) {
		t.Helper()
		var ie *IntegrityError
		if !errors.As(err, &ie) || ie.Reason != ReasonParse {
			t.Errorf("%s: error %v, want a typed %s error", what, err, ReasonParse)
		}
	}
	frameOf := func(id string, image []byte) []byte {
		str := func(s string) []byte { return appendString(nil, s) }
		return sealFrame(bytes.Join([][]byte{str("X"), {1}, str("n"), {byte(gdm.KindInt)},
			{1}, str(id), {0}, uv(uint64(len(image)))}, nil), image)
	}
	// member writes a one-sample member whose image is image, under a
	// manifest that vouches for it.
	member := func(image []byte) string {
		root := t.TempDir()
		ds := gdm.NewDataset("M", schema)
		s := gdm.NewSample("s")
		s.AddRegion(gdm.NewRegion("chr1", 1, 2, gdm.StrandNone), gdm.Int(1))
		ds.MustAdd(s)
		dir := filepath.Join(root, "M")
		if err := WriteDatasetColumnar(dir, ds); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "s"+columnarExt), image, 0o644); err != nil {
			t.Fatal(err)
		}
		man, err := ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		man.Files["s"+columnarExt] = columnarFileInfo(image)
		if err := writeManifest(dir, man); err != nil {
			t.Fatal(err)
		}
		return root
	}
	for what, image := range hostile {
		if _, ie := decodeColumnarSample("X", "x.gdmc", "s", image, schema); ie == nil {
			t.Errorf("%s image: decoded", what)
		} else {
			wantParse(what+" image", ie)
		}
		ds, err := DecodeFrame(frameOf("s", image))
		if ds != nil {
			t.Errorf("%s frame: decoded", what)
		}
		wantParse(what+" frame", err)
		root := member(image)
		_, _, err = OpenDataset(filepath.Join(root, "M"), IntegrityPolicy{})
		wantParse(what+" full load", err)
		_, _, err = NewDirCatalog(root).ReadPruned("M", catalog.Keep{})
		wantParse(what+" pruned read", err)
	}
	// The same image is sound once the lie is taken out, but not as a
	// sample without an ID.
	honestImage := sealImage("chr1", 2, honest)
	_, err := DecodeFrame(frameOf("", honestImage))
	wantParse("empty sample ID", err)
	ds, err := DecodeFrame(frameOf("s", honestImage))
	if err != nil {
		t.Fatalf("honest hand-made frame: %v", err)
	}
	if got := fmt.Sprint(ds.Samples[0].Regions[1], ds.Samples[0].Row(1)); got != "chr1:20-25(*) [4]" {
		t.Errorf("honest frame decoded %s", got)
	}
	if _, _, err := NewDirCatalog(member(honestImage)).ReadPruned("M", catalog.Keep{}); err != nil {
		t.Errorf("honest member: %v", err)
	}
}
