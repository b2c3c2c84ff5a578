package gdm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
)

// ContentDigest returns a stable hex digest of the dataset's logical content:
// the schema plus every sample's ID, metadata and regions, all visited in
// canonical GDM order regardless of the order they happen to be held in
// memory. The dataset's name is deliberately excluded, so renaming a dataset
// directory does not change its version.
//
// Two datasets with equal digests are logically identical, which makes the
// digest usable as the dataset's version: the storage manifest records it,
// and result caches, federated placement maps and incremental views can key
// on it to detect that a dataset changed.
func (d *Dataset) ContentDigest() string {
	h := sha256.New()
	var scratch [8]byte
	wstr := func(s string) {
		binary.BigEndian.PutUint64(scratch[:], uint64(len(s)))
		h.Write(scratch[:])
		h.Write([]byte(s))
	}
	wint := func(v int64) {
		binary.BigEndian.PutUint64(scratch[:], uint64(v))
		h.Write(scratch[:])
	}

	w := d.Schema.Len()
	wint(int64(w))
	for _, f := range d.Schema.Fields() {
		wstr(f.Name)
		wstr(f.Type.String())
	}

	// Visit samples sorted by ID and regions in canonical order without
	// mutating the dataset: both sorts go through index slices.
	sampleIdx := make([]int, len(d.Samples))
	for i := range sampleIdx {
		sampleIdx[i] = i
	}
	sort.SliceStable(sampleIdx, func(i, j int) bool {
		return d.Samples[sampleIdx[i]].ID < d.Samples[sampleIdx[j]].ID
	})
	wint(int64(len(d.Samples)))
	for _, si := range sampleIdx {
		s := d.Samples[si]
		wstr(s.ID)
		pairs := s.Meta.Pairs()
		wint(int64(len(pairs)))
		for _, p := range pairs {
			wstr(p[0])
			wstr(p[1])
		}
		order := SortOrder(s.Regions) // nil: held in canonical order already
		wint(int64(len(s.Regions)))
		for ri := range s.Regions {
			if order != nil {
				ri = int(order[ri])
			}
			r := &s.Regions[ri]
			wstr(r.Chrom)
			wint(r.Start)
			wint(r.Stop)
			wstr(r.Strand.String())
			for _, v := range s.Values[ri*w : (ri+1)*w] {
				wstr(v.String())
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ShortDigest abbreviates a content digest for logs and console rows; the
// empty digest stays empty.
func ShortDigest(digest string) string {
	if len(digest) <= 12 {
		return digest
	}
	return digest[:12]
}
