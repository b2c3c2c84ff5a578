package formats

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"genogo/internal/catalog"
	"genogo/internal/gdm"
)

// ManifestName is the file at a dataset directory's root describing every
// file the materialization consists of.
const ManifestName = "manifest.json"

// StatsName is a member's partition index: the catalog stats block as
// footered JSON, listed in the manifest with a size and checksum like every
// other member file. No dataset read parses it — each .gdmc image carries its
// own partition index — only the consumers that want a dataset's zone view
// without opening it: a JOIN of two scans, the repository catalog and
// gmqlfsck, each on demand.
const StatsName = "stats.json"

// ManifestFormatVersion is the member layout version this code writes. A
// higher version on disk means the dataset was written by a newer genogo and
// is refused rather than half-understood.
const ManifestFormatVersion = 1

// FileInfo records one member file's size and checksum as the manifest sees
// them. Size is the full on-disk size. For a footered text file CRC32C covers
// the payload bytes before the footer, so it equals the checksum the footer
// itself declares; for a .gdmc image it covers the whole file.
type FileInfo struct {
	Size   int64  `json:"size"`
	CRC32C string `json:"crc32c"`
}

// Manifest is the dataset's self-description, written last (fsynced, inside
// the staging directory) by WriteDatasetColumnar so its presence certifies a
// complete materialization. Digest is the gdm content digest of the whole
// dataset — the dataset's version: it changes iff the logical content
// changes. It is kept small, because every read of the dataset parses it:
// the per-partition statistics live in the stats.json it lists. Manifests
// written before stats.json existed carry the block inline; it is ignored
// (gmqlfsck reports the missing stats.json, and -rebuild moves the block
// out).
type Manifest struct {
	FormatVersion int    `json:"format_version"`
	Dataset       string `json:"dataset"`
	Samples       int    `json:"samples"`
	Digest        string `json:"digest"`
	// Layout is always LayoutColumnar. A manifest without it was written by
	// an older genogo for the text layout, which gmqlfsck -rebuild converts.
	Layout string              `json:"layout,omitempty"`
	Files  map[string]FileInfo `json:"files"`
}

// SampleIDs lists the sample IDs the manifest declares, sorted, derived from
// its .gdmc entries.
func (m *Manifest) SampleIDs() []string {
	var ids []string
	for name := range m.Files {
		if id, ok := strings.CutSuffix(name, columnarExt); ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// ReadManifest loads and verifies dir's manifest. A directory without one (a
// text export) yields an error satisfying errors.Is(err, fs.ErrNotExist); a
// present but damaged manifest, or one that does not describe a member,
// yields a typed *IntegrityError with ReasonBadManifest.
func ReadManifest(dir string) (*Manifest, error) {
	path := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("dataset %s: %w", dir, fs.ErrNotExist)
		}
		return nil, fmt.Errorf("dataset %s: %w", dir, err)
	}
	bad := func(detail string) error {
		return &IntegrityError{Dataset: filepath.Base(dir), Path: path, Reason: ReasonBadManifest, Detail: detail}
	}
	payload, _, _, ok := splitFooter(data)
	if !ok {
		return nil, bad("integrity footer missing or does not match")
	}
	var m Manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, bad(fmt.Sprintf("unparseable: %v", err))
	}
	if m.FormatVersion > ManifestFormatVersion {
		return nil, bad(fmt.Sprintf("format version %d is newer than supported %d", m.FormatVersion, ManifestFormatVersion))
	}
	if m.Layout != LayoutColumnar {
		return nil, bad(fmt.Sprintf("layout %q is not a member's (%q): a text directory from an older genogo; gmqlfsck -rebuild converts it",
			m.Layout, LayoutColumnar))
	}
	if m.Files == nil {
		return nil, bad("no files section")
	}
	if _, ok := m.Files["schema.txt"]; !ok {
		return nil, bad("manifest does not list schema.txt")
	}
	if n := len(m.SampleIDs()); n != m.Samples {
		return nil, bad(fmt.Sprintf("manifest declares %d samples but lists %d region files", m.Samples, n))
	}
	return &m, nil
}

// writeManifest materializes the manifest into dir, footered and fsynced like
// every other text file of a member.
func writeManifest(dir string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	data = append(data, '\n')
	_, err = writeFileWith(filepath.Join(dir, ManifestName), func(w io.Writer) error {
		_, werr := w.Write(data)
		return werr
	})
	return err
}

// writeMemberIndex finishes a member whose data files were just written with
// the given checksums: stats.json first, then the manifest listing it with
// them. sampleStats carries the per-sample statistics the write loop computed
// incrementally; nil (the fsck rebuild path, which has no write loop)
// computes them here in one pass.
func writeMemberIndex(dir string, ds *gdm.Dataset, files map[string]FileInfo, sampleStats []catalog.SampleStats) error {
	digest := ds.ContentDigest()
	if sampleStats == nil {
		sampleStats = catalog.Compute(ds).Samples
	}
	info, err := writeStats(dir, &catalog.DatasetStats{
		Version:   catalog.StatsVersion,
		Digest:    digest,
		AttrArity: ds.Schema.Len(),
		Samples:   sampleStats,
	})
	if err != nil {
		return err
	}
	files[StatsName] = info
	return writeManifest(dir, &Manifest{
		FormatVersion: ManifestFormatVersion,
		Dataset:       ds.Name,
		Samples:       len(ds.Samples),
		Digest:        digest,
		Layout:        LayoutColumnar,
		Files:         files,
	})
}

// writeStats materializes a stats block as dir's stats.json, footered and
// fsynced, and returns its manifest entry.
func writeStats(dir string, st *catalog.DatasetStats) (FileInfo, error) {
	data, err := json.Marshal(st)
	if err != nil {
		return FileInfo{}, fmt.Errorf("stats: %w", err)
	}
	return writeFileWith(filepath.Join(dir, StatsName), func(w io.Writer) error {
		_, werr := w.Write(data)
		return werr
	})
}

// readStats reads and verifies a member's stats.json against its manifest:
// footer, then the manifest entry. A manifest that does not list the file
// (one written before it existed) yields a ReasonMissing error. The block's
// version and digest are the caller's to judge.
func readStats(dir string, man *Manifest) (*catalog.DatasetStats, *IntegrityError) {
	if _, listed := man.Files[StatsName]; !listed {
		return nil, &IntegrityError{Dataset: filepath.Base(dir), Path: filepath.Join(dir, StatsName),
			Reason: ReasonMissing, Detail: "manifest lists no " + StatsName}
	}
	var st catalog.DatasetStats
	if ie := readMemberFile(dir, StatsName, man, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&st)
	}); ie != nil {
		return nil, ie
	}
	return &st, nil
}

// usableStats returns the stats block of the member in dir when it is
// trustworthy: it verifies, its version is one this build reads, and it
// describes the data beside it (its digest is the manifest's).
func usableStats(dir string) (*catalog.DatasetStats, bool) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, false
	}
	st, ie := readStats(dir, man)
	if ie != nil || st.Version > catalog.StatsVersion || st.Digest != man.Digest {
		return nil, false
	}
	return st, true
}
