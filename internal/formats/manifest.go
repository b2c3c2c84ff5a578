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
// changes.
type Manifest struct {
	FormatVersion int    `json:"format_version"`
	Dataset       string `json:"dataset"`
	Samples       int    `json:"samples"`
	Digest        string `json:"digest"`
	// Layout is always LayoutColumnar. A manifest without it was written by
	// an older genogo for the text layout, which gmqlfsck -rebuild converts.
	Layout string              `json:"layout,omitempty"`
	Files  map[string]FileInfo `json:"files"`
	// Stats is the per-(sample, chromosome) statistics block, computed
	// incrementally while the samples were written. Absent in manifests
	// from before the catalog existed (readers then scan once, lazily);
	// carrying its own digest lets readers and gmqlfsck detect a block
	// that no longer describes the data beside it.
	Stats *catalog.DatasetStats `json:"stats,omitempty"`
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

// buildManifest assembles the manifest for a dataset whose files were just
// written with the given checksums. sampleStats carries the per-sample
// statistics the write loop computed incrementally; nil (the fsck rebuild
// path, which has no write loop) computes them here in one pass.
func buildManifest(ds *gdm.Dataset, files map[string]FileInfo, sampleStats []catalog.SampleStats) *Manifest {
	digest := ds.ContentDigest()
	if sampleStats == nil {
		sampleStats = catalog.Compute(ds).Samples
	}
	return &Manifest{
		FormatVersion: ManifestFormatVersion,
		Dataset:       ds.Name,
		Samples:       len(ds.Samples),
		Digest:        digest,
		Layout:        LayoutColumnar,
		Files:         files,
		Stats: &catalog.DatasetStats{
			Version:   catalog.StatsVersion,
			Digest:    digest,
			AttrArity: ds.Schema.Len(),
			Samples:   sampleStats,
		},
	}
}
