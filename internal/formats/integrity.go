package formats

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"genogo/internal/gdm"
)

// The integrity layer makes a repository member self-verifying. A member's
// text files (schema.txt, every <sample>.gdm.meta and the manifest) end with
// a one-line footer
//
//	#gdmsum<TAB>crc32c:<8 hex><TAB>bytes:<payload length>
//
// covering every byte before it; its .gdmc images carry section checksums of
// their own (columnar.go). The manifest.json records every file's size and
// checksum plus the dataset's content digest (its version). The footer
// starts with '#', so the text line scanners skip it.
//
// OpenDataset is the verified read path. Damage is never parsed into wrong
// query results: a corrupt file either fails the load with a typed
// *IntegrityError or — under IntegrityPolicy.AllowPartial — is quarantined
// (optionally moved into the dataset's .quarantine directory) and reported,
// mirroring the federation layer's PartialFailure semantics.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const footerMagic = "#gdmsum\t"

// crcHex renders a checksum the way footers and manifests spell it.
func crcHex(sum uint32) string { return fmt.Sprintf("%08x", sum) }

// footerLine renders the integrity footer for a payload.
func footerLine(sum uint32, payloadLen int64) string {
	return fmt.Sprintf("#gdmsum\tcrc32c:%s\tbytes:%d\n", crcHex(sum), payloadLen)
}

// countingWriter tracks how many payload bytes were written and whether the
// last one was a newline, so the integrity footer always starts on its own
// line.
type countingWriter struct {
	w        io.Writer
	n        int64
	lastByte byte
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	if n > 0 {
		c.lastByte = p[n-1]
	}
	return n, err
}

// writeFileWith writes fn's output to path followed by the integrity footer,
// fsynced, so the bytes are durable and self-verifying by the time the staged
// directory is renamed into place. It returns the file's manifest entry.
func writeFileWith(path string, fn func(io.Writer) error) (FileInfo, error) {
	var info FileInfo
	err := writeSynced(path, func(w io.Writer) error {
		h := crc32.New(castagnoli)
		cw := &countingWriter{w: io.MultiWriter(w, h)}
		if err := fn(cw); err != nil {
			return err
		}
		if cw.n > 0 && cw.lastByte != '\n' {
			if _, err := cw.Write([]byte("\n")); err != nil {
				return err
			}
		}
		footer := footerLine(h.Sum32(), cw.n)
		if _, err := io.WriteString(w, footer); err != nil {
			return err
		}
		info = FileInfo{Size: cw.n + int64(len(footer)), CRC32C: crcHex(h.Sum32())}
		return nil
	})
	return info, err
}

// splitFooter locates and validates the integrity footer in a file's bytes.
// It returns the payload with the footer stripped and whether the checksum
// verified. hasFooter distinguishes "no footer present" (a text export's
// file, ok false) from "footer present but wrong" (corruption, ok false).
func splitFooter(data []byte) (payload []byte, sum uint32, hasFooter, ok bool) {
	start := -1
	if bytes.HasPrefix(data, []byte(footerMagic)) {
		start = 0
	}
	if i := bytes.LastIndex(data, []byte("\n"+footerMagic)); i >= 0 {
		start = i + 1
	}
	if start < 0 {
		return data, 0, false, false
	}
	line := data[start:]
	if line[len(line)-1] != '\n' {
		return data[:start], 0, true, false // torn footer
	}
	parts := strings.Split(string(line[:len(line)-1]), "\t")
	if len(parts) != 3 || !strings.HasPrefix(parts[1], "crc32c:") || !strings.HasPrefix(parts[2], "bytes:") {
		return data[:start], 0, true, false
	}
	declared, err := strconv.ParseUint(strings.TrimPrefix(parts[1], "crc32c:"), 16, 32)
	if err != nil {
		return data[:start], 0, true, false
	}
	n, err := strconv.ParseInt(strings.TrimPrefix(parts[2], "bytes:"), 10, 64)
	// Only the writer's own rendering counts: "crc32c:C20B..." or "bytes:+16"
	// parse to the same numbers, so a flipped bit there would go unseen.
	if err != nil || n != int64(start) || string(line) != footerLine(uint32(declared), n) {
		return data[:start], uint32(declared), true, false
	}
	payload = data[:start]
	if crc32.Checksum(payload, castagnoli) != uint32(declared) {
		return payload, uint32(declared), true, false
	}
	return payload, uint32(declared), true, true
}

// FaultReason classifies an integrity fault.
type FaultReason string

// The fault classes the read path and fsck distinguish.
const (
	ReasonChecksum      FaultReason = "checksum_mismatch"
	ReasonTruncated     FaultReason = "truncated"
	ReasonMissing       FaultReason = "missing_file"
	ReasonParse         FaultReason = "parse_error"
	ReasonBadManifest   FaultReason = "bad_manifest"
	ReasonStaleManifest FaultReason = "stale_manifest"
	ReasonTornRename    FaultReason = "torn_rename"
	ReasonBadStats      FaultReason = "bad_stats"
)

// IntegrityError is the typed error for storage damage: what dataset, which
// file, what kind of fault. It is the storage analogue of the federation
// layer's NodeFailure — callers branch on it with errors.As.
type IntegrityError struct {
	Dataset string      `json:"dataset"`
	Path    string      `json:"path"`
	Reason  FaultReason `json:"reason"`
	Detail  string      `json:"detail,omitempty"`
}

// Error implements error.
func (e *IntegrityError) Error() string {
	msg := fmt.Sprintf("storage integrity: dataset %s: %s: %s", e.Dataset, e.Path, e.Reason)
	if e.Detail != "" {
		msg += " (" + e.Detail + ")"
	}
	return msg
}

// IntegrityPolicy configures how OpenDataset reacts to damage.
type IntegrityPolicy struct {
	// AllowPartial loads the verifiable samples and reports the corrupt ones
	// instead of failing the whole dataset — the storage mirror of
	// federation's degraded-mode partial results. Schema or manifest damage
	// is always fatal: without them nothing is interpretable.
	AllowPartial bool
	// Quarantine physically moves corrupt files into the dataset's
	// .quarantine directory (dot-prefixed, so loaders never see it) where
	// gmqlfsck can restore them if a good copy reappears. Only meaningful
	// with AllowPartial; requires write access to the dataset directory.
	Quarantine bool
}

// QuarantinedSample describes one sample excluded from a partial load.
type QuarantinedSample struct {
	Sample  string      `json:"sample"`
	File    string      `json:"file"`
	Reason  FaultReason `json:"reason"`
	Detail  string      `json:"detail,omitempty"`
	MovedTo string      `json:"moved_to,omitempty"`
}

// IntegrityReport is the verification outcome of one dataset load, returned
// by OpenDataset alongside the dataset and kept by the DirCatalog that read
// it (/debug/repo/{name}) — non-fatal damage travels here, the way
// federation's PartialFailure travels next to a degraded result.
type IntegrityReport struct {
	Dataset  string `json:"dataset"`
	Dir      string `json:"dir"`
	Digest   string `json:"digest,omitempty"`
	Verified bool   `json:"verified"`
	// Unverified marks an import of a text export: no manifest vouched for
	// its bytes.
	Unverified    bool                `json:"unverified"`
	SamplesLoaded int                 `json:"samples_loaded"`
	Quarantined   []QuarantinedSample `json:"quarantined,omitempty"`
}

// Partial reports whether the load excluded any samples.
func (r *IntegrityReport) Partial() bool { return r != nil && len(r.Quarantined) > 0 }

// fileError types a failed read of a dataset file: it is missing (or
// unreadable) damage.
func fileError(dataset, path string, err error) *IntegrityError {
	ie := &IntegrityError{Dataset: dataset, Path: path, Reason: ReasonMissing}
	if !os.IsNotExist(err) {
		ie.Detail = err.Error()
	}
	return ie
}

// staleError is the fault of a self-consistent file the manifest describes
// differently: the file verifies, the materialization lies.
func staleError(dataset, path string, have, want FileInfo) *IntegrityError {
	return &IntegrityError{Dataset: dataset, Path: path, Reason: ReasonStaleManifest,
		Detail: fmt.Sprintf("file is self-consistent (%s, %d bytes) but manifest records %s, %d bytes",
			have.CRC32C, have.Size, want.CRC32C, want.Size)}
}

// footerPayload strips a text file's footer and returns the payload and the
// file's FileInfo. A footer must match where present, and be present when
// required — its loss is then a truncation; a footerless file comes back
// whole with a zero FileInfo.
func footerPayload(dataset, path string, data []byte, required bool) ([]byte, FileInfo, *IntegrityError) {
	payload, sum, hasFooter, ok := splitFooter(data)
	switch {
	case ok:
		return payload, FileInfo{Size: int64(len(data)), CRC32C: crcHex(sum)}, nil
	case hasFooter:
		return nil, FileInfo{}, &IntegrityError{Dataset: dataset, Path: path, Reason: ReasonChecksum,
			Detail: "integrity footer does not match file contents"}
	case required:
		return nil, FileInfo{}, &IntegrityError{Dataset: dataset, Path: path, Reason: ReasonTruncated,
			Detail: "integrity footer missing"}
	}
	return data, FileInfo{}, nil
}

// checkFootered verifies the bytes of one footered member file (schema.txt,
// a .gdm.meta, listed in the manifest as want when listed) and returns the
// payload: footer first (is the file self-consistent?), then the manifest
// (is it the file the materialization promised?). A file the manifest does
// not vouch for cannot be trusted even if self-consistent: the manifest is
// stale.
func checkFootered(dataset, path string, data []byte, want FileInfo, listed bool) ([]byte, *IntegrityError) {
	payload, have, ie := footerPayload(dataset, path, data, listed)
	switch {
	case ie != nil:
		return nil, ie
	case !listed:
		return nil, &IntegrityError{Dataset: dataset, Path: path, Reason: ReasonStaleManifest,
			Detail: "file not listed in manifest"}
	case have != want:
		return nil, staleError(dataset, path, have, want)
	}
	return payload, nil
}

// readMemberFile reads one footered file of a member, verifies it against
// the manifest and parses its payload.
func readMemberFile(dir, file string, man *Manifest, parse func(io.Reader) error) *IntegrityError {
	name, path := filepath.Base(dir), filepath.Join(dir, file)
	data, err := os.ReadFile(path)
	if err != nil {
		return fileError(name, path, err)
	}
	want, listed := man.Files[file]
	payload, ie := checkFootered(name, path, data, want, listed)
	if ie == nil {
		if err := parse(bytes.NewReader(payload)); err != nil {
			ie = &IntegrityError{Dataset: name, Path: path, Reason: ReasonParse, Detail: err.Error()}
		}
	}
	return ie
}

// OpenDataset loads a dataset directory. This is where a directory is told
// apart as a repository member or a text export, once: with a manifest it is
// a member, and every file is verified — footer or section checksums, then
// the manifest — before its contents are used; without one it is an export,
// imported as unverified data (genogo_storage_unverified_total counts it).
//
// Under the zero policy any damage fails the load with a typed
// *IntegrityError. With AllowPartial, damaged samples are excluded (and with
// Quarantine moved into .quarantine/) and itemized in the report; the
// returned dataset holds only bytes that verified end to end. No record of
// the load is kept here; a DirCatalog keeps the reports of its own reads.
func OpenDataset(dir string, pol IntegrityPolicy) (*gdm.Dataset, *IntegrityReport, error) {
	dir = filepath.Clean(dir)
	name := filepath.Base(dir)
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		if err != nil && os.IsNotExist(err) {
			// A missing directory next to a ".<name>.old" sibling is the
			// signature of a torn staged-write rename: the previous version
			// was moved aside and the crash hit before the new one landed.
			old := filepath.Join(filepath.Dir(dir), "."+name+".old")
			if ofi, oerr := os.Stat(old); oerr == nil && ofi.IsDir() {
				metricIntegrityFailures.With(string(ReasonTornRename)).Inc()
				return nil, nil, &IntegrityError{
					Dataset: name, Path: dir, Reason: ReasonTornRename,
					Detail: fmt.Sprintf("dataset directory missing but %s exists; gmqlfsck restores it", old),
				}
			}
		}
		if err == nil {
			err = fmt.Errorf("not a directory")
		}
		return nil, nil, fmt.Errorf("dataset %s: %w", dir, err)
	}
	rep := &IntegrityReport{Dataset: name, Dir: dir}
	var ds *gdm.Dataset
	man, err := ReadManifest(dir)
	switch {
	case err == nil:
		ds, err = openMember(dir, man, pol, rep)
	case errors.Is(err, fs.ErrNotExist):
		rep.Unverified = true
		ds, err = readExport(dir, pol, rep)
	default:
		var ie *IntegrityError
		if errors.As(err, &ie) {
			metricIntegrityFailures.With(string(ie.Reason)).Inc()
		}
	}
	if err != nil {
		return nil, nil, err
	}
	rep.SamplesLoaded = len(ds.Samples)
	switch {
	case rep.Unverified:
		metricUnverifiedLoads.Inc()
	case rep.Partial():
		metricPartialLoads.Inc()
	default:
		rep.Verified = true
		metricVerifiedLoads.Inc()
	}
	return ds, rep, nil
}

// readMemberSchema verifies and parses a member's schema.txt — the
// fatal-first step the full and the pruned read share. Damage is always
// fatal: without the schema nothing is interpretable.
func readMemberSchema(dir string, man *Manifest) (schema *gdm.Schema, err error) {
	if ie := readMemberFile(dir, "schema.txt", man, func(r io.Reader) error {
		schema, err = ReadSchema(r)
		return err
	}); ie != nil {
		metricIntegrityFailures.With(string(ie.Reason)).Inc()
		return nil, ie
	}
	return schema, nil
}

// openMember verifies and loads a repository member: the schema, every sample
// the manifest lists, then whatever else the directory holds.
func openMember(dir string, man *Manifest, pol IntegrityPolicy, rep *IntegrityReport) (*gdm.Dataset, error) {
	schema, err := readMemberSchema(dir, man)
	if err != nil {
		return nil, err
	}
	ids := man.SampleIDs()
	ds := gdm.NewDataset(rep.Dataset, schema)
	err = addSamples(ids, columnarExt, pol, rep, func(id string) *IntegrityError {
		s, ie := readColumnarSampleVerified(dir, id, schema, man)
		if ie == nil {
			s.SortRegions()
			ds.Samples = append(ds.Samples, s) // the decoder proved what Add checks
		}
		return ie
	})
	if err != nil {
		return nil, err
	}

	// Sample files on disk that belong to no manifest-listed sample are
	// stale-manifest damage: leftovers of a torn write or additions made
	// behind the manifest's back, with no checksum to trust them by.
	known := make(map[string]bool, len(ids))
	for _, id := range ids {
		known[id] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("dataset %s: %w", dir, err)
	}
	for _, e := range entries {
		id, ok := sampleFileID(e.Name())
		if e.IsDir() || !ok || known[id] {
			continue
		}
		known[id] = true // one report per rogue sample, not per file
		ie := &IntegrityError{Dataset: rep.Dataset, Path: filepath.Join(dir, e.Name()),
			Reason: ReasonStaleManifest, Detail: "file not listed in manifest"}
		if err := rep.exclude(pol, id, ie, e.Name(), id+".gdm.meta"); err != nil {
			return nil, err
		}
	}
	rep.Digest = man.Digest
	return ds, nil
}

// sampleFileID returns the sample a region or metadata file belongs to.
func sampleFileID(file string) (string, bool) {
	for _, ext := range []string{".gdm.meta", columnarExt, ".gdm"} {
		if id, ok := strings.CutSuffix(file, ext); ok {
			return id, true
		}
	}
	return "", false
}

// addSamples calls add, which reads one sample into the dataset, for each
// sample in ids. A sample add fails (ext names its region file) is excluded
// under pol.
func addSamples(ids []string, ext string, pol IntegrityPolicy, rep *IntegrityReport,
	add func(id string) *IntegrityError) error {
	for _, id := range ids {
		if ie := add(id); ie != nil {
			if err := rep.exclude(pol, id, ie, id+ext, id+".gdm.meta"); err != nil {
				return err
			}
		}
	}
	return nil
}

// exclude applies pol to one damaged sample: the strict policy fails the load
// with ie; AllowPartial itemizes the sample in the report and, with
// Quarantine, moves its files into .quarantine.
func (r *IntegrityReport) exclude(pol IntegrityPolicy, sampleID string, ie *IntegrityError, files ...string) error {
	metricIntegrityFailures.With(string(ie.Reason)).Inc()
	if !pol.AllowPartial {
		return ie
	}
	q := QuarantinedSample{Sample: sampleID, File: filepath.Base(ie.Path), Reason: ie.Reason, Detail: ie.Detail}
	if pol.Quarantine {
		for _, f := range files {
			if moved, err := quarantineFile(r.Dir, f); err == nil && moved != "" {
				metricQuarantined.Inc()
				if f == q.File || q.MovedTo == "" {
					q.MovedTo = moved
				}
			}
		}
	}
	r.Quarantined = append(r.Quarantined, q)
	return nil
}

// quarantineDirName is the dot-prefixed (loader-invisible) directory corrupt
// files are moved into.
const quarantineDirName = ".quarantine"

// quarantineFile moves dir/file into dir/.quarantine, numbering the name if a
// previous quarantine already holds one. It returns the destination path, or
// "" if the file does not exist.
func quarantineFile(dir, file string) (string, error) {
	src := filepath.Join(dir, file)
	if _, err := os.Stat(src); err != nil {
		if os.IsNotExist(err) {
			return "", nil
		}
		return "", err
	}
	qdir := filepath.Join(dir, quarantineDirName)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return "", err
	}
	dst := filepath.Join(qdir, file)
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", file, i))
	}
	if err := os.Rename(src, dst); err != nil {
		return "", err
	}
	return dst, nil
}

// LoadRepository opens every dataset directory under root through
// OpenDataset, in name order: non-hidden subdirectories holding a
// manifest.json (members) or schema.txt (text exports). Dot-prefixed entries
// are skipped — they are staging leftovers or quarantine areas, never
// datasets. The reports line up with the datasets index-for-index.
func LoadRepository(root string, pol IntegrityPolicy) ([]*gdm.Dataset, []*IntegrityReport, error) {
	c := &DirCatalog{Root: root, Policy: pol}
	if err := c.loadAll(); err != nil {
		return nil, nil, err
	}
	return c.Held(), c.Reports(), nil
}

// isDatasetDir reports whether dir looks like a member or a text export.
func isDatasetDir(dir string) bool {
	for _, f := range []string{ManifestName, "schema.txt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err == nil {
			return true
		}
	}
	return false
}
