package formats

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"genogo/internal/catalog"
	"genogo/internal/gdm"
)

// The integrity layer makes the native on-disk layout self-verifying. Every
// file WriteDataset produces ends with a one-line footer
//
//	#gdmsum<TAB>crc32c:<8 hex><TAB>bytes:<payload length>
//
// covering every byte before it, and the dataset directory gains a
// manifest.json recording per-file sizes and checksums plus the dataset's
// content digest (its version). The footer starts with '#', so the line
// scanners of the pre-integrity readers skip it: old binaries read new
// datasets unchanged, and new binaries read old (footerless, manifestless)
// datasets as "unverified" legacy data.
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

// splitFooter locates and validates the integrity footer in a file's bytes.
// It returns the payload with the footer stripped and whether the checksum
// verified. hasFooter distinguishes "no footer present" (legacy file, ok
// false) from "footer present but wrong" (corruption, ok false).
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

// IntegrityReport is the verification outcome of one dataset load, surfaced
// on /debug/storage and returned by OpenDataset alongside the dataset —
// non-fatal damage travels here, the way federation's PartialFailure travels
// next to a degraded result.
type IntegrityReport struct {
	Dataset string `json:"dataset"`
	Dir     string `json:"dir"`
	Digest  string `json:"digest,omitempty"`
	// Layout is the storage layout the load detected (LayoutNative or
	// LayoutColumnar).
	Layout        string              `json:"layout,omitempty"`
	Verified      bool                `json:"verified"`
	Unverified    bool                `json:"unverified"`
	SamplesLoaded int                 `json:"samples_loaded"`
	Quarantined   []QuarantinedSample `json:"quarantined,omitempty"`
}

// Partial reports whether the load excluded any samples.
func (r *IntegrityReport) Partial() bool { return r != nil && len(r.Quarantined) > 0 }

// readFileVerified reads path fully and validates its footer when present.
// The returned payload has the footer stripped. info describes the file the
// way a manifest records it. Corruption comes back as *IntegrityError; a
// missing file as the os error.
func readFileVerified(dataset, path string) (payload []byte, info FileInfo, hasFooter bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, FileInfo{}, false, err
	}
	payload, sum, hasFooter, ok := splitFooter(data)
	if hasFooter && !ok {
		return nil, FileInfo{}, true, &IntegrityError{
			Dataset: dataset, Path: path, Reason: ReasonChecksum,
			Detail: "integrity footer does not match file contents",
		}
	}
	if !hasFooter {
		payload = data
	}
	if !hasFooter {
		sum = crc32.Checksum(payload, castagnoli)
	}
	return payload, FileInfo{Size: int64(len(data)), CRC32C: crcHex(sum)}, hasFooter, nil
}

// OpenDataset loads a native-layout dataset directory through the verified
// read path. With a manifest present every file is checked — footer first
// (is the file self-consistent?), then against the manifest (is it the file
// the materialization promised?) — before a single line is parsed. Without
// one, the dataset loads as legacy/unverified data and
// genogo_storage_unverified_total counts it.
//
// Under the zero policy any damage fails the load with a typed
// *IntegrityError. With AllowPartial, damaged samples are excluded (and with
// Quarantine moved into .quarantine/) and itemized in the report; the
// returned dataset holds only bytes that verified end to end.
func OpenDataset(dir string, pol IntegrityPolicy) (*gdm.Dataset, *IntegrityReport, error) {
	dir = filepath.Clean(dir)
	name := filepath.Base(dir)
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		if err != nil && os.IsNotExist(err) {
			// A missing directory next to a ".<name>.old" sibling is the
			// signature of a torn WriteDataset rename: the previous version
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
	man, err := ReadManifest(dir)
	switch {
	case err == nil:
	case errors.Is(err, fs.ErrNotExist):
		man = nil
	default:
		var ie *IntegrityError
		if errors.As(err, &ie) {
			metricIntegrityFailures.With(string(ie.Reason)).Inc()
		}
		return nil, nil, err
	}
	rep.Layout = detectLayout(dir, man)

	ds, err := openDatasetFiles(dir, man, pol, rep)
	if err != nil {
		return nil, nil, err
	}
	rep.SamplesLoaded = len(ds.Samples)
	switch {
	case man == nil:
		rep.Unverified = true
		metricUnverifiedLoads.Inc()
	case rep.Partial():
		metricPartialLoads.Inc()
	default:
		rep.Verified = true
		metricVerifiedLoads.Inc()
	}
	recordIntegrity(rep)
	catalogDataset(ds, man, rep)
	return ds, rep, nil
}

// catalogDataset files a freshly opened dataset in the repository catalog. A
// fully verified manifest with a stats block hands the block over as-is; a
// legacy layout, a missing/old-format block, or a partial load (the loaded
// dataset is a subset of what the manifest describes) retains the dataset
// for one lazy scan instead.
func catalogDataset(ds *gdm.Dataset, man *Manifest, rep *IntegrityReport) {
	info := catalog.Info{
		Name:        ds.Name,
		Dir:         rep.Dir,
		Source:      catalog.SourceScan,
		Quarantined: len(rep.Quarantined),
		Dataset:     ds,
	}
	switch {
	case rep.Verified:
		info.Integrity = "verified"
	case rep.Partial():
		info.Integrity = "partial"
	default:
		info.Integrity = "unverified"
	}
	if man != nil && !rep.Partial() {
		info.Digest = man.Digest
		if man.Stats != nil {
			info.Source = catalog.SourceManifest
			info.Stats = man.Stats
		}
	}
	catalog.Repo().Record(info)
}

// readDatasetSchema verifies and parses dir's schema.txt — the fatal-first
// step every layout and the pruned read path share. Damage is always fatal:
// without the schema nothing is interpretable. man == nil skips the manifest
// cross-check (legacy directories).
func readDatasetSchema(dir string, man *Manifest) (*gdm.Schema, error) {
	name := filepath.Base(dir)
	fatal := func(ie *IntegrityError) error {
		metricIntegrityFailures.With(string(ie.Reason)).Inc()
		return ie
	}
	schemaPath := filepath.Join(dir, "schema.txt")
	schemaPayload, schemaInfo, schemaFooter, err := readFileVerified(name, schemaPath)
	if err != nil {
		var ie *IntegrityError
		if errors.As(err, &ie) {
			return nil, fatal(ie)
		}
		if os.IsNotExist(err) && man != nil {
			return nil, fatal(&IntegrityError{Dataset: name, Path: schemaPath, Reason: ReasonMissing})
		}
		return nil, fmt.Errorf("dataset %s: %w", dir, err)
	}
	if man != nil {
		if !schemaFooter {
			return nil, fatal(&IntegrityError{Dataset: name, Path: schemaPath, Reason: ReasonTruncated,
				Detail: "manifest present but integrity footer missing"})
		}
		if want := man.Files["schema.txt"]; want != schemaInfo {
			return nil, fatal(&IntegrityError{Dataset: name, Path: schemaPath, Reason: ReasonStaleManifest,
				Detail: fmt.Sprintf("file is self-consistent (%s, %d bytes) but manifest records %s, %d bytes",
					schemaInfo.CRC32C, schemaInfo.Size, want.CRC32C, want.Size)})
		}
	}
	schema, err := ReadSchema(bytes.NewReader(schemaPayload))
	if err != nil {
		return nil, fatal(&IntegrityError{Dataset: name, Path: schemaPath, Reason: ReasonParse, Detail: err.Error()})
	}
	return schema, nil
}

// openDatasetFiles does the per-file verification and parsing for
// OpenDataset. man == nil selects the legacy (unverified) path.
func openDatasetFiles(dir string, man *Manifest, pol IntegrityPolicy, rep *IntegrityReport) (*gdm.Dataset, error) {
	name := rep.Dataset

	// Schema first; schema damage is always fatal.
	schema, err := readDatasetSchema(dir, man)
	if err != nil {
		return nil, err
	}

	// Decide the sample universe: the manifest's when present (files it does
	// not list are unverifiable and treated as stale-manifest damage),
	// otherwise whatever region files the directory holds.
	columnar := rep.Layout == LayoutColumnar
	regionExt := ".gdm"
	if columnar {
		regionExt = columnarExt
	}
	var ids []string
	if man != nil {
		ids = man.SampleIDs()
	} else {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("dataset %s: %w", dir, err)
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), regionExt) {
				ids = append(ids, strings.TrimSuffix(e.Name(), regionExt))
			}
		}
		sort.Strings(ids)
	}

	ds := gdm.NewDataset(name, schema)
	exclude := func(sampleID, file string, reason FaultReason, detail string) error {
		metricIntegrityFailures.With(string(reason)).Inc()
		if !pol.AllowPartial {
			return &IntegrityError{Dataset: name, Path: filepath.Join(dir, file), Reason: reason, Detail: detail}
		}
		q := QuarantinedSample{Sample: sampleID, File: file, Reason: reason, Detail: detail}
		if pol.Quarantine {
			for _, f := range []string{sampleID + regionExt, sampleID + ".gdm.meta"} {
				if moved, err := quarantineFile(dir, f); err == nil && moved != "" {
					metricQuarantined.Inc()
					if f == file || q.MovedTo == "" {
						q.MovedTo = moved
					}
				}
			}
		}
		rep.Quarantined = append(rep.Quarantined, q)
		return nil
	}

	for _, id := range ids {
		var s *gdm.Sample
		var ie *IntegrityError
		if columnar {
			s, ie = readColumnarSampleVerified(dir, id, schema, man)
		} else {
			s, ie = readSampleVerified(dir, id, schema, man)
		}
		if ie != nil {
			if err := exclude(id, filepath.Base(ie.Path), ie.Reason, ie.Detail); err != nil {
				return nil, err
			}
			continue
		}
		s.SortRegions()
		if err := ds.Add(s); err != nil {
			if err := exclude(id, id+regionExt, ReasonParse, err.Error()); err != nil {
				return nil, err
			}
		}
	}

	// Native files on disk that belong to no manifest-listed sample are
	// stale-manifest damage: leftovers of a torn write or additions made
	// behind the manifest's back, with no checksum to trust them by.
	// (Unlisted files of listed samples were already handled per sample.)
	if man != nil {
		known := make(map[string]bool, len(ids))
		for _, id := range ids {
			known[id] = true
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("dataset %s: %w", dir, err)
		}
		for _, e := range entries {
			n := e.Name()
			if e.IsDir() || n == ManifestName || n == "schema.txt" {
				continue
			}
			if !strings.HasSuffix(n, ".gdm") && !strings.HasSuffix(n, ".gdm.meta") &&
				!strings.HasSuffix(n, columnarExt) {
				continue
			}
			sampleID := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(n, ".meta"), ".gdm"), columnarExt)
			if known[sampleID] {
				continue
			}
			known[sampleID] = true // one report per rogue sample, not per file
			if err := exclude(sampleID, n, ReasonStaleManifest, "file not listed in manifest"); err != nil {
				return nil, err
			}
		}
		rep.Digest = man.Digest
	}
	return ds, nil
}

// readSampleVerified verifies and parses one sample's region and metadata
// files. Any damage comes back as a typed *IntegrityError; the caller decides
// between failing the load and quarantining the sample.
func readSampleVerified(dir, id string, schema *gdm.Schema, man *Manifest) (*gdm.Sample, *IntegrityError) {
	name := filepath.Base(dir)
	verify := func(file string, required bool) ([]byte, bool, *IntegrityError) {
		path := filepath.Join(dir, file)
		payload, info, hasFooter, err := readFileVerified(name, path)
		if err != nil {
			var ie *IntegrityError
			if errors.As(err, &ie) {
				return nil, false, ie
			}
			if os.IsNotExist(err) {
				if !required {
					return nil, false, nil
				}
				return nil, false, &IntegrityError{Dataset: name, Path: path, Reason: ReasonMissing}
			}
			return nil, false, &IntegrityError{Dataset: name, Path: path, Reason: ReasonMissing, Detail: err.Error()}
		}
		if man != nil {
			want, listed := man.Files[file]
			if !listed {
				// A file the manifest does not vouch for cannot be trusted
				// even if self-consistent: the manifest is stale.
				return nil, false, &IntegrityError{Dataset: name, Path: path, Reason: ReasonStaleManifest,
					Detail: "file not listed in manifest"}
			}
			if !hasFooter {
				return nil, false, &IntegrityError{Dataset: name, Path: path, Reason: ReasonTruncated,
					Detail: "manifest present but integrity footer missing"}
			}
			if want != info {
				return nil, false, &IntegrityError{Dataset: name, Path: path, Reason: ReasonStaleManifest,
					Detail: fmt.Sprintf("file is self-consistent (%s, %d bytes) but manifest records %s, %d bytes",
						info.CRC32C, info.Size, want.CRC32C, want.Size)}
			}
		}
		return payload, true, nil
	}

	regFile := id + ".gdm"
	regPayload, _, ie := verify(regFile, true)
	if ie != nil {
		return nil, ie
	}
	s := gdm.NewSample(id)
	if err := ReadRegions(bytes.NewReader(regPayload), schema, s); err != nil {
		return nil, &IntegrityError{Dataset: name, Path: filepath.Join(dir, regFile), Reason: ReasonParse, Detail: err.Error()}
	}
	metaFile := id + ".gdm.meta"
	metaRequired := man != nil && hasManifestEntry(man, metaFile)
	metaPayload, present, ie := verify(metaFile, metaRequired)
	if ie != nil {
		return nil, ie
	}
	if present {
		md, err := ReadMeta(bytes.NewReader(metaPayload))
		if err != nil {
			return nil, &IntegrityError{Dataset: name, Path: filepath.Join(dir, metaFile), Reason: ReasonParse, Detail: err.Error()}
		}
		s.Meta = md
	}
	return s, nil
}

func hasManifestEntry(man *Manifest, file string) bool {
	_, ok := man.Files[file]
	return ok
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

// ---------------------------------------------------------------------------
// Process-wide integrity state, surfaced on /debug/storage.

var integrityState = struct {
	sync.Mutex
	reports map[string]*IntegrityReport // latest report per dataset dir
}{reports: make(map[string]*IntegrityReport)}

// recordIntegrity stores the latest report for a dataset directory.
func recordIntegrity(rep *IntegrityReport) {
	cp := *rep
	cp.Quarantined = append([]QuarantinedSample(nil), rep.Quarantined...)
	integrityState.Lock()
	integrityState.reports[rep.Dir] = &cp
	integrityState.Unlock()
}

// IntegritySnapshot returns the latest integrity report of every dataset this
// process has opened, sorted by directory — the payload behind the
// /debug/storage console endpoint.
func IntegritySnapshot() []IntegrityReport {
	integrityState.Lock()
	defer integrityState.Unlock()
	dirs := make([]string, 0, len(integrityState.reports))
	for d := range integrityState.reports {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	out := make([]IntegrityReport, 0, len(dirs))
	for _, d := range dirs {
		r := *integrityState.reports[d]
		r.Quarantined = append([]QuarantinedSample(nil), r.Quarantined...)
		out = append(out, r)
	}
	return out
}

// LoadRepository opens every dataset directory under root through the
// verified read path: non-hidden subdirectories holding a manifest.json or
// schema.txt. Dot-prefixed entries are skipped — they are WriteDataset
// staging leftovers or quarantine areas, never datasets. The reports line up
// with the datasets index-for-index.
func LoadRepository(root string, pol IntegrityPolicy) ([]*gdm.Dataset, []*IntegrityReport, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, nil, err
	}
	var dss []*gdm.Dataset
	var reps []*IntegrityReport
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		sub := filepath.Join(root, e.Name())
		if !isDatasetDir(sub) {
			continue
		}
		ds, rep, err := OpenDataset(sub, pol)
		if err != nil {
			return nil, nil, fmt.Errorf("loading %s: %w", sub, err)
		}
		dss = append(dss, ds)
		reps = append(reps, rep)
	}
	return dss, reps, nil
}

// isDatasetDir reports whether dir looks like a native dataset directory.
func isDatasetDir(dir string) bool {
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		return true
	}
	if _, err := os.Stat(filepath.Join(dir, "schema.txt")); err == nil {
		return true
	}
	return false
}
