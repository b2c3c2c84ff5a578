package formats

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"genogo/internal/catalog"
	"genogo/internal/gdm"
)

// The fsck engine scans dataset directories, verifies them against their
// manifests and repairs what can be repaired without guessing:
//
//   - orphan staging directories (".<name>.tmp*") and superseded versions
//     (".<name>.old" next to a live dataset) are removed;
//   - a torn rename (dataset directory missing, ".<name>.old" present) is
//     rolled back by restoring the old version;
//   - a corrupt or missing file whose checksum-matching copy sits in
//     .quarantine is restored from there;
//   - with Rebuild, everything else that is structurally sound is kept in
//     place: corrupt files are quarantined, text directories (exports, and
//     text members of older genogo versions) are converted into members, and
//     a fresh manifest is written. Rebuild preserves the .quarantine
//     directory — repairs never destroy evidence.
//
// Damage that cannot be repaired without inventing data (corrupt schema with
// no good copy, checksum mismatches without Rebuild) is reported as a
// problem; cmd/gmqlfsck exits nonzero if any remain.

// FsckAction records one repair the engine performed.
type FsckAction struct {
	Action string `json:"action"`
	Path   string `json:"path"`
	Detail string `json:"detail,omitempty"`
}

// Repair action names.
const (
	ActionRemoveOrphan      = "remove_orphan"
	ActionRestoreTornRename = "restore_torn_rename"
	ActionRestoreQuarantine = "restore_quarantine"
	ActionQuarantineCorrupt = "quarantine_corrupt"
	ActionConvertText       = "convert_text"
	ActionDropMissing       = "drop_missing"
	ActionRebuildManifest   = "rebuild_manifest"
	ActionRebuildStats      = "rebuild_stats"
)

// FsckProblem records damage the engine could not repair.
type FsckProblem struct {
	Path   string      `json:"path"`
	Reason FaultReason `json:"reason"`
	Detail string      `json:"detail,omitempty"`
}

// FsckResult is the outcome for one dataset directory (or one repo-level
// leftover that belongs to no dataset).
type FsckResult struct {
	Dir        string        `json:"dir"`
	Dataset    string        `json:"dataset"`
	Digest     string        `json:"digest,omitempty"`
	Samples    int           `json:"samples"`
	Unverified bool          `json:"unverified,omitempty"`
	Repaired   []FsckAction  `json:"repaired,omitempty"`
	Problems   []FsckProblem `json:"problems,omitempty"`
}

// Clean reports whether the dataset has no unrepaired damage.
func (r *FsckResult) Clean() bool { return len(r.Problems) == 0 }

func (r *FsckResult) repair(action, path, detail string) {
	r.Repaired = append(r.Repaired, FsckAction{Action: action, Path: path, Detail: detail})
	metricRepairs.With(action).Inc()
}

func (r *FsckResult) problem(path string, reason FaultReason, detail string) {
	r.Problems = append(r.Problems, FsckProblem{Path: path, Reason: reason, Detail: detail})
}

// FsckOptions configures a check-and-repair run.
type FsckOptions struct {
	// Rebuild authorizes manifest reconstruction: corrupt files are
	// quarantined, missing ones dropped, text directories converted into
	// members, and the manifest is rewritten from what remains. Without it,
	// fsck only applies repairs that restore the manifest's recorded state
	// exactly.
	Rebuild bool
}

// FsckRepo checks and repairs every dataset under root: first the repo-level
// leftovers of torn writes (orphan staging directories, torn renames), then
// each dataset directory. Results come back sorted by directory.
func FsckRepo(root string, opts FsckOptions) ([]*FsckResult, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	// Repo-level pass: crash leftovers. Actions are attached to the dataset
	// they belong to once the per-dataset pass runs.
	pending := make(map[string][]FsckAction) // dataset base -> actions
	addPending := func(base, action, path, detail string) {
		pending[base] = append(pending[base], FsckAction{Action: action, Path: path, Detail: detail})
		metricRepairs.With(action).Inc()
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || !strings.HasPrefix(name, ".") {
			continue
		}
		path := filepath.Join(root, name)
		if base, ok := strings.CutSuffix(strings.TrimPrefix(name, "."), ".old"); ok && base != "" {
			live := filepath.Join(root, base)
			if _, err := os.Stat(live); os.IsNotExist(err) {
				// Torn rename: the old version is the only copy. Restore it.
				if err := os.Rename(path, live); err != nil {
					return nil, fmt.Errorf("fsck: restoring %s: %w", path, err)
				}
				addPending(base, ActionRestoreTornRename, live, "restored from "+name)
			} else {
				if err := os.RemoveAll(path); err != nil {
					return nil, fmt.Errorf("fsck: removing %s: %w", path, err)
				}
				addPending(base, ActionRemoveOrphan, path, "superseded previous version")
			}
			continue
		}
		if i := strings.Index(name, ".tmp"); i > 1 {
			base := name[1:i]
			if err := os.RemoveAll(path); err != nil {
				return nil, fmt.Errorf("fsck: removing %s: %w", path, err)
			}
			addPending(base, ActionRemoveOrphan, path, "staging leftover of a crashed write")
			continue
		}
	}

	// Per-dataset pass, over a fresh listing (a torn-rename restore above
	// may have brought a dataset directory back).
	entries, err = os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var results []*FsckResult
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		sub := filepath.Join(root, e.Name())
		if !isDatasetDir(sub) {
			continue
		}
		res, err := FsckDataset(sub, opts)
		if err != nil {
			return nil, err
		}
		res.Repaired = append(pending[e.Name()], res.Repaired...)
		delete(pending, e.Name())
		results = append(results, res)
	}
	// Leftover actions for bases that have no dataset directory (e.g. the
	// staging dir of a write that never completed at all).
	for base, actions := range pending {
		results = append(results, &FsckResult{
			Dir: filepath.Join(root, base), Dataset: base, Repaired: actions,
		})
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Dir < results[j].Dir })
	return results, nil
}

// FsckDataset checks and repairs one dataset directory.
func FsckDataset(dir string, opts FsckOptions) (*FsckResult, error) {
	dir = filepath.Clean(dir)
	name := filepath.Base(dir)
	res := &FsckResult{Dir: dir, Dataset: name}

	man, manErr := ReadManifest(dir)
	if manErr != nil && !errors.Is(manErr, fs.ErrNotExist) && !opts.Rebuild {
		// Present but damaged, or an old text member's.
		detail := manErr.Error()
		var ie *IntegrityError
		if errors.As(manErr, &ie) {
			detail = ie.Detail
		}
		res.problem(filepath.Join(dir, ManifestName), ReasonBadManifest, detail+"; run with -rebuild")
		return res, nil
	}

	if man == nil && !opts.Rebuild {
		// A text export: no manifest to verify against. Check that it imports
		// and report the directory as unverified.
		res.Unverified = true
		ds, _, err := OpenDataset(dir, IntegrityPolicy{})
		if err != nil {
			res.problem(dir, reasonOf(err), err.Error())
			return res, nil
		}
		res.Samples = len(ds.Samples)
		res.Digest = ds.ContentDigest()
		return res, nil
	}

	needRebuild := man == nil || fsckVerifyAgainstManifest(dir, man, opts, res)
	if needRebuild && (!opts.Rebuild || !fsckRebuild(dir, res)) {
		// Damage only a rebuild can clear, or a rebuild that failed; the
		// problems were already recorded.
		return res, nil
	}

	// Final verdict: the strict verified read path must now pass.
	if len(res.Problems) == 0 {
		ds, rep, err := OpenDataset(dir, IntegrityPolicy{})
		if err != nil {
			res.problem(dir, reasonOf(err), err.Error())
			return res, nil
		}
		res.Samples, res.Digest = len(ds.Samples), rep.Digest
		// The files check out; now hold the manifest's stats block to the
		// same standard. A manifest fsck just rebuilt carries fresh stats by
		// construction, so only an adopted (pre-existing) manifest is
		// checked.
		if man != nil && !needRebuild {
			fsckCheckStats(dir, man, ds, opts, res)
		}
	}
	return res, nil
}

// fsckCheckStats verifies the member's stats.json against the verified
// dataset: the manifest must list it, its bytes must verify against the
// manifest, and the block must carry the manifest's own digest, a supported
// version, and agree with a fresh scan of the loaded data. With Rebuild the
// file is rewritten with recomputed stats and the manifest with its new
// checksum; without, the divergence is a problem (exit nonzero) — wrong
// statistics silently mislead the pruning of a JOIN and the federation
// estimator.
func fsckCheckStats(dir string, man *Manifest, ds *gdm.Dataset, opts FsckOptions, res *FsckResult) {
	path := filepath.Join(dir, StatsName)
	detail := ""
	st, ie := readStats(dir, man)
	switch {
	case ie != nil:
		detail = fmt.Sprintf("%s: %s", ie.Reason, ie.Detail)
	case st.Version > catalog.StatsVersion:
		detail = fmt.Sprintf("stats block version %d is newer than supported %d",
			st.Version, catalog.StatsVersion)
	case st.Digest != man.Digest:
		detail = fmt.Sprintf("stats block digest %s does not match manifest digest %s",
			gdm.ShortDigest(st.Digest), gdm.ShortDigest(man.Digest))
	default:
		if mismatch := statsMismatch(st, ds); mismatch != "" {
			detail = "stats block disagrees with data: " + mismatch
		}
	}
	if detail == "" {
		return
	}
	if !opts.Rebuild {
		res.problem(path, ReasonBadStats, detail+"; run with -rebuild")
		return
	}
	fresh := catalog.Compute(ds)
	fresh.Digest = man.Digest
	info, err := writeStats(dir, fresh)
	if err == nil {
		man.Files[StatsName] = info
		err = writeManifest(dir, man)
	}
	if err != nil {
		res.problem(path, ReasonBadStats, err.Error())
		return
	}
	res.repair(ActionRebuildStats, path, detail)
}

// statsMismatch compares a stats block with a fresh scan of the dataset,
// order-insensitively by sample ID (the write path records insertion order,
// the read path sorted order). It returns "" on agreement, else a
// description of the first divergence.
func statsMismatch(st *catalog.DatasetStats, ds *gdm.Dataset) string {
	fresh := catalog.Compute(ds)
	if st.AttrArity != fresh.AttrArity {
		return fmt.Sprintf("attr arity %d, data has %d", st.AttrArity, fresh.AttrArity)
	}
	if len(st.Samples) != len(fresh.Samples) {
		return fmt.Sprintf("%d samples, data has %d", len(st.Samples), len(fresh.Samples))
	}
	byID := make(map[string]*catalog.SampleStats, len(fresh.Samples))
	for i := range fresh.Samples {
		byID[fresh.Samples[i].ID] = &fresh.Samples[i]
	}
	for i := range st.Samples {
		got := &st.Samples[i]
		want := byID[got.ID]
		if want == nil {
			return fmt.Sprintf("sample %s not in data", got.ID)
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("sample %s stats diverge (recorded %d regions, data has %d)",
				got.ID, got.Regions(), want.Regions())
		}
	}
	return ""
}

// fsckVerifyAgainstManifest triages every manifest-listed file, applying
// quarantine restores where a checksum-matching copy exists. It reports
// whether a rebuild is needed to clear remaining damage; without
// opts.Rebuild that damage lands in res.Problems.
func fsckVerifyAgainstManifest(dir string, man *Manifest, opts FsckOptions, res *FsckResult) (needRebuild bool) {
	name := res.Dataset
	files := make([]string, 0, len(man.Files))
	for f := range man.Files {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, file := range files {
		if file == StatsName {
			continue // derived from the data; fsckCheckStats judges and rebuilds it
		}
		want := man.Files[file]
		path := filepath.Join(dir, file)
		ie := triageFile(name, path, want)
		if ie == nil {
			continue
		}
		// Try a quarantine restore: a copy whose payload checksum matches
		// what the manifest promises.
		if cand := findQuarantineCandidate(dir, file, want); cand != "" {
			if _, statErr := os.Stat(path); statErr == nil {
				if moved, qerr := quarantineFile(dir, file); qerr == nil {
					metricQuarantined.Inc()
					res.repair(ActionQuarantineCorrupt, path, "moved to "+moved)
				}
			}
			if err := os.Rename(cand, path); err == nil {
				res.repair(ActionRestoreQuarantine, path, "restored from "+cand)
				if triageFile(name, path, want) == nil {
					continue
				}
			}
		}
		// No restore possible. With Rebuild the file is dropped (corrupt
		// copies preserved in quarantine); without, it is a problem.
		if !opts.Rebuild {
			res.problem(path, ie.Reason, ie.Detail+"; run with -rebuild to drop or re-adopt")
			needRebuild = true
			continue
		}
		needRebuild = true
		switch ie.Reason {
		case ReasonMissing:
			res.repair(ActionDropMissing, path, "no copy to restore; dropping from manifest")
		case ReasonStaleManifest:
			// Self-consistent file the manifest disagrees with: the rebuild
			// re-adopts the file as truth. Nothing to do here.
		default:
			if moved, qerr := quarantineFile(dir, file); qerr == nil && moved != "" {
				metricQuarantined.Inc()
				res.repair(ActionQuarantineCorrupt, path, "moved to "+moved)
			}
		}
	}
	// Files on disk the manifest does not list.
	entries, err := os.ReadDir(dir)
	if err != nil {
		res.problem(dir, ReasonMissing, err.Error())
		return needRebuild
	}
	for _, e := range entries {
		n := e.Name()
		if _, sample := sampleFileID(n); e.IsDir() || !sample && n != "schema.txt" {
			continue
		}
		if _, listed := man.Files[n]; listed {
			continue
		}
		if !opts.Rebuild {
			res.problem(filepath.Join(dir, n), ReasonStaleManifest, "file not listed in manifest; run with -rebuild")
		}
		needRebuild = true
	}
	return needRebuild
}

// triageFile verifies one member file against its manifest entry. A footered
// text file checks its footer; a .gdmc image, which carries none, is
// self-consistent when its index CRC and every partition CRC check out. A
// self-consistent file the manifest merely disagrees with is a stale-manifest
// case a rebuild re-adopts; anything else is corruption.
func triageFile(dataset, path string, want FileInfo) *IntegrityError {
	data, err := os.ReadFile(path)
	if err != nil {
		return fileError(dataset, path, err)
	}
	if !strings.HasSuffix(path, columnarExt) {
		_, ie := checkFootered(dataset, path, data, want, true)
		return ie
	}
	if have := columnarFileInfo(data); have != want {
		if ie := checkColumnarStructure(dataset, path, data); ie != nil {
			return ie
		}
		return staleError(dataset, path, have, want)
	}
	return nil
}

// findQuarantineCandidate returns the path of a quarantined copy of file
// whose payload checksum and size match the manifest entry, or "".
func findQuarantineCandidate(dir, file string, want FileInfo) string {
	qdir := filepath.Join(dir, quarantineDirName)
	entries, err := os.ReadDir(qdir)
	if err != nil {
		return ""
	}
	for _, e := range entries {
		n := e.Name()
		if n != file {
			// Numbered copies: file.1, file.2, ...
			rest, ok := strings.CutPrefix(n, file+".")
			if !ok {
				continue
			}
			if _, err := strconv.Atoi(rest); err != nil {
				continue
			}
		}
		path := filepath.Join(qdir, n)
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		// Columnar copies match on the whole-file checksum the manifest
		// records; text copies on their footer's.
		var have FileInfo
		if strings.HasSuffix(file, columnarExt) {
			have = columnarFileInfo(data)
		} else {
			_, have, _ = footerPayload(filepath.Base(dir), path, data, true)
		}
		if have == want {
			return path
		}
	}
	return ""
}

// fsckRebuild reconstructs a member in place from whatever the directory
// holds — a damaged member, or a text directory being converted. Schema and
// metadata files with a valid footer are kept and an export's footerless ones
// rewritten with one; each sample's regions are decided by rebuilder.regions;
// anything that fails is quarantined, and the .quarantine directory is
// preserved — repairs never destroy evidence. The manifest is written last,
// so an interrupted conversion leaves a directory the next run picks up where
// it stopped and finishes the same way. Returns false when the dataset is
// beyond rebuilding (schema unusable) or a file could not be written.
func fsckRebuild(dir string, res *FsckResult) bool {
	// Every text file of a member, old or new, carries a footer; only an
	// export, which never holds a manifest, has footerless ones. In a
	// directory with a manifest — even one too damaged or too old to read —
	// a missing footer is therefore a truncation, not an export's file.
	_, statErr := os.Stat(filepath.Join(dir, ManifestName))
	b := &rebuilder{dir: dir, res: res, files: make(map[string]FileInfo), footered: statErr == nil}
	schemaPath := filepath.Join(dir, "schema.txt")
	payload, info, ok := b.readText("schema.txt")
	if !ok {
		res.problem(schemaPath, ReasonMissing, "schema unusable and no good copy in quarantine; dataset is unrepairable")
		return false
	}
	schema, err := ReadSchema(bytes.NewReader(payload))
	if err != nil {
		res.problem(schemaPath, ReasonParse, err.Error()+"; dataset is unrepairable")
		return false
	}
	if !b.adoptText("schema.txt", info, func(w io.Writer) error { return WriteSchema(w, schema) }) {
		return false
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		res.problem(dir, ReasonMissing, err.Error())
		return false
	}
	var ids []string
	hasRegions := make(map[string]bool)
	for _, e := range entries {
		id, ok := sampleFileID(e.Name())
		if ok && !e.IsDir() && !strings.HasSuffix(e.Name(), ".gdm.meta") && !hasRegions[id] {
			hasRegions[id] = true
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	// Orphan metadata files — partner region file lost or quarantined — are
	// moved aside: the rebuilt manifest must account for every sample file
	// the directory holds, or the final strict verify would fail.
	for _, e := range entries {
		if id, ok := strings.CutSuffix(e.Name(), ".gdm.meta"); ok && !e.IsDir() && !hasRegions[id] {
			b.quarantine(e.Name(), "orphan metadata without a region file")
		}
	}

	ds := gdm.NewDataset(res.Dataset, schema)
	for _, id := range ids {
		s, err := b.regions(id, schema)
		if err != nil {
			res.problem(filepath.Join(dir, id+columnarExt), ReasonTruncated, "cannot write the converted image: "+err.Error())
			return false
		}
		if s == nil {
			continue
		}
		meta := id + ".gdm.meta"
		if payload, info, ok := b.readText(meta); ok {
			md, err := ReadMeta(bytes.NewReader(payload))
			if err != nil {
				b.drop(id, ReasonParse, err.Error())
				continue
			}
			if !b.adoptText(meta, info, func(w io.Writer) error { return WriteMeta(w, md) }) {
				return false
			}
			s.Meta = md
		}
		if err := ds.Add(s); err != nil {
			b.drop(id, ReasonParse, err.Error())
		}
	}

	if err := writeMemberIndex(dir, ds, b.files, nil); err != nil {
		res.problem(filepath.Join(dir, ManifestName), ReasonBadManifest, err.Error())
		return false
	}
	if err := syncDir(dir); err != nil {
		res.problem(dir, ReasonBadManifest, err.Error())
		return false
	}
	res.repair(ActionRebuildManifest, filepath.Join(dir, ManifestName),
		fmt.Sprintf("%d samples, digest %s", len(ds.Samples), gdm.ShortDigest(ds.ContentDigest())))
	return true
}

// rebuilder carries one fsckRebuild run: the directory, the result it
// reports into, the manifest entries of the files it has adopted, and
// whether every text file must carry a footer.
type rebuilder struct {
	dir      string
	res      *FsckResult
	files    map[string]FileInfo
	footered bool
}

// quarantine moves one file aside into .quarantine, reporting why.
func (b *rebuilder) quarantine(file, why string) {
	if moved, err := quarantineFile(b.dir, file); err == nil && moved != "" {
		metricQuarantined.Inc()
		b.res.repair(ActionQuarantineCorrupt, filepath.Join(b.dir, file), why+"; moved to "+moved)
	}
}

// drop quarantines every file of a sample that cannot be rebuilt.
func (b *rebuilder) drop(id string, reason FaultReason, detail string) {
	for _, f := range []string{id + columnarExt, id + ".gdm", id + ".gdm.meta"} {
		b.quarantine(f, fmt.Sprintf("%s: %s", reason, detail))
		delete(b.files, f)
	}
}

// readText reads a schema or metadata file to adopt; one whose footer fails
// (footerPayload, required when b.footered) is quarantined.
func (b *rebuilder) readText(file string) ([]byte, FileInfo, bool) {
	path := filepath.Join(b.dir, file)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, FileInfo{}, false
	}
	payload, info, ie := footerPayload(b.res.Dataset, path, data, b.footered)
	if ie != nil {
		b.quarantine(file, fmt.Sprintf("%s: %s", ie.Reason, ie.Detail))
		return nil, FileInfo{}, false
	}
	return payload, info, true
}

// adoptText lists a text file in the manifest. A footerless one (zero info)
// is first rewritten from its parsed content with a footer, through a
// temporary file: a torn footerless file would be misread, not detected.
func (b *rebuilder) adoptText(file string, info FileInfo, render func(io.Writer) error) bool {
	path := filepath.Join(b.dir, file)
	if info == (FileInfo{}) {
		var err error
		if info, err = writeFileWith(path+".fscktmp", render); err == nil {
			err = os.Rename(path+".fscktmp", path)
		}
		if err != nil {
			os.Remove(path + ".fscktmp")
			b.res.problem(path, ReasonTruncated, "cannot rewrite with a footer: "+err.Error())
			return false
		}
		b.res.repair(ActionConvertText, path, "rewritten with an integrity footer")
	}
	b.files[file] = info
	return true
}

// regions decides one sample's regions and adopts the image that holds them:
//
//   - a .gdmc image whose structure checks out is kept. A .gdm beside it
//     that holds the same regions — left by a conversion interrupted after
//     the image was durable — is removed; any other is quarantined;
//   - otherwise the sample's .gdm is footer-checked like readText, parsed,
//     rewritten as .gdmc and removed once the image is durable (a torn image
//     fails its structure check on the next run and is converted again from
//     the .gdm);
//   - a sample that fails either way is dropped, and s is nil.
//
// s comes back with its regions sorted; err reports an image that could not
// be written.
func (b *rebuilder) regions(id string, schema *gdm.Schema) (s *gdm.Sample, err error) {
	img, text := id+columnarExt, id+".gdm"
	imgPath, textPath := filepath.Join(b.dir, img), filepath.Join(b.dir, text)
	fromText := gdm.NewSample(id)
	textErr := readTextFile(b.res.Dataset, textPath, b.footered, func(r io.Reader) error {
		return ReadRegions(r, schema, fromText)
	})
	fromText.SortRegions()
	if data, err := os.ReadFile(imgPath); err == nil {
		s, ie := decodeColumnarSample(b.res.Dataset, imgPath, id, data, schema)
		if ie == nil {
			s.SortRegions()
			if textErr == nil && sameRegions(s, fromText) {
				if os.Remove(textPath) == nil {
					b.res.repair(ActionConvertText, textPath, "already converted; text copy removed")
				}
			} else if textErr == nil {
				b.quarantine(text, "regions differ from the sample's "+img)
			} else {
				b.quarantine(text, fmt.Sprintf("%s: %s", textErr.Reason, textErr.Detail)) // no-op when absent
			}
			b.files[img] = columnarFileInfo(data)
			return s, nil
		}
		b.quarantine(img, fmt.Sprintf("%s: %s", ie.Reason, ie.Detail))
	}
	if textErr != nil {
		if textErr.Detail == "" {
			textErr.Detail = "no usable region file"
		}
		b.drop(id, textErr.Reason, textErr.Detail)
		return nil, nil
	}
	info, err := writeColumnarFile(imgPath, fromText, schema)
	if err == nil {
		if err = syncDir(b.dir); err == nil {
			err = os.Remove(textPath)
		}
	}
	if err != nil {
		return nil, err
	}
	b.files[img] = info
	b.res.repair(ActionConvertText, textPath, "rewritten as "+img)
	return fromText, nil
}

// sameRegions reports whether two samples with sorted regions render to the
// same text.
func sameRegions(a, b *gdm.Sample) bool {
	var x, y bytes.Buffer
	return WriteRegions(&x, a) == nil && WriteRegions(&y, b) == nil && bytes.Equal(x.Bytes(), y.Bytes())
}

// reasonOf extracts the typed fault reason from an error, defaulting to
// parse damage.
func reasonOf(err error) FaultReason {
	var ie *IntegrityError
	if errors.As(err, &ie) {
		return ie.Reason
	}
	return ReasonParse
}
