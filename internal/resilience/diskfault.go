package resilience

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Disk fault classes DiskFaultInjector can inject. Each one simulates damage
// a real storage stack produces: media bit rot, a crash mid-write, a crash
// between the two renames of an atomic directory swap, file loss, and an
// out-of-date manifest.
const (
	DiskFaultBitFlip       = "bit_flip"
	DiskFaultTruncate      = "truncate"
	DiskFaultTornRename    = "torn_rename"
	DiskFaultMissingFile   = "missing_file"
	DiskFaultStaleManifest = "stale_manifest"
)

// AllDiskFaults lists every fault class, in a stable order.
var AllDiskFaults = []string{
	DiskFaultBitFlip, DiskFaultTruncate, DiskFaultTornRename,
	DiskFaultMissingFile, DiskFaultStaleManifest,
}

// DiskFaultInjector deterministically damages repository members for
// chaos tests, the ChaosTransport of the storage layer: one seeded source
// drives every choice (which fault, which file, which byte), so a given
// (seed, call sequence) pair always produces the same damage. Destructive
// classes target sample files rather than schema.txt, keeping injected
// damage within what gmqlfsck can repair; schema damage is exercised by
// aiming InjectFile at it explicitly.
type DiskFaultInjector struct {
	// Seed fixes the damage schedule; 0 seeds from 1.
	Seed int64

	mu       sync.Mutex
	rng      *rand.Rand
	injected []string
}

// Faults returns the fault classes injected so far, in order.
func (d *DiskFaultInjector) Faults() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, len(d.injected))
	copy(out, d.injected)
	return out
}

func (d *DiskFaultInjector) record(class string) {
	d.injected = append(d.injected, class)
	metricDiskFaults.With(class).Inc()
}

// rand returns the seeded source, initializing it on first use. Callers hold
// d.mu.
func (d *DiskFaultInjector) rand() *rand.Rand {
	if d.rng == nil {
		seed := d.Seed
		if seed == 0 {
			seed = 1
		}
		d.rng = rand.New(rand.NewSource(seed))
	}
	return d.rng
}

// Inject damages the dataset directory with one randomly chosen fault class
// and reports which. It fails only on I/O errors, not on fault application:
// every class is applicable to any well-formed dataset directory.
func (d *DiskFaultInjector) Inject(dir string) (string, error) {
	d.mu.Lock()
	class := AllDiskFaults[d.rand().Intn(len(AllDiskFaults))]
	d.mu.Unlock()
	return class, d.InjectClass(dir, class)
}

// InjectClass damages the dataset directory with the given fault class.
func (d *DiskFaultInjector) InjectClass(dir, class string) error {
	switch class {
	case DiskFaultTornRename:
		return d.injectTornRename(dir)
	case DiskFaultStaleManifest:
		return d.injectStaleManifest(dir)
	case DiskFaultMissingFile:
		target, err := d.pickSampleFile(dir, false)
		if err != nil {
			return err
		}
		d.mu.Lock()
		d.record(class)
		d.mu.Unlock()
		return os.Remove(target)
	case DiskFaultBitFlip, DiskFaultTruncate:
		target, err := d.pickSampleFile(dir, false)
		if err != nil {
			return err
		}
		return d.InjectFile(target, class)
	default:
		return fmt.Errorf("diskfault: unknown class %q", class)
	}
}

// InjectFile applies a content-level fault class (bit_flip or truncate) to
// one specific file.
func (d *DiskFaultInjector) InjectFile(path, class string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("diskfault: %s is empty", path)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	rng := d.rand()
	switch class {
	case DiskFaultBitFlip:
		i := rng.Intn(len(data))
		data[i] ^= 1 << uint(rng.Intn(8))
	case DiskFaultTruncate:
		// Keep at least one byte gone, at least zero kept: a crash tore the
		// tail off mid-write.
		data = data[:rng.Intn(len(data))]
	default:
		return fmt.Errorf("diskfault: class %q is not file-level", class)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	d.record(class)
	return nil
}

// InjectFileAt applies a content-level fault at one specific byte offset —
// chaos aimed where a binary format is most sensitive. The caller supplies
// the offsets that matter (e.g. a columnar file's section boundaries from
// formats.ColumnarSectionOffsets); bit_flip flips one bit of the byte at off,
// truncate cuts the file to exactly off bytes.
func (d *DiskFaultInjector) InjectFileAt(path, class string, off int64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if off < 0 || off >= int64(len(data)) {
		return fmt.Errorf("diskfault: offset %d outside %s (%d bytes)", off, path, len(data))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	switch class {
	case DiskFaultBitFlip:
		data[off] ^= 1 << uint(d.rand().Intn(8))
	case DiskFaultTruncate:
		data = data[:off]
	default:
		return fmt.Errorf("diskfault: class %q is not file-level", class)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	d.record(class)
	return nil
}

// injectTornRename simulates a crash between the two renames of the atomic
// directory swap: the live directory vanishes and only the ".<name>.old"
// sibling remains.
func (d *DiskFaultInjector) injectTornRename(dir string) error {
	dir = filepath.Clean(dir)
	old := filepath.Join(filepath.Dir(dir), "."+filepath.Base(dir)+".old")
	if err := os.Rename(dir, old); err != nil {
		return err
	}
	d.mu.Lock()
	d.record(DiskFaultTornRename)
	d.mu.Unlock()
	return nil
}

// injectStaleManifest rewrites one sample file with an extra trailing
// comment line (footer recomputed, so the file is self-consistent) without
// touching the manifest — the manifest now describes a file that no longer
// exists in that form.
func (d *DiskFaultInjector) injectStaleManifest(dir string) error {
	// Only the .gdm.meta files carry the footer this injection rewrites.
	target, err := d.pickSampleFile(dir, true)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(target)
	if err != nil {
		return err
	}
	// Drop the existing footer, append a comment line, and recompute a fresh
	// footer over the new payload: the file verifies on its own, only the
	// manifest can tell it is not the file the materialization promised.
	lines := strings.Split(string(data), "\n")
	var kept []string
	for _, ln := range lines {
		if strings.HasPrefix(ln, "#gdmsum\t") || ln == "" {
			continue
		}
		kept = append(kept, ln)
	}
	kept = append(kept, "# diskfault: stale-manifest injection")
	payload := []byte(strings.Join(kept, "\n") + "\n")
	sum := crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli))
	footer := fmt.Sprintf("#gdmsum\tcrc32c:%08x\tbytes:%d\n", sum, len(payload))
	if err := os.WriteFile(target, append(payload, footer...), 0o644); err != nil {
		return err
	}
	d.mu.Lock()
	d.record(DiskFaultStaleManifest)
	d.mu.Unlock()
	return nil
}

// pickSampleFile chooses one sample image or metadata file from dir,
// deterministically under the seed. textOnly restricts the choice to the
// footer-carrying metadata files.
func (d *DiskFaultInjector) pickSampleFile(dir string, textOnly bool) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var files []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || strings.HasPrefix(n, ".") {
			continue
		}
		if strings.HasSuffix(n, ".gdm.meta") || (!textOnly && strings.HasSuffix(n, ".gdmc")) {
			files = append(files, n)
		}
	}
	if len(files) == 0 {
		return "", fmt.Errorf("diskfault: no sample files in %s", dir)
	}
	sort.Strings(files)
	d.mu.Lock()
	pick := files[d.rand().Intn(len(files))]
	d.mu.Unlock()
	return filepath.Join(dir, pick), nil
}
