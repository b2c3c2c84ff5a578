package difftest

import (
	"path/filepath"

	"genogo/internal/engine"
	"genogo/internal/formats"
)

// BuildStorageCatalog materializes cat as repository members under dir and
// returns the disk-backed catalog over them — the storage axis of the
// differential matrix. Built once per campaign (the writes are the expensive
// part); each configuration then reads through the real verified-load path,
// and formats.DirCatalog implements engine.PrunedCatalog, so SELECT/JOIN/MAP
// over scans exercise the pruned reads against the in-memory oracle.
func BuildStorageCatalog(dir string, cat engine.MapCatalog) (*formats.DirCatalog, error) {
	for name, ds := range cat {
		if err := formats.WriteDatasetColumnar(filepath.Join(dir, name), ds); err != nil {
			return nil, err
		}
	}
	return formats.NewDirCatalog(dir), nil
}

// storageConfig is one storage-axis execution configuration: a backend
// configuration plus the disk catalog it reads.
type storageConfig struct {
	Name string
	Cfg  engine.Config
	Cat  engine.Catalog
}

// storageMatrix is the storage axis: the same scripts, read back from disk.
// The entries prove the binary decode and that pruned reads are invisible to
// results under serial and fused stream scheduling; the noprune entry pins
// pruned ≡ unpruned over identical bytes.
func storageMatrix(dc *formats.DirCatalog) []storageConfig {
	if dc == nil {
		return nil
	}
	base := func(m engine.Mode, workers int, noPrune bool) engine.Config {
		return engine.Config{
			Mode: m, Workers: workers, MetaFirst: true,
			DisablePruning: noPrune, ValidateOutputs: true,
		}
	}
	return []storageConfig{
		{Name: "columnar/serial", Cfg: base(engine.ModeSerial, 1, false), Cat: dc},
		{Name: "columnar/stream/w4", Cfg: base(engine.ModeStream, 4, false), Cat: dc},
		{Name: "columnar/serial/noprune", Cfg: base(engine.ModeSerial, 1, true), Cat: dc},
	}
}

// StorageConfigNames lists the storage-axis configuration names, for reports.
func StorageConfigNames() []string {
	var names []string
	for _, sc := range storageMatrix(&formats.DirCatalog{}) {
		names = append(names, sc.Name)
	}
	return names
}
