package difftest

import (
	"context"
	"encoding/json"
	"io"
	"maps"
	"os"
	"sync"

	"genogo/internal/engine"
	"genogo/internal/formats"
)

// catalogDigests records every catalog dataset's content digest. A campaign
// shares one catalog read-only across all of its cases, and results share
// region storage with their inputs, so a consumer writing through a shared
// slice would damage the oracle's and the candidate's input alike — a
// comparison of results cannot see that; a digest taken before and after can.
func catalogDigests(cat engine.MapCatalog) map[string]string {
	out := make(map[string]string, len(cat))
	for name, ds := range cat {
		out[name] = ds.ContentDigest()
	}
	return out
}

// CampaignOptions parametrizes a fuzzing campaign: Seeds consecutive
// generator seeds starting at Start, each run through the full matrix.
type CampaignOptions struct {
	// Context, when non-nil, cancels the campaign between cases: workers
	// stop picking up new seeds once it is done, finished cases are kept,
	// and the report comes back marked Canceled. Nil means run to
	// completion.
	Context context.Context
	// Start is the first generator seed; the campaign covers
	// [Start, Start+Seeds).
	Start int64
	// Seeds is the number of cases. Zero means 200.
	Seeds int
	// DatasetSeed seeds the shared catalog (zero means 1).
	DatasetSeed int64
	// Tolerance for float comparison; zero means DefaultTolerance.
	Tolerance float64
	// Federation adds the federation axis to every FederationEvery-th case
	// (the HTTP round trips dominate runtime, so it is sampled).
	Federation bool
	// Storage adds the storage axis to every case: the shared catalog is
	// materialized once as repository members into a temporary directory and
	// each script additionally executes against the disk copy, through
	// pruned reads.
	Storage bool
	// FederationEvery samples the federation round-trip; zero means 10.
	FederationEvery int
	// Jobs bounds campaign parallelism; zero means 4. Case-level
	// parallelism is safe: the catalog is shared read-only (datasets are
	// immutable, which Report.CatalogUnchanged verifies) and each case gets
	// its own engine sessions.
	Jobs int
}

// Report is the machine-readable campaign outcome — the JSON artifact
// cmd/gmqldiff emits and CI uploads.
type Report struct {
	Start       int64 `json:"start"`
	Seeds       int   `json:"seeds"`
	DatasetSeed int64 `json:"dataset_seed"`
	// Agreed counts cases where every configuration matched the oracle.
	Agreed int `json:"agreed"`
	// OracleErrors counts cases whose serial execution errored (every
	// configuration agreed on erroring — these are degenerate scripts, not
	// divergences).
	OracleErrors int `json:"oracle_errors"`
	// Diverged holds every diverging case, with minimized reproducers.
	Diverged []*CaseResult `json:"diverged,omitempty"`
	// OpCoverage counts operator keywords across all generated scripts —
	// the per-operator coverage evidence of the campaign.
	OpCoverage map[string]int `json:"op_coverage"`
	// Configs names the matrix the campaign ran.
	Configs []string `json:"configs"`
	// Federation reports whether the federation axis was sampled.
	Federation bool    `json:"federation"`
	Tolerance  float64 `json:"tolerance"`
	// Canceled reports a campaign cut short by its Context; counts cover
	// only the cases that actually ran.
	Canceled bool `json:"canceled,omitempty"`
	// Completed counts the cases that ran (equals Seeds unless Canceled).
	Completed int `json:"completed"`
	// CatalogUnchanged reports that every shared catalog dataset has the
	// content digest it had before the first case ran. False means something
	// wrote through storage a result shares with its input, and fails the
	// campaign however well the results agreed.
	CatalogUnchanged bool `json:"catalog_unchanged"`
}

// RunCampaign runs a full campaign and aggregates the report.
func RunCampaign(opts CampaignOptions) *Report {
	if opts.Seeds == 0 {
		opts.Seeds = 200
	}
	if opts.DatasetSeed == 0 {
		opts.DatasetSeed = 1
	}
	if opts.FederationEvery <= 0 {
		opts.FederationEvery = 10
	}
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = 4
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	cat := BuildCatalog(opts.DatasetSeed)
	before := catalogDigests(cat)
	var storage *formats.DirCatalog
	var storageErr error
	if opts.Storage {
		dir, err := os.MkdirTemp("", "gmqldiff-storage-")
		if err == nil {
			defer os.RemoveAll(dir)
			storage, err = BuildStorageCatalog(dir, cat)
		}
		// A storage axis that cannot be built must fail loudly, not silently
		// shrink the matrix; the error is reported as a synthetic divergence.
		storageErr = err
	}
	results := make([]*CaseResult, opts.Seeds)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					return
				}
				seed := opts.Start + int64(i)
				co := Options{
					DatasetSeed: opts.DatasetSeed,
					Tolerance:   opts.Tolerance,
					Catalog:     cat,
					Storage:     storage,
					Federation:  opts.Federation && i%opts.FederationEvery == 0,
				}
				results[i] = RunCase(seed, co)
			}
		}()
	}
dispatch:
	for i := 0; i < opts.Seeds; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()

	rep := &Report{
		Start:            opts.Start,
		Seeds:            opts.Seeds,
		DatasetSeed:      opts.DatasetSeed,
		OpCoverage:       make(map[string]int),
		Federation:       opts.Federation,
		Tolerance:        opts.Tolerance,
		CatalogUnchanged: maps.Equal(before, catalogDigests(cat)),
	}
	if rep.Tolerance == 0 {
		rep.Tolerance = DefaultTolerance
	}
	for _, ec := range Matrix() {
		rep.Configs = append(rep.Configs, ec.Name)
	}
	if storage != nil {
		rep.Configs = append(rep.Configs, StorageConfigNames()...)
	}
	if opts.Federation {
		for _, n := range fanOuts {
			rep.Configs = append(rep.Configs, fanOutName(n))
		}
	}
	if storageErr != nil {
		rep.Diverged = append(rep.Diverged, &CaseResult{
			Script: "(storage axis setup)",
			Results: []ConfigResult{{
				Config: "storage-setup",
				Err:    storageErr.Error(),
				Diff:   "storage catalogs could not be built: " + storageErr.Error(),
			}},
		})
	}
	rep.Canceled = ctx.Err() != nil
	for _, cr := range results {
		if cr == nil { // seed never ran: campaign canceled
			continue
		}
		rep.Completed++
		for op, n := range cr.Ops {
			rep.OpCoverage[op] += n
		}
		switch {
		case cr.Diverged():
			// Drop the per-config agreement noise from the artifact; keep
			// only what reproduces the bug.
			rep.Diverged = append(rep.Diverged, cr)
		case cr.OracleErr != "":
			rep.OracleErrors++
		default:
			rep.Agreed++
		}
	}
	return rep
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
