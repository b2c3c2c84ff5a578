package difftest

import (
	"context"
	"fmt"
	"net/http/httptest"

	"genogo/internal/engine"
	"genogo/internal/federation"
	"genogo/internal/formats"
	"genogo/internal/gdm"
	"genogo/internal/gmql"
	"genogo/internal/synth"
)

// Catalog sizes. Small on purpose: the oracle's value is breadth of scripts,
// not dataset scale, and JOIN/MAP sample counts multiply.
const (
	encodeSamples = 5
	peaksSamples  = 4
	annotGenes    = 24
)

// BuildCatalog builds the three base datasets every generated script draws
// from, deterministically from one seed:
//
//	ENCODE — 5 ChIP-seq-like samples (p_value, signal) with ENCODE metadata
//	PEAKS  — 4 more of the same shape, independently drawn
//	ANNOT  — promoters + genes annotation tracks (name)
func BuildCatalog(seed int64) engine.MapCatalog {
	g := synth.New(seed)
	enc := g.Encode(synth.EncodeOptions{Samples: encodeSamples, MeanPeaks: 12})
	enc.Name = "ENCODE"
	g2 := synth.New(seed + 1)
	peaks := g2.Encode(synth.EncodeOptions{Samples: peaksSamples, MeanPeaks: 10})
	peaks.Name = "PEAKS"
	ann := g.Annotations(g.Genes(annotGenes))
	ann.Name = "ANNOT"
	return engine.MapCatalog{"ENCODE": enc, "PEAKS": peaks, "ANNOT": ann}
}

// ExecConfig is one execution configuration of the matrix.
type ExecConfig struct {
	Name string
	Cfg  engine.Config
}

// Matrix returns the execution configurations every case runs under. The
// first entry is the oracle (serial reference execution); the rest must
// agree with it. All configurations validate operator-output invariants
// (canonical region order, schema-width arity, typed values) on every plan
// node — the invariant half of the differential check.
func Matrix() []ExecConfig {
	base := func(m engine.Mode, workers int) engine.Config {
		return engine.Config{Mode: m, Workers: workers, ValidateOutputs: true}
	}
	return []ExecConfig{
		{Name: "serial", Cfg: base(engine.ModeSerial, 1)},
		{Name: "batch/w1", Cfg: base(engine.ModeBatch, 1)},
		{Name: "batch/w4", Cfg: base(engine.ModeBatch, 4)},
		{Name: "stream/w1", Cfg: base(engine.ModeStream, 1)},
		{Name: "stream/w4", Cfg: base(engine.ModeStream, 4)},
	}
}

// Options parametrizes a differential case run.
type Options struct {
	// DatasetSeed seeds BuildCatalog. Zero means 1.
	DatasetSeed int64
	// Tolerance for float comparison; zero means DefaultTolerance.
	Tolerance float64
	// Federation adds the federation axis: the script runs through a
	// Federator over 1, 2 and 3 HTTP federation nodes holding the catalog
	// split by sample (splitCatalog), which fetches each result in chunks
	// and merges the legs; each is compared with the serial engine's answer
	// over the same split (fanOutReference).
	Federation bool
	// Catalog, when non-nil, overrides BuildCatalog(DatasetSeed) — the
	// campaign runner shares one catalog across cases.
	Catalog engine.MapCatalog
	// Storage, when non-nil, adds the storage axis: the same script read
	// back from the members BuildStorageCatalog wrote, through pruned reads,
	// compared to the in-memory oracle.
	Storage *formats.DirCatalog
}

// ConfigResult is the outcome of one execution configuration on one case.
type ConfigResult struct {
	Config string `json:"config"`
	// Err is the execution error, if any. An error matching the oracle's
	// error is agreement, not divergence.
	Err string `json:"err,omitempty"`
	// Diff describes the first difference against the oracle; "" is
	// agreement.
	Diff string `json:"diff,omitempty"`
}

// Diverged reports whether this configuration disagreed with the oracle.
func (c ConfigResult) Diverged() bool { return c.Diff != "" }

// CaseResult is the outcome of one generated script across the matrix.
type CaseResult struct {
	Seed        int64          `json:"seed"`
	DatasetSeed int64          `json:"dataset_seed"`
	Script      string         `json:"script"`
	Ops         map[string]int `json:"ops"`
	// OracleErr is the serial execution's error, if any. When the oracle
	// errors, agreement means every configuration errors too (error texts
	// may differ across modes; only the error-ness must agree).
	OracleErr string         `json:"oracle_err,omitempty"`
	Results   []ConfigResult `json:"results,omitempty"`
	// Minimized is the smallest sub-script that still diverges, present
	// only on divergence.
	Minimized string `json:"minimized,omitempty"`
}

// Diverged reports whether any configuration disagreed with the oracle.
func (c *CaseResult) Diverged() bool {
	for _, r := range c.Results {
		if r.Diverged() {
			return true
		}
	}
	return false
}

// RunCase generates the script of one seed and runs it through the whole
// matrix, comparing every configuration against the serial oracle. On
// divergence the result carries a minimized reproducer.
func RunCase(seed int64, opts Options) *CaseResult {
	if opts.DatasetSeed == 0 {
		opts.DatasetSeed = 1
	}
	cat := opts.Catalog
	if cat == nil {
		cat = BuildCatalog(opts.DatasetSeed)
	}
	script := Generate(seed)
	res := &CaseResult{
		Seed:        seed,
		DatasetSeed: opts.DatasetSeed,
		Script:      script.Text(),
		Ops:         script.Ops,
	}
	runMatrix(res, script.Text(), script.Final, cat, opts)
	if res.Diverged() {
		res.Minimized = Minimize(script, func(text, final string) bool {
			probe := &CaseResult{}
			runMatrix(probe, text, final, cat, opts)
			return probe.Diverged()
		})
	}
	return res
}

// runMatrix executes one script text under every configuration and fills
// res.OracleErr / res.Results.
func runMatrix(res *CaseResult, text, final string, cat engine.MapCatalog, opts Options) {
	prog, err := gmql.Parse(text)
	if err != nil {
		// The generator's contract is to emit parseable scripts; a parse
		// error is a harness bug and counts as an oracle error so the case
		// is surfaced, never silently skipped.
		res.OracleErr = fmt.Sprintf("generator emitted unparseable script: %v", err)
		return
	}
	matrix := Matrix()
	oracleCfg := matrix[0]
	oracle, oracleErr := (&gmql.Runner{Config: oracleCfg.Cfg, Catalog: cat}).Eval(prog, final)
	if oracleErr != nil {
		res.OracleErr = oracleErr.Error()
	}
	// check files one configuration's outcome against its reference: both
	// erroring is agreement; otherwise the results must be equivalent.
	check := func(config string, want *gdm.Dataset, wantErr error, got *gdm.Dataset, err error) {
		cr := ConfigResult{Config: config}
		switch {
		case err != nil && wantErr != nil:
			cr.Err = err.Error()
		case err != nil:
			cr.Err = err.Error()
			cr.Diff = fmt.Sprintf("config errored but oracle succeeded: %v", err)
		case wantErr != nil:
			cr.Diff = "config succeeded but oracle errored: " + wantErr.Error()
		default:
			cr.Diff = Diff(want, got, opts.Tolerance)
		}
		res.Results = append(res.Results, cr)
	}
	for _, ec := range matrix[1:] {
		got, err := (&gmql.Runner{Config: ec.Cfg, Catalog: cat}).Eval(prog, final)
		check(ec.Name, oracle, oracleErr, got, err)
	}
	for _, sc := range storageMatrix(opts.Storage) {
		got, err := (&gmql.Runner{Config: sc.Cfg, Catalog: sc.Cat}).Eval(prog, final)
		check(sc.Name, oracle, oracleErr, got, err)
	}
	if opts.Federation {
		for _, n := range fanOuts {
			members := splitCatalog(cat, n)
			want, wantErr := fanOutReference(prog, final, members)
			got, err := runFederated(text, final, members)
			if err == nil {
				// The merge is no operator, so ValidateOutputs never saw it.
				err = got.Validate()
			}
			check(fanOutName(n), want, wantErr, got, err)
		}
	}
}

// fanOuts are the federation axis: the member counts of a real Federator
// over the split catalog. One member is the single-node round trip.
var fanOuts = []int{1, 2, 3}

// fanOutName names a federation-axis configuration in reports.
func fanOutName(n int) string {
	if n == 1 {
		return "federation"
	}
	return fmt.Sprintf("federation/%d", n)
}

// splitCatalog is the headline's data layout over n members: the experiment
// datasets (ENCODE, PEAKS) are dealt out round-robin by sample and the ANNOT
// reference sits on every member. The members share the catalog's samples
// read-only.
func splitCatalog(cat engine.MapCatalog, n int) []engine.MapCatalog {
	members := make([]engine.MapCatalog, n)
	for i := range members {
		members[i] = engine.MapCatalog{"ANNOT": cat["ANNOT"]}
	}
	for _, name := range []string{"ENCODE", "PEAKS"} {
		src := cat[name]
		for i := range members {
			members[i][name] = gdm.NewDataset(name, src.Schema)
		}
		for j, s := range src.Samples {
			part := members[j%n][name]
			part.Samples = append(part.Samples, s)
		}
	}
	return members
}

// fanOutReference is what a federation over members is defined to return:
// each member's catalog evaluated by the serial engine, folded in member
// order with engine.Union. Every member is its own replica group, so a
// sample ID repeated between members is a different sample and Union keeps
// it, renamed. A cross-sample script over a split dataset (COVER, MERGE) is
// thereby compared with the federation's answer, not the single node's.
func fanOutReference(prog *gmql.Program, final string, members []engine.MapCatalog) (*gdm.Dataset, error) {
	cfg := Matrix()[0].Cfg
	var merged *gdm.Dataset
	for _, cat := range members {
		ds, err := (&gmql.Runner{Config: cfg, Catalog: cat}).Eval(prog, final)
		if err != nil {
			return nil, err
		}
		if merged == nil {
			merged = ds
			continue
		}
		if merged, err = engine.Union(cfg, merged, ds); err != nil {
			return nil, err
		}
	}
	return merged, nil
}

// runFederated runs the script through a Federator over one in-process
// federation node per member catalog (stream mode, 4 workers), which fetches
// each staged result in chunks of 3 samples and merges the legs — the full
// fan-out, execute/stage/chunked-retrieval wire path and MERGE of
// Sections 4.3–4.4.
func runFederated(text, final string, members []engine.MapCatalog) (*gdm.Dataset, error) {
	cfg := engine.Config{Mode: engine.ModeStream, Workers: 4, ValidateOutputs: true}
	fed := &federation.Federator{}
	for i, cat := range members {
		srv := federation.NewServer(fmt.Sprintf("difftest-node%d", i+1), cfg,
			cat["ENCODE"], cat["PEAKS"], cat["ANNOT"])
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		fed.Clients = append(fed.Clients, federation.NewClient(ts.URL))
	}
	ds, _, err := fed.Query(context.Background(), text, final, 3)
	return ds, err
}
