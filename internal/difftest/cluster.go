package difftest

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"genogo/internal/engine"
	"genogo/internal/federation"
	"genogo/internal/gmql"
	"genogo/internal/resilience"
)

// The cluster chaos soak: every iteration stands up a real replicated
// federation (three HTTP members, each holding the full catalog), runs one
// generated script through it while a seeded fault scenario kills, restarts,
// or slows members mid-query, and compares the merged result against the
// serial single-node oracle.
//
// The property under test is the replicated-federation exactness invariant:
// whenever every replica group keeps at least one member that was never
// faulted, the coordinator must return a result byte-identical to the
// no-failure run — failover and hedging are not allowed to lose samples,
// double-count them (the overlap placement makes every sample arrive twice),
// or degrade the answer to a partial one.

// Cluster fault scenarios, drawn per iteration from the fault seed.
const (
	scenarioNone    = iota // no faults: replication must be invisible
	scenarioPreKill        // one member dead before the query; prober steers
	scenarioMidKill        // kill fuse fires mid-query: failover path
	scenarioRestart        // kill then restart under retry: recovery path
	scenarioSlow           // one slow member with hedging on: hedge path
	numScenarios
)

func scenarioName(s int) string {
	switch s {
	case scenarioNone:
		return "none"
	case scenarioPreKill:
		return "pre-kill"
	case scenarioMidKill:
		return "mid-kill"
	case scenarioRestart:
		return "kill-restart"
	case scenarioSlow:
		return "slow-hedged"
	default:
		return "?"
	}
}

// clusterMembers is the federation size of every soak iteration.
const clusterMembers = 3

// ClusterOptions parametrizes one cluster chaos iteration.
type ClusterOptions struct {
	// ScriptSeed seeds the script generator.
	ScriptSeed int64
	// FaultSeed seeds the fault scenario (which members die, when).
	FaultSeed int64
	// DatasetSeed seeds BuildCatalog (zero means 1). Ignored when Catalog is
	// set.
	DatasetSeed int64
	// Catalog, when non-nil, is shared across iterations.
	Catalog engine.MapCatalog
	// Tolerance for float comparison; zero means DefaultTolerance.
	Tolerance float64
}

// ClusterResult is the outcome of one chaos iteration.
type ClusterResult struct {
	ScriptSeed int64  `json:"script_seed"`
	FaultSeed  int64  `json:"fault_seed"`
	Script     string `json:"script"`
	Scenario   string `json:"scenario"`
	Placement  string `json:"placement"`
	// InvariantHeld reports whether every replica group kept at least one
	// never-faulted member — the precondition for demanding exactness.
	InvariantHeld bool   `json:"invariant_held"`
	OracleErr     string `json:"oracle_err,omitempty"`
	FedErr        string `json:"fed_err,omitempty"`
	// Partial reports a successful query that returned a partial-failure
	// report (legal only when the invariant did not hold).
	Partial bool `json:"partial,omitempty"`
	// Diff is the first difference against the oracle ("" is agreement).
	Diff string `json:"diff,omitempty"`
	// Divergence states the violated expectation; "" means the iteration
	// agreed with the model.
	Divergence string `json:"divergence,omitempty"`
}

// Diverged reports whether the iteration violated the exactness model.
func (c *ClusterResult) Diverged() bool { return c.Divergence != "" }

// slowWrap delays every request by d (context-aware, so canceled hedge
// losers do not hold the handler).
func slowWrap(h http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(d):
		case <-r.Context().Done():
			return
		}
		h.ServeHTTP(w, r)
	})
}

// RunClusterCase runs one chaos iteration: oracle, cluster, faults, query,
// classification.
func RunClusterCase(opts ClusterOptions) *ClusterResult {
	if opts.DatasetSeed == 0 {
		opts.DatasetSeed = 1
	}
	cat := opts.Catalog
	if cat == nil {
		cat = BuildCatalog(opts.DatasetSeed)
	}
	script := Generate(opts.ScriptSeed)
	res := &ClusterResult{
		ScriptSeed: opts.ScriptSeed,
		FaultSeed:  opts.FaultSeed,
		Script:     script.Text(),
	}
	prog, err := gmql.Parse(script.Text())
	if err != nil {
		res.Divergence = "generator emitted unparseable script: " + err.Error()
		return res
	}
	oracle, oracleErr := (&gmql.Runner{
		Config:  engine.Config{Mode: engine.ModeSerial, Workers: 1, MetaFirst: true, ValidateOutputs: true},
		Catalog: cat,
	}).Eval(prog, script.Final)
	if oracleErr != nil {
		res.OracleErr = oracleErr.Error()
	}

	rng := rand.New(rand.NewSource(opts.FaultSeed))
	scenario := rng.Intn(numScenarios)
	res.Scenario = scenarioName(scenario)
	victim := rng.Intn(clusterMembers)

	// Full replication: every member holds the whole catalog, so any leg's
	// surviving replica can serve the complete answer for its units and the
	// exactness invariant applies to arbitrary generated scripts (including
	// cross-sample operators like MERGE and COVER, which are only shard-safe
	// when each replica sees all samples).
	cfg := engine.Config{Mode: engine.ModeStream, Workers: 4, MetaFirst: true, ValidateOutputs: true}
	outages := make([]*resilience.Outage, clusterMembers)
	clients := make([]*federation.Client, clusterMembers)
	for i := 0; i < clusterMembers; i++ {
		srv := federation.NewServer(fmt.Sprintf("chaos-m%d", i), cfg,
			cat["ENCODE"], cat["PEAKS"], cat["ANNOT"])
		outages[i] = resilience.NewOutage()
		var h http.Handler = outages[i].Wrap(srv.Handler())
		if scenario == scenarioSlow && i == victim {
			h = slowWrap(h, 40*time.Millisecond)
		}
		ts := httptest.NewServer(h)
		defer ts.Close()
		clients[i] = federation.NewClient(ts.URL,
			federation.WithRetrier(&resilience.Retrier{
				MaxAttempts: 3,
				BaseDelay:   time.Millisecond,
				MaxDelay:    5 * time.Millisecond,
			}))
	}

	// Placement variant: one fully replicated group, or overlapping pairs.
	// The overlap layout makes every leg return the complete answer, so each
	// sample arrives from multiple legs and the merge's identity dedup is on
	// the critical path of every iteration that uses it.
	var placement *federation.Placement
	if rng.Intn(2) == 0 {
		res.Placement = "single-group-r3"
		placement = federation.NewPlacement().
			Register("ENCODE", 0, 1, 2).
			Register("PEAKS", 0, 1, 2).
			Register("ANNOT", 0, 1, 2)
	} else {
		res.Placement = "overlap-r2"
		placement = federation.NewPlacement().
			Register("ENCODE", 0, 1).
			Register("PEAKS", 1, 2).
			Register("ANNOT", 0, 2)
	}

	// Apply the fault scenario and record which members stay clean.
	faulted := make([]bool, clusterMembers)
	var prober *federation.Prober
	hedge := federation.HedgePolicy{}
	switch scenario {
	case scenarioPreKill:
		outages[victim].Kill()
		faulted[victim] = true
		prober = federation.NewProber(clients)
		prober.Interval = time.Hour
		for i := 0; i < 3; i++ {
			prober.ProbeAll(context.Background())
		}
	case scenarioMidKill:
		// The fuse fires on the n-th request the victim begins — execute,
		// a chunk fetch, or the release — and that request dies with it.
		outages[victim].KillAfter(1 + rng.Intn(5))
		faulted[victim] = true
	case scenarioRestart:
		outages[victim].KillAfter(1 + rng.Intn(3))
		outages[victim].RestartAfter(1 + rng.Intn(3))
		faulted[victim] = true
	case scenarioSlow:
		hedge = federation.HedgePolicy{Enabled: true, Delay: 2 * time.Millisecond}
	}

	res.InvariantHeld = true
	for _, g := range placement.Groups() {
		live := false
		for _, m := range g.Members {
			if !faulted[m] {
				live = true
				break
			}
		}
		if !live {
			res.InvariantHeld = false
		}
	}

	fed := &federation.Federator{
		Clients:   clients,
		Policy:    federation.Policy{AllowPartial: true},
		Placement: placement,
		Prober:    prober,
		Hedge:     hedge,
	}
	got, report, fedErr := fed.Query(context.Background(), script.Text(), script.Final, 3)
	if fedErr != nil {
		res.FedErr = fedErr.Error()
	}
	res.Partial = report != nil

	// Classify against the model.
	switch {
	case oracleErr != nil:
		// A script the oracle rejects must fail on every member, so the
		// federated run must error too (no leg can answer).
		if fedErr == nil {
			res.Divergence = "cluster succeeded but oracle errored: " + res.OracleErr
		}
	case fedErr != nil:
		if res.InvariantHeld {
			res.Divergence = "cluster errored despite a live replica per group: " + res.FedErr
		}
	default:
		res.Diff = Diff(oracle, got, opts.Tolerance)
		if res.Diff != "" {
			// Any successful answer must be exact — partial answers drop whole
			// legs, and with full replication every surviving leg is complete,
			// so even a partial success is byte-comparable to the oracle only
			// when the invariant held.
			if res.InvariantHeld {
				res.Divergence = "result diverged from oracle: " + res.Diff
			} else if !res.Partial {
				res.Divergence = "non-partial result diverged from oracle: " + res.Diff
			}
		}
		if res.Partial && res.InvariantHeld {
			res.Divergence = "partial result despite a live replica per group"
		}
	}
	return res
}

// ClusterCampaignOptions parametrizes a chaos soak campaign.
type ClusterCampaignOptions struct {
	// Start is the first iteration seed; iteration i uses ScriptSeed
	// Start+i and FaultSeed Start+1000+i.
	Start int64
	// Iterations is the soak length. Zero means 50.
	Iterations int
	// DatasetSeed seeds the shared catalog (zero means 1).
	DatasetSeed int64
	// Tolerance for float comparison; zero means DefaultTolerance.
	Tolerance float64
	// Jobs bounds parallelism; zero means 4. Each iteration owns its own
	// cluster, so iterations are independent.
	Jobs int
}

// ClusterReport is the machine-readable soak outcome (the CI artifact).
type ClusterReport struct {
	Start       int64 `json:"start"`
	Iterations  int   `json:"iterations"`
	DatasetSeed int64 `json:"dataset_seed"`
	// Agreed counts iterations matching the exactness model.
	Agreed int `json:"agreed"`
	// Exact counts successful queries with a byte-identical result.
	Exact int `json:"exact"`
	// Partial counts legal partial results (a whole replica group dead).
	Partial int `json:"partial"`
	// Errored counts legal errors (oracle-rejected scripts or dead groups
	// under quorum).
	Errored int `json:"errored"`
	// Scenarios counts iterations per fault scenario.
	Scenarios map[string]int `json:"scenarios"`
	// Diverged holds every iteration that violated the model.
	Diverged  []*ClusterResult `json:"diverged,omitempty"`
	Tolerance float64          `json:"tolerance"`
	// CatalogUnchanged reports that the datasets every member of every
	// iteration served still have their initial content digests (see
	// Report.CatalogUnchanged).
	CatalogUnchanged bool `json:"catalog_unchanged"`
}

// RunClusterCampaign soaks the replicated federation across seeded chaos
// iterations and aggregates the report.
func RunClusterCampaign(opts ClusterCampaignOptions) *ClusterReport {
	if opts.Iterations == 0 {
		opts.Iterations = 50
	}
	if opts.DatasetSeed == 0 {
		opts.DatasetSeed = 1
	}
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = 4
	}
	cat := BuildCatalog(opts.DatasetSeed)
	before := catalogDigests(cat)
	results := make([]*ClusterResult, opts.Iterations)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = RunClusterCase(ClusterOptions{
					ScriptSeed:  opts.Start + int64(i),
					FaultSeed:   opts.Start + 1000 + int64(i),
					DatasetSeed: opts.DatasetSeed,
					Catalog:     cat,
					Tolerance:   opts.Tolerance,
				})
			}
		}()
	}
	for i := 0; i < opts.Iterations; i++ {
		next <- i
	}
	close(next)
	wg.Wait()

	rep := &ClusterReport{
		Start:            opts.Start,
		Iterations:       opts.Iterations,
		DatasetSeed:      opts.DatasetSeed,
		Scenarios:        make(map[string]int),
		Tolerance:        opts.Tolerance,
		CatalogUnchanged: maps.Equal(before, catalogDigests(cat)),
	}
	if rep.Tolerance == 0 {
		rep.Tolerance = DefaultTolerance
	}
	for _, cr := range results {
		rep.Scenarios[cr.Scenario]++
		if cr.Diverged() {
			rep.Diverged = append(rep.Diverged, cr)
			continue
		}
		rep.Agreed++
		switch {
		case cr.FedErr != "" || cr.OracleErr != "":
			rep.Errored++
		case cr.Partial:
			rep.Partial++
		default:
			rep.Exact++
		}
	}
	return rep
}

// WriteJSON writes the soak report as indented JSON.
func (r *ClusterReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
