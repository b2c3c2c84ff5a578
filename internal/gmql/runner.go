package gmql

import (
	"context"
	"fmt"
	"sort"
	"time"

	"genogo/internal/engine"
	"genogo/internal/gdm"
	"genogo/internal/obs"
)

// Result is one materialized output of a script.
type Result struct {
	Var     string
	Target  string
	Dataset *gdm.Dataset
}

// Runner executes parsed GMQL programs against a dataset catalog. The
// execution backend (serial / batch / stream) is whatever Config selects —
// the program itself is backend-independent.
type Runner struct {
	Config  engine.Config
	Catalog engine.Catalog
	// DisableOptimizer skips the logical rewrite pass (ablation knob).
	DisableOptimizer bool
	// SlowLog, when non-nil with a positive threshold, receives a structured
	// record for every evaluated variable slower than the threshold. Enabling
	// it turns on profiling for Materialize, since the record inlines the
	// hottest spans.
	SlowLog *obs.SlowQueryLog
	// QueryID is the query's process-spanning identity (obs.NewQueryID):
	// slow-log records carry it so they correlate with /debug/queries console
	// entries and federated trace headers.
	QueryID string
	// SpanObserver, when non-nil, receives each evaluation's root span before
	// execution begins — the hook a live query registry uses to show
	// in-flight progress. Observers must read spans via obs.Span.Snapshot.
	SpanObserver func(*obs.Span)
	// Limits are the per-query resource budgets enforced by the Context
	// variants (engine.Limits semantics; the zero value disables budgets but
	// still honors cancellation).
	Limits engine.Limits
}

// KilledStatus maps an engine kill reason (engine.Killed) to the console
// status a server should record: canceled and deadline kills surface as
// StatusCanceled; budget kills are query failures.
func KilledStatus(reason string) obs.QueryStatus {
	if reason == "budget" {
		return obs.StatusFailed
	}
	return obs.StatusCanceled
}

// queryErr wraps an evaluation error, reporting governance kills to the slow
// log first: a killed query is an operational event worth a record even when
// it never crossed the slow threshold.
func (r *Runner) queryErr(name string, err error, took time.Duration) error {
	if reason, ok := engine.Killed(err); ok {
		r.SlowLog.ObserveKilled(r.QueryID, name, string(KilledStatus(reason)), reason, took)
	}
	return fmt.Errorf("gmql: evaluating %s: %w", name, err)
}

// NewRunner returns a Runner with the default parallel configuration.
func NewRunner(cat engine.Catalog) *Runner {
	return &Runner{Config: engine.DefaultConfig(), Catalog: cat}
}

// plan resolves and optimizes the plan of one variable.
func (r *Runner) plan(p *Program, name string) engine.Node {
	plan := p.Plan(name)
	if !r.DisableOptimizer {
		plan = engine.Optimize(plan)
	}
	return plan
}

// Eval evaluates one variable of the program (whether or not it is
// materialized), returning its dataset.
func (r *Runner) Eval(p *Program, name string) (*gdm.Dataset, error) {
	return r.EvalContext(context.Background(), p, name)
}

// EvalContext is Eval under lifecycle governance: evaluation stops with a
// typed error when ctx is canceled, a deadline expires, or a Limits budget
// trips.
func (r *Runner) EvalContext(ctx context.Context, p *Program, name string) (*gdm.Dataset, error) {
	start := time.Now()
	session := engine.NewSession(r.Config, r.Catalog)
	stop := session.Govern(ctx, r.Limits)
	defer stop()
	ds, err := session.Eval(r.plan(p, name))
	if err != nil {
		return nil, r.queryErr(name, err, time.Since(start))
	}
	return publish(ds, name), nil
}

// publish hands a result out of the session under the caller-facing name.
// The session's cache may still bind ds to other targets, and ds may be a
// catalog dataset, so the result gets its own Dataset and Sample headers and
// its own metadata; regions and values are shared, not copied (gdm.Dataset:
// operator outputs are immutable and already canonical). Samples are listed
// in ID order.
func publish(ds *gdm.Dataset, name string) *gdm.Dataset {
	out := gdm.NewDataset(name, ds.Schema)
	out.Samples = make([]*gdm.Sample, len(ds.Samples))
	for i, s := range ds.Samples {
		out.Samples[i] = &gdm.Sample{ID: s.ID, Meta: s.Meta.Clone(), Regions: s.Regions, Values: s.Values}
	}
	sort.SliceStable(out.Samples, func(i, j int) bool { return out.Samples[i].ID < out.Samples[j].ID })
	return out
}

// EvalProfiled is Eval plus the recorded span tree of the execution — the
// EXPLAIN ANALYZE path. The root span is published to SpanObserver (when
// set) before execution starts.
func (r *Runner) EvalProfiled(p *Program, name string) (*gdm.Dataset, *obs.Span, error) {
	return r.EvalProfiledContext(context.Background(), p, name)
}

// EvalProfiledContext is EvalProfiled under lifecycle governance.
func (r *Runner) EvalProfiledContext(ctx context.Context, p *Program, name string) (*gdm.Dataset, *obs.Span, error) {
	start := time.Now()
	session := engine.NewSession(r.Config, r.Catalog)
	stop := session.Govern(ctx, r.Limits)
	defer stop()
	ds, sp, err := session.EvalProfiledLive(r.plan(p, name), r.SpanObserver)
	if err != nil {
		return nil, nil, r.queryErr(name, err, time.Since(start))
	}
	r.SlowLog.ObserveQuery(r.QueryID, name, sp)
	obs.ObserveQueryProfile(sp)
	return publish(ds, name), sp, nil
}

// Materialize evaluates every MATERIALIZE statement of the program, sharing
// the work of common subplans across targets, and returns the results in
// statement order.
//
// Note the laziness of GMQL: variables that no materialized result depends
// on are never evaluated.
func (r *Runner) Materialize(p *Program) ([]Result, error) {
	return r.MaterializeContext(context.Background(), p)
}

// MaterializeContext is Materialize under lifecycle governance; one
// context/budget binding spans every target (the session's resident-byte
// budget covers the whole script, matching the shared result cache).
func (r *Runner) MaterializeContext(ctx context.Context, p *Program) ([]Result, error) {
	// Profiling is only paid when the slow-query log needs spans to report.
	results, _, err := r.materialize(ctx, p, r.SlowLog != nil && r.SlowLog.Threshold > 0)
	return results, err
}

// MaterializeProfiled is Materialize plus one span tree per materialized
// target, in statement order.
func (r *Runner) MaterializeProfiled(p *Program) ([]Result, []*obs.Span, error) {
	return r.materialize(context.Background(), p, true)
}

// MaterializeProfiledContext is MaterializeProfiled under lifecycle
// governance.
func (r *Runner) MaterializeProfiledContext(ctx context.Context, p *Program) ([]Result, []*obs.Span, error) {
	return r.materialize(ctx, p, true)
}

func (r *Runner) materialize(ctx context.Context, p *Program, profile bool) ([]Result, []*obs.Span, error) {
	if len(p.Materialized) == 0 {
		return nil, nil, fmt.Errorf("gmql: program materializes nothing")
	}
	start := time.Now()
	session := engine.NewSession(r.Config, r.Catalog)
	stop := session.Govern(ctx, r.Limits)
	defer stop()
	// Optimizing each target's plan in place keeps node identity for shared
	// subtrees, so the session cache still deduplicates their execution.
	results := make([]Result, 0, len(p.Materialized))
	var spans []*obs.Span
	for _, m := range p.Materialized {
		var ds *gdm.Dataset
		var sp *obs.Span
		var err error
		if profile {
			ds, sp, err = session.EvalProfiledLive(r.plan(p, m.Var), r.SpanObserver)
		} else {
			ds, err = session.Eval(r.plan(p, m.Var))
		}
		if err != nil {
			if reason, ok := engine.Killed(err); ok {
				r.SlowLog.ObserveKilled(r.QueryID, m.Var, string(KilledStatus(reason)), reason, time.Since(start))
			}
			return nil, nil, fmt.Errorf("gmql: materializing %s: %w", m.Var, err)
		}
		r.SlowLog.ObserveQuery(r.QueryID, m.Var, sp)
		obs.ObserveQueryProfile(sp)
		results = append(results, Result{Var: m.Var, Target: m.Target, Dataset: publish(ds, m.Target)})
		if profile {
			spans = append(spans, sp)
		}
	}
	return results, spans, nil
}

// Explain renders the optimized plan of a variable for debugging.
func (r *Runner) Explain(p *Program, name string) string {
	return engine.Explain(r.plan(p, name))
}
