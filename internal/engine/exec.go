package engine

import (
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"genogo/internal/catalog"
	"genogo/internal/expr"
	"genogo/internal/gdm"
	"genogo/internal/obs"
)

// Catalog resolves dataset names for Scan nodes.
type Catalog interface {
	Dataset(name string) (*gdm.Dataset, error)
}

// PrunedCatalog is the pruned dataset-access extension a storage engine
// implements (formats.DirCatalog is the disk implementation): ReadPruned
// returns a dataset without the samples keep.Sample rejects and without the
// (sample, chromosome) partitions keep.Part rejects — for members their
// region bytes are never read, turning the `prunable=` accounting into real
// skipped I/O. Skipped partitions drop only their regions, and keep.Sample is
// only ever a SELECT's own metadata predicate: every sample the consuming
// operator keeps still appears (possibly region-empty), so sample-level
// semantics are untouched. Stats serves the persisted partition index without
// loading region data, letting a JOIN of two scans prune each side before
// either is materialized.
type PrunedCatalog interface {
	Catalog
	Stats(name string) (*catalog.DatasetStats, bool)
	ReadPruned(name string, keep catalog.Keep) (*gdm.Dataset, catalog.PruneStats, error)
}

// MapCatalog is the in-memory Catalog.
type MapCatalog map[string]*gdm.Dataset

// Dataset implements Catalog.
func (c MapCatalog) Dataset(name string) (*gdm.Dataset, error) {
	ds, ok := c[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown dataset %q", name)
	}
	return ds, nil
}

// Run executes a logical plan against a catalog under the configured
// backend.
//
// All backends share the operator kernels; they differ in scheduling:
//
//   - ModeSerial executes operator-at-a-time with no parallelism.
//   - ModeBatch executes operator-at-a-time, each operator fanning its
//     samples/pairs out to the worker pool and fully materializing its
//     output before the next operator starts (Spark-style stages).
//   - ModeStream additionally fuses chains of sample-local operators
//     (SELECT, PROJECT, EXTEND) into a single pipelined pass per sample —
//     no intermediate dataset is materialized inside a chain — and
//     evaluates the two inputs of binary operators concurrently
//     (Flink-style pipelined dataflow).
func Run(cfg Config, plan Node, cat Catalog) (*gdm.Dataset, error) {
	return NewSession(cfg, cat).Eval(plan)
}

// Session evaluates plans with a shared result cache, so several plans that
// share subtrees (the variables of one GMQL script) each execute the shared
// work once.
type Session struct{ e *evaluator }

// NewSession creates an evaluation session over the catalog.
func NewSession(cfg Config, cat Catalog) *Session {
	e := &evaluator{cfg: cfg, cat: cat, cache: make(map[Node]*gdm.Dataset)}
	if pc, ok := cat.(PrunedCatalog); ok && !cfg.DisablePruning {
		e.pc = pc
	}
	return &Session{e: e}
}

// Eval executes one plan, reusing any cached subtree results.
//
// Panics raised by operator kernels — including worker panics re-raised by
// forEach — are converted into returned errors here, so a malformed sample
// fails its query instead of taking down the process hosting the session
// (the gmqld server runs many queries in one process).
func (s *Session) Eval(plan Node) (ds *gdm.Dataset, err error) {
	defer func() {
		if r := recover(); r != nil {
			ds, err = nil, recoveredError(r)
		}
		observeKill(err)
	}()
	metricQueries.With(s.e.cfg.Mode.String()).Inc()
	return s.e.eval(plan, nil)
}

// EvalProfiled executes one plan like Eval while recording a span tree that
// mirrors the plan: one span per node visited, with wall time, data volumes,
// effective parallelism, fusion-chain membership and cache hits. The root
// span renders as an EXPLAIN ANALYZE-style profile (obs.Span.Render) and
// marshals to JSON for the federated path.
func (s *Session) EvalProfiled(plan Node) (*gdm.Dataset, *obs.Span, error) {
	return s.EvalProfiledLive(plan, nil)
}

// EvalProfiledLive is EvalProfiled with a live-observation hook: when
// publish is non-nil it receives the root span before evaluation begins, so
// a query registry can expose the growing tree to /debug/queries while the
// query runs. Spans mutate only through mutex-guarded setters after
// publication; observers read via obs.Span.Snapshot.
func (s *Session) EvalProfiledLive(plan Node, publish func(*obs.Span)) (ds *gdm.Dataset, root *obs.Span, err error) {
	defer func() {
		if r := recover(); r != nil {
			ds, root, err = nil, nil, recoveredError(r)
		}
		observeKill(err)
	}()
	metricQueries.With(s.e.cfg.Mode.String()).Inc()
	sp := newSpan(plan, s.e.cfg)
	if publish != nil {
		publish(sp)
	}
	ds, err = s.e.eval(plan, sp)
	if err != nil {
		return nil, nil, err
	}
	return ds, sp, nil
}

// recoveredError renders a recovered panic value as a query error. A
// governance kill (govPanic) — raised directly or trapped inside a worker —
// surfaces as its typed lifecycle error, not as a panic report.
func recoveredError(r any) error {
	if gp, ok := r.(govPanic); ok {
		return gp.err
	}
	if wp, ok := r.(*workerPanic); ok {
		if gp, ok := wp.val.(govPanic); ok {
			return gp.err
		}
		return fmt.Errorf("engine: panic in parallel worker: %v\n%s", wp.val, wp.stack)
	}
	return fmt.Errorf("engine: panic during evaluation: %v\n%s", r, debug.Stack())
}

type evaluator struct {
	cfg Config
	cat Catalog
	// pc is cat's partition-level read path; nil when cat has none or
	// Config.DisablePruning is set.
	pc PrunedCatalog
	// cache memoizes results by plan node identity, so a subplan shared by
	// several GMQL variables executes once. Datasets are immutable once
	// returned (see gdm.Dataset), so a cached result is handed to every
	// consumer as is, and operator outputs may share its region storage.
	mu    sync.Mutex
	cache map[Node]*gdm.Dataset
}

// eval evaluates one node into sp, its (possibly nil) span. A nil span means
// the whole subtree runs untraced — the Eval fast path pays one nil check per
// node and nothing else.
func (e *evaluator) eval(n Node, sp *obs.Span) (*gdm.Dataset, error) {
	e.cfg.gov.check()
	start := time.Now()
	e.mu.Lock()
	if ds, ok := e.cache[n]; ok {
		e.mu.Unlock()
		metricCacheHits.Inc()
		if sp != nil {
			sp.SetCacheHit()
			fillSpanOutput(sp, ds)
			sp.Finish(start)
		}
		return ds, nil
	}
	e.mu.Unlock()
	ds, err := e.evalUncached(n, sp)
	if err != nil {
		return nil, err
	}
	if e.cfg.ValidateOutputs {
		if verr := ValidateOperatorOutput(opName(n), ds); verr != nil {
			return nil, verr
		}
	}
	// Budgets are enforced at operator boundaries: the offending operator is
	// known here, and a runaway output is killed before the next operator
	// amplifies it.
	if berr := e.cfg.gov.noteOutput(n, ds); berr != nil {
		if sp != nil {
			sp.Finish(start)
		}
		return nil, berr
	}
	e.mu.Lock()
	e.cache[n] = ds
	e.mu.Unlock()
	if sp != nil {
		finishSpan(sp, e.cfg, ds, start)
	}
	return ds, nil
}

// evalChild evaluates an input node, creating and attaching its span when the
// parent is traced.
func (e *evaluator) evalChild(n Node, parent *obs.Span) (*gdm.Dataset, error) {
	return e.eval(n, e.childSpan(parent, n))
}

// childSpan creates n's span and attaches it under parent; nil when parent
// is (the run is untraced).
func (e *evaluator) childSpan(parent *obs.Span, n Node) *obs.Span {
	if parent == nil {
		return nil
	}
	sp := newSpan(n, e.cfg)
	parent.AddChild(sp)
	return sp
}

func (e *evaluator) evalUncached(n Node, sp *obs.Span) (*gdm.Dataset, error) {
	if e.cfg.Mode == ModeStream {
		if ds, ok, err := e.tryFusedChain(n, sp); ok || err != nil {
			return ds, err
		}
	}
	switch op := n.(type) {
	case *Scan:
		return e.cat.Dataset(op.Dataset)
	case *SelectOp:
		in, err := e.selectInput(op.Input, op, sp)
		if err != nil {
			return nil, err
		}
		meta, err := e.resolveSelectMeta(op, sp)
		if err != nil {
			return nil, err
		}
		return Select(e.cfg, in, meta, op.Region)
	case *ProjectOp:
		in, err := e.evalChild(op.Input, sp)
		if err != nil {
			return nil, err
		}
		return Project(e.cfg, in, op.Args)
	case *ExtendOp:
		in, err := e.evalChild(op.Input, sp)
		if err != nil {
			return nil, err
		}
		return Extend(e.cfg, in, op.Aggs)
	case *MergeOp:
		in, err := e.evalChild(op.Input, sp)
		if err != nil {
			return nil, err
		}
		return Merge(e.cfg, in, op.GroupBy)
	case *GroupOp:
		in, err := e.evalChild(op.Input, sp)
		if err != nil {
			return nil, err
		}
		return Group(e.cfg, in, op.Args)
	case *OrderOp:
		in, err := e.evalChild(op.Input, sp)
		if err != nil {
			return nil, err
		}
		return Order(e.cfg, in, op.Args)
	case *CoverOp:
		in, err := e.evalChild(op.Input, sp)
		if err != nil {
			return nil, err
		}
		return Cover(e.cfg, in, op.Args)
	case *UnionOp:
		l, r, err := e.evalPair(op.Left, op.Right, sp)
		if err != nil {
			return nil, err
		}
		return Union(e.cfg, l, r)
	case *DifferenceOp:
		l, r, err := e.evalPair(op.Left, op.Right, sp)
		if err != nil {
			return nil, err
		}
		return Difference(e.cfg, l, r, op.Args)
	case *MapOp:
		l, r, err := e.zonePair(op.Ref, op.Exp, sp, nil, mapKeep)
		if err != nil {
			return nil, err
		}
		return Map(e.cfg, l, r, op.Args)
	case *JoinOp:
		keep := joinKeep(op.Args.Pred)
		l, r, err := e.zonePair(op.Left, op.Right, sp, keep, keep)
		if err != nil {
			return nil, err
		}
		return Join(e.cfg, l, r, op.Args)
	default:
		return nil, fmt.Errorf("engine: unknown plan node %T", n)
	}
}

// evalPair evaluates the two inputs of a binary operator: sequentially for
// the serial and batch backends, concurrently for the stream backend.
func (e *evaluator) evalPair(left, right Node, parent *obs.Span) (*gdm.Dataset, *gdm.Dataset, error) {
	// Both child spans attach before anything runs: the right operand may
	// execute on another goroutine, and the profile's child order must be the
	// plan order, not the finish order.
	lsp, rsp := e.childSpan(parent, left), e.childSpan(parent, right)
	if e.cfg.Mode != ModeStream {
		l, err := e.eval(left, lsp)
		if err != nil {
			return nil, nil, err
		}
		r, err := e.eval(right, rsp)
		if err != nil {
			return nil, nil, err
		}
		return l, r, nil
	}
	type res struct {
		ds  *gdm.Dataset
		err error
	}
	ch := make(chan res, 1)
	go func() {
		// The right operand runs on its own goroutine; a panic here would be
		// unrecoverable by the caller, so convert it to an error in-channel.
		defer func() {
			if r := recover(); r != nil {
				ch <- res{nil, recoveredError(r)}
			}
		}()
		ds, err := e.eval(right, rsp)
		ch <- res{ds, err}
	}()
	l, lerr := e.eval(left, lsp)
	rres := <-ch
	if lerr != nil {
		return nil, nil, lerr
	}
	if rres.err != nil {
		return nil, nil, rres.err
	}
	return l, rres.ds, nil
}

// resolveSelectMeta composes a SelectOp's metadata predicate with its
// semijoin clause: the external dataset is evaluated (cached, like any
// subplan) and its join-key set becomes an extra metadata filter.
func (e *evaluator) resolveSelectMeta(op *SelectOp, sp *obs.Span) (expr.MetaPredicate, error) {
	if op.SemiJoin == nil {
		return op.Meta, nil
	}
	// The external dataset is a real input of the SELECT, so its span is a
	// child of the select's span like any other operand.
	ext, err := e.evalChild(op.SemiJoin.External, sp)
	if err != nil {
		return nil, err
	}
	keys := make(map[string]bool, len(ext.Samples))
	for _, s := range ext.Samples {
		keys[groupKey(s.Meta, op.SemiJoin.Attrs)] = true
	}
	sj := semiJoinPred{keys: keys, attrs: op.SemiJoin.Attrs, negated: op.SemiJoin.Negated}
	return andMeta(op.Meta, sj), nil
}

// semiJoinPred is the compiled semijoin metadata filter.
type semiJoinPred struct {
	keys    map[string]bool
	attrs   []string
	negated bool
}

// EvalMeta implements expr.MetaPredicate.
func (p semiJoinPred) EvalMeta(md *gdm.Metadata) bool {
	in := p.keys[groupKey(md, p.attrs)]
	if p.negated {
		return !in
	}
	return in
}

// String implements expr.MetaPredicate.
func (p semiJoinPred) String() string {
	op := "IN"
	if p.negated {
		op = "NOT IN"
	}
	return fmt.Sprintf("semijoin([%s] %s external)", strings.Join(p.attrs, ","), op)
}

// fusable reports whether the node is a sample-local stage the stream
// backend can fuse, returning its input.
func fusable(n Node) (input Node, ok bool) {
	switch op := n.(type) {
	case *SelectOp:
		return op.Input, true
	case *ProjectOp:
		return op.Input, true
	case *ExtendOp:
		return op.Input, true
	default:
		return nil, false
	}
}

// tryFusedChain detects a maximal chain of sample-local operators ending at
// n, evaluates the chain's source once, compiles every operator in the chain
// into a stage against the flowing schema, and streams each sample through
// the whole chain in one pass. Returns ok=false when n heads no chain of
// length >= 2 (single operators gain nothing from fusion).
func (e *evaluator) tryFusedChain(n Node, sp *obs.Span) (*gdm.Dataset, bool, error) {
	var chain []Node // outermost first
	cur := n
	for {
		input, ok := fusable(cur)
		if !ok {
			break
		}
		chain = append(chain, cur)
		cur = input
	}
	if len(chain) < 2 {
		return nil, false, nil
	}
	if sp != nil {
		// The whole chain executes as one pass, so it profiles as one span:
		// the head records its members and the chain's source is its child.
		names := make([]string, len(chain))
		for i, c := range chain {
			names[i] = opName(c)
		}
		sp.SetFused(names)
	}
	// The source loads under the innermost SELECT's proof, if any.
	inner, _ := chain[len(chain)-1].(*SelectOp)
	src, err := e.selectInput(cur, inner, sp)
	if err != nil {
		return nil, true, err
	}
	// Compile innermost-first so the schema flows through the chain.
	stages := make([]stage, 0, len(chain))
	schema := src.Schema
	for i := len(chain) - 1; i >= 0; i-- {
		var st stage
		var cerr error
		switch op := chain[i].(type) {
		case *SelectOp:
			var meta expr.MetaPredicate
			meta, cerr = e.resolveSelectMeta(op, sp)
			if cerr == nil {
				st, cerr = compileSelect(schema, meta, op.Region)
			}
		case *ProjectOp:
			st, cerr = compileProject(schema, op.Args)
		case *ExtendOp:
			st, cerr = compileExtend(schema, op.Aggs)
		}
		if cerr != nil {
			return nil, true, cerr
		}
		stages = append(stages, st)
		schema = st.schema
	}
	return applyStages(e.cfg, src, src.Name, stages), true, nil
}

// Optimize applies the logical rewrites of the GMQL optimizer:
//
//  1. Consecutive SELECTs merge into one (their predicates AND together), so
//     a fused or materialized chain makes one pass instead of two.
//  2. SELECT over UNION pushes down into both branches, pruning samples
//     before they are copied.
//
// The meta-first sample pruning itself lives in the SELECT kernel, which
// evaluates the metadata predicate before it touches a region.
func Optimize(n Node) Node {
	switch op := n.(type) {
	case *SelectOp:
		op.Input = Optimize(op.Input)
		if op.SemiJoin != nil {
			op.SemiJoin.External = Optimize(op.SemiJoin.External)
		}
		// Merging and pushdown keep predicates sample-local; a semijoin on
		// the outer select would change which external evaluation happens,
		// so rewrites only fire for plain selects.
		if inner, ok := op.Input.(*SelectOp); ok && op.SemiJoin == nil && inner.SemiJoin == nil {
			return &SelectOp{
				Input:  inner.Input,
				Meta:   andMeta(op.Meta, inner.Meta),
				Region: andRegion(op.Region, inner.Region),
			}
		}
		if u, ok := op.Input.(*UnionOp); ok && op.SemiJoin == nil {
			return &UnionOp{
				Left:  Optimize(&SelectOp{Input: u.Left, Meta: op.Meta, Region: op.Region}),
				Right: Optimize(&SelectOp{Input: u.Right, Meta: op.Meta, Region: op.Region}),
			}
		}
		return op
	case *ProjectOp:
		op.Input = Optimize(op.Input)
		return op
	case *ExtendOp:
		op.Input = Optimize(op.Input)
		return op
	case *MergeOp:
		op.Input = Optimize(op.Input)
		return op
	case *GroupOp:
		op.Input = Optimize(op.Input)
		return op
	case *OrderOp:
		op.Input = Optimize(op.Input)
		return op
	case *CoverOp:
		op.Input = Optimize(op.Input)
		return op
	case *UnionOp:
		op.Left, op.Right = Optimize(op.Left), Optimize(op.Right)
		return op
	case *DifferenceOp:
		op.Left, op.Right = Optimize(op.Left), Optimize(op.Right)
		return op
	case *MapOp:
		op.Ref, op.Exp = Optimize(op.Ref), Optimize(op.Exp)
		return op
	case *JoinOp:
		op.Left, op.Right = Optimize(op.Left), Optimize(op.Right)
		return op
	default:
		return n
	}
}

func andMeta(a, b expr.MetaPredicate) expr.MetaPredicate {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	default:
		return expr.MetaAnd{Left: a, Right: b}
	}
}

func andRegion(a, b expr.Node) expr.Node {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	default:
		return expr.And{Left: a, Right: b}
	}
}
