// Package engine implements the GMQL physical operators (SELECT, PROJECT,
// EXTEND, MERGE, GROUP, ORDER, UNION, DIFFERENCE, genometric JOIN, MAP,
// COVER) over GDM datasets, together with three execution backends that
// share the operator kernels:
//
//   - ModeSerial: a single-goroutine reference implementation;
//   - ModeBatch: stage-materializing, partition-parallel execution in the
//     style of Spark — every operator materializes its whole output before
//     the next operator starts, with work fanned out to a worker pool;
//   - ModeStream: pipelined dataflow in the style of Flink — chains of
//     sample-local operators are fused and samples stream through the chain
//     without intermediate materialization.
//
// The backends realize the paper's Section 4.2 claim that "the two
// implementations differ only in the encoding of about twenty GMQL language
// components, while the compiler, logical optimizer, and APIs are
// independent from the adoption of either framework": internal/gmql compiles
// to the Plan nodes of this package without knowing which mode will run them.
package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"genogo/internal/expr"
	"genogo/internal/gdm"
	"genogo/internal/intervals"
)

// Mode selects the execution backend.
type Mode uint8

// Execution backends.
const (
	ModeSerial Mode = iota
	ModeBatch
	ModeStream
)

var modeNames = [...]string{ModeSerial: "serial", ModeBatch: "batch", ModeStream: "stream"}

// String names the backend.
func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// ParseMode is the inverse of Mode.String: it resolves a backend name.
func ParseMode(name string) (Mode, error) {
	for m, n := range modeNames {
		if n == name {
			return Mode(m), nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (want serial, batch or stream)", name)
}

// Config carries the execution settings. Every setting that changes how a
// query runs (Mode, Workers, DisablePruning) is an axis of the differential
// oracle, which pins that results do not depend on it. The zero value is a
// valid serial configuration; DefaultConfig returns the parallel default.
// Metadata predicates always prune whole samples before any region is
// touched (the meta-first optimization): there is no setting for it.
type Config struct {
	// Mode selects the backend.
	Mode Mode
	// Workers bounds the worker pool for the parallel backends;
	// <= 0 means GOMAXPROCS.
	Workers int
	// MetaFirst is read by nothing: metadata predicates always run first.
	//
	// Deprecated: the field remains only because bench/ still names it;
	// ROADMAP item 2's [benchmark] change deletes it.
	MetaFirst bool
	// DisablePruning turns off partition-level pruned reads against a
	// PrunedCatalog: every Scan loads its full dataset. The pruned and
	// unpruned paths must produce identical results — this is the ablation
	// knob the prune-correctness tests and the differential harness flip.
	DisablePruning bool
	// ValidateOutputs checks the operator-output invariants (canonical
	// region order, schema-width value arity, typed values, unique sample
	// IDs) after every plan node and fails the query on a violation. It is
	// how the differential harness and the invariants tests assert the
	// DESIGN.md invariants on every operator of every plan, not just
	// hand-picked ones. Off in production: it re-walks every output.
	ValidateOutputs bool
	// Stall is the stuck-operator/slow-consumer chaos hook: when non-nil it
	// runs before every forEach work item. done is the governed session's
	// cancellation signal (nil for ungoverned sessions), so an injected
	// stall that blocks on done still observes cancellation — which is what
	// makes the cancellation-latency bound deterministically testable.
	// Never set in production.
	Stall func(done <-chan struct{})
	// gov is the query lifecycle governor (see govern.go), installed by
	// Session.Govern. It is a pointer so every kernel's by-value Config copy
	// shares it; nil means ungoverned.
	gov *governor
}

// DefaultConfig returns the recommended parallel configuration.
func DefaultConfig() Config {
	return Config{Mode: ModeStream, Workers: runtime.GOMAXPROCS(0)}
}

// workers resolves the configured worker count.
func (c Config) workers() int {
	if c.Mode == ModeSerial {
		return 1
	}
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// effectiveWorkers is the parallelism the pool can actually use for n work
// items: never more goroutines than items, and one when the configuration or
// the input is serial. forEach spawns exactly this many workers, and query
// spans record it, so profiles show the realized — not the configured —
// fan-out.
func (c Config) effectiveWorkers(n int) int {
	w := c.workers()
	if w <= 1 || n <= 1 {
		return 1
	}
	if w > n {
		return n
	}
	return w
}

// workerPanic carries a panic out of a worker goroutine, preserving the
// worker's stack for the re-panic on the caller's goroutine.
type workerPanic struct {
	val   any
	stack []byte
}

// forEach runs fn(i) for i in [0,n) according to the configured backend:
// sequentially in serial mode, fanned out over the worker pool otherwise.
// It is the single parallel primitive every operator kernel uses.
//
// A panic inside a worker goroutine would crash the whole process (a
// goroutine's panic cannot be recovered by anyone else), so workers trap
// panics and forEach re-raises the first one on the calling goroutine —
// where Session.Eval converts it into a query error: one bad sample fails
// the query, not the server.
// Every work item additionally passes the governance gate (cancellation check
// plus the chaos stall hook), so a canceled query stops between items on all
// backends; once the governor observes the kill, the dispatch loop stops
// handing out work so the remaining items are never started.
func (c Config) forEach(n int, fn func(i int)) {
	gated := c.gov != nil || c.Stall != nil
	w := c.effectiveWorkers(n)
	mode := c.Mode.String()
	if w <= 1 {
		start := time.Now()
		for i := 0; i < n; i++ {
			if gated {
				c.itemGate()
			}
			fn(i)
		}
		metricBusyNS.With(mode).Add(int64(time.Since(start)))
		return
	}
	metricWorkersBusy.Add(int64(w))
	defer metricWorkersBusy.Add(-int64(w))
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var trapped *workerPanic
	next := make(chan int)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			start := time.Now()
			defer func() { metricBusyNS.With(mode).Add(int64(time.Since(start))) }()
			for i := range next {
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicOnce.Do(func() {
								trapped = &workerPanic{val: r, stack: debug.Stack()}
							})
						}
					}()
					if gated {
						c.itemGate()
					}
					fn(i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		if c.gov != nil && c.gov.dead.Load() {
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
	if trapped != nil {
		panic(trapped)
	}
}

// entryPool recycles the interval entry buffers of kernel tasks.
var entryPool = sync.Pool{New: func() any { return new([]intervals.Entry) }}

// taskEntries converts regions [lo,hi) of a sample into interval entries
// whose payloads are region indices, in a buffer from entryPool that the
// caller puts back when its task is done.
func taskEntries(s *gdm.Sample, lo, hi int) *[]intervals.Entry {
	buf := entryPool.Get().(*[]intervals.Entry)
	*buf = (*buf)[:0]
	for i := lo; i < hi; i++ {
		r := &s.Regions[i]
		*buf = append(*buf, intervals.Entry{Start: r.Start, Stop: r.Stop, Payload: int32(i)})
	}
	return buf
}

// bindAggs resolves each aggregate's input attribute against the schema its
// values come from (-1 for COUNT-like functions) and appends its result field
// to fields.
func bindAggs(op string, schema *gdm.Schema, aggs []expr.Aggregate, fields []gdm.Field) ([]int, []gdm.Field, error) {
	attr := make([]int, len(aggs))
	for i, a := range aggs {
		in := gdm.KindNull
		attr[i] = -1
		if a.Func.NeedsAttr() {
			j, ok := schema.Index(a.Attr)
			if !ok {
				return nil, nil, fmt.Errorf("%s: unknown attribute %q in schema %s", op, a.Attr, schema)
			}
			attr[i], in = j, schema.Field(j).Type
		}
		fields = append(fields, gdm.Field{Name: a.Output, Type: a.Func.ResultKind(in)})
	}
	return attr, fields, nil
}

// aggRows is the row-indexed state of an operator's aggregate list: one
// expr.AggState per aggregate, each with one row per output region.
type aggRows struct {
	states []*expr.AggState
	attr   []int // from bindAggs
}

func newAggRows(aggs []expr.Aggregate, attr []int, rows int) aggRows {
	states := make([]*expr.AggState, len(aggs))
	for i, a := range aggs {
		states[i] = expr.NewAggState(a.Func, rows)
	}
	return aggRows{states: states, attr: attr}
}

// add folds one input region into a row of every aggregate; vals starts at
// the region's row of attribute values.
func (a aggRows) add(row int, vals []gdm.Value) {
	for i, st := range a.states {
		if a.attr[i] < 0 {
			st.Add(row, gdm.Null())
		} else {
			st.Add(row, vals[a.attr[i]])
		}
	}
}

// appendResults appends a row's aggregate values to vals.
func (a aggRows) appendResults(vals []gdm.Value, row int) []gdm.Value {
	for _, st := range a.states {
		vals = append(vals, st.Result(row))
	}
	return vals
}

// chromSpan is one chromosome's index range within a sorted sample.
type chromSpan struct {
	chrom  string
	lo, hi int
}

// chromSpans enumerates the chromosome ranges of a canonically sorted sample.
func chromSpans(s *gdm.Sample) []chromSpan {
	var out []chromSpan
	for i := 0; i < len(s.Regions); {
		c := s.Regions[i].Chrom
		j := i
		for j < len(s.Regions) && s.Regions[j].Chrom == c {
			j++
		}
		out = append(out, chromSpan{c, i, j})
		i = j
	}
	return out
}
