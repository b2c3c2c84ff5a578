package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"genogo/internal/gdm"
)

// Query lifecycle governance: cancellation, deadlines and resource budgets.
//
// A Session is governed by binding it to a context.Context and a Limits via
// Session.Govern. The governor rides on Config as an unexported pointer, so
// every operator kernel — they all receive the Config by value — observes the
// same governor without any kernel signature changing. Kernels check for
// cancellation at two granularities:
//
//   - forEach gates every work item (sample, pair, per-chrom task) on all
//     three backends, and
//   - long-running inner loops (JOIN anchors, MAP overlaps, COVER entries,
//     DIFFERENCE probes) tick the governor every govTickInterval iterations,
//
// which together bound the cancellation latency by the cost of one tick
// interval of straight-line region work.
//
// A kill unwinds as a govPanic through the existing panic-recovery machinery
// (forEach worker traps, evalPair's right-operand goroutine, Session.Eval's
// recover) and surfaces as a typed error: ErrCanceled, ErrDeadline, or a
// *BudgetError wrapping ErrBudgetExceeded.

// Typed lifecycle errors. Budget violations return a *BudgetError, which
// unwraps to ErrBudgetExceeded; classify any of the three with Killed.
var (
	// ErrCanceled reports a query stopped because its context was canceled
	// (client disconnect, federation leg abort, Ctrl-C).
	ErrCanceled = errors.New("engine: query canceled")
	// ErrDeadline reports a query stopped because its wall-clock deadline
	// expired.
	ErrDeadline = errors.New("engine: query deadline exceeded")
	// ErrBudgetExceeded reports a query killed for exceeding a resource
	// budget.
	ErrBudgetExceeded = errors.New("engine: query budget exceeded")
)

// BudgetError is the typed budget violation: which operator tripped which
// limit, and by how much. It unwraps to ErrBudgetExceeded.
type BudgetError struct {
	// Op is the operator at whose boundary the budget tripped (the offending
	// operator span's name, e.g. "JOIN").
	Op string
	// Detail is the operator's one-line plan description.
	Detail string
	// Resource is "output regions" or "resident bytes".
	Resource string
	// Limit is the configured budget; Used is the observed consumption.
	Limit, Used int64
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("engine: query budget exceeded: %s at operator %s (%s): %d > limit %d",
		e.Resource, e.Op, e.Detail, e.Used, e.Limit)
}

// Unwrap makes errors.Is(err, ErrBudgetExceeded) work.
func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// Killed classifies a governance kill: it reports ("canceled"|"deadline"|
// "budget", true) when err is (or wraps) one of the typed lifecycle errors,
// and ("", false) for ordinary query errors. CLIs map the reasons to distinct
// exit codes and servers map them to console states.
func Killed(err error) (reason string, ok bool) {
	switch {
	case err == nil:
		return "", false
	case errors.Is(err, ErrBudgetExceeded):
		return "budget", true
	case errors.Is(err, ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		return "deadline", true
	case errors.Is(err, ErrCanceled), errors.Is(err, context.Canceled):
		return "canceled", true
	}
	return "", false
}

// Limits are the per-query resource budgets. The zero value disables every
// budget: a zero-limits governed session still honors cancellation.
type Limits struct {
	// MaxOutputRegions bounds the region count of any single operator output;
	// <= 0 disables. It is checked at operator boundaries, so one runaway
	// JOIN or COVER is killed before the next operator amplifies it.
	MaxOutputRegions int64
	// MaxResidentBytes bounds the estimated bytes of all operator outputs the
	// session holds resident (the session caches every operator output for
	// subtree sharing, so this is the query's materialized footprint);
	// <= 0 disables.
	MaxResidentBytes int64
	// Deadline is the wall-clock budget for the whole session; <= 0 disables.
	Deadline time.Duration
}

// govTickInterval bounds how many inner-loop iterations a kernel runs between
// governance checks. 1024 keeps the per-iteration cost to an int increment
// while bounding post-cancel straight-line work to microseconds.
const govTickInterval = 1024

// governor carries a session's cancellation signal and budgets into the
// operator kernels via Config.
type governor struct {
	ctx  context.Context
	done <-chan struct{}
	lim  Limits
	// resident accumulates the estimated bytes of uncached operator outputs.
	resident atomic.Int64
	// dead flips once the first check observes cancellation, so forEach's
	// dispatch loop can stop handing out work without panicking itself.
	dead atomic.Bool
}

// killErr maps the governed context's error to the typed lifecycle error.
func (g *governor) killErr() error {
	if errors.Is(g.ctx.Err(), context.DeadlineExceeded) {
		return ErrDeadline
	}
	return ErrCanceled
}

// check panics with a govPanic when the governed context is dead. It is safe
// on a nil governor (ungoverned sessions pay one nil check).
func (g *governor) check() {
	if g == nil {
		return
	}
	if g.ctx.Err() != nil {
		g.dead.Store(true)
		panic(govPanic{g.killErr()})
	}
}

// noteOutput enforces the output-region and resident-byte budgets against one
// uncached operator output. Budget kills return as plain errors (no panic):
// they occur at operator boundaries where the error path already exists.
func (g *governor) noteOutput(n Node, ds *gdm.Dataset) error {
	if g == nil {
		return nil
	}
	if g.lim.MaxOutputRegions > 0 {
		var regions int64
		for i := range ds.Samples {
			regions += int64(len(ds.Samples[i].Regions))
		}
		if regions > g.lim.MaxOutputRegions {
			return g.budgetErr(n, "output regions", g.lim.MaxOutputRegions, regions)
		}
	}
	if g.lim.MaxResidentBytes > 0 {
		if used := g.resident.Add(ds.EstimateBytes()); used > g.lim.MaxResidentBytes {
			return g.budgetErr(n, "resident bytes", g.lim.MaxResidentBytes, used)
		}
	}
	return nil
}

func (g *governor) budgetErr(n Node, resource string, limit, used int64) error {
	g.dead.Store(true)
	detail, _, _ := strings.Cut(n.Describe(0), "\n")
	return &BudgetError{Op: opName(n), Detail: detail, Resource: resource, Limit: limit, Used: used}
}

// govPanic carries a governance kill up the evaluator stack through the same
// recovery machinery that handles worker panics.
type govPanic struct{ err error }

// Govern binds the session to ctx and the given budgets. Evaluation stops
// with ErrCanceled when ctx is canceled, ErrDeadline when ctx's or lim's
// deadline expires, and a *BudgetError when a budget trips. The returned stop
// function releases the deadline timer; call it when done with the session.
// Governing an already-governed session replaces the previous binding.
func (s *Session) Govern(ctx context.Context, lim Limits) (stop func()) {
	if ctx == nil {
		ctx = context.Background()
	}
	cancel := func() {}
	if lim.Deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, lim.Deadline)
	}
	s.e.cfg.gov = &governor{ctx: ctx, done: ctx.Done(), lim: lim}
	return cancel
}

// RunContext is Run under governance: the plan evaluates with ctx's
// cancellation and the given budgets enforced.
func RunContext(ctx context.Context, cfg Config, plan Node, cat Catalog, lim Limits) (*gdm.Dataset, error) {
	s := NewSession(cfg, cat)
	stop := s.Govern(ctx, lim)
	defer stop()
	return s.Eval(plan)
}

// itemGate runs before every forEach work item: the chaos stall hook first
// (so a stuck operator still observes cancellation through done), then the
// cancellation check.
func (c Config) itemGate() {
	if c.Stall != nil {
		var done <-chan struct{}
		if c.gov != nil {
			done = c.gov.done
		}
		c.Stall(done)
	}
	c.gov.check()
}

// tick is the bounded-interval cancellation check for long inner loops; n is
// the caller's loop-local counter. Ungoverned sessions pay one nil check.
func (c Config) tick(n *int) {
	if c.gov == nil {
		return
	}
	*n++
	if *n >= govTickInterval {
		*n = 0
		c.gov.check()
	}
}

// observeKill counts a governance kill in the engine metrics. Called once per
// killed query at the Session boundary — not in check(), which may fire from
// many workers.
func observeKill(err error) {
	if reason, ok := Killed(err); ok {
		if reason == "budget" {
			metricBudgetKills.Inc()
		} else {
			metricCanceled.With(reason).Inc()
		}
	}
}
