package federation

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"genogo/internal/engine"
	"genogo/internal/gdm"
	"genogo/internal/obs"
)

// HedgePolicy configures hedged requests: after a delay, a leg still waiting
// on its primary replica launches the same work on the next replica and
// takes the first winner, canceling the loser — trading a bounded amount of
// duplicate work for a tail latency set by the second-slowest replica
// instead of the slowest.
type HedgePolicy struct {
	// Enabled turns hedging on (legs with more than one replica only).
	Enabled bool
	// Delay is the floor (and the fallback while the latency window is
	// still cold) for the hedge trigger; <= 0 means DefaultHedgeDelay.
	Delay time.Duration
	// MaxDelay caps the adaptive trigger; <= 0 means DefaultHedgeMaxDelay.
	MaxDelay time.Duration
}

// Hedge delay bounds when HedgePolicy leaves them unset.
const (
	DefaultHedgeDelay    = 50 * time.Millisecond
	DefaultHedgeMaxDelay = 2 * time.Second
)

// latencyWindowSize is the ring of recent leg latencies the adaptive hedge
// delay is computed over.
const latencyWindowSize = 128

// latencyMinSamples is how many observations the window needs before its
// p99 is trusted over HedgePolicy.Delay.
const latencyMinSamples = 8

// latencyWindow is a fixed-size ring of recent successful leg latencies.
// The zero value is ready to use.
type latencyWindow struct {
	mu  sync.Mutex
	buf [latencyWindowSize]time.Duration
	n   int // observations recorded (may exceed len(buf))
}

func (w *latencyWindow) observe(d time.Duration) {
	w.mu.Lock()
	w.buf[w.n%latencyWindowSize] = d
	w.n++
	w.mu.Unlock()
}

// p99 reports the window's 99th-percentile latency; ok is false while the
// window holds fewer than latencyMinSamples observations.
func (w *latencyWindow) p99() (d time.Duration, ok bool) {
	w.mu.Lock()
	n := w.n
	if n > latencyWindowSize {
		n = latencyWindowSize
	}
	sorted := make([]time.Duration, n)
	copy(sorted, w.buf[:n])
	w.mu.Unlock()
	if n < latencyMinSamples {
		return 0, false
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (n*99 + 99) / 100 // ceil(0.99*n)
	if idx > n {
		idx = n
	}
	return sorted[idx-1], true
}

// hedgeDelay resolves the current hedge trigger: the window's p99 when warm
// (clamped to [Delay, MaxDelay]), the configured Delay while cold.
func (f *Federator) hedgeDelay() time.Duration {
	floor := f.Hedge.Delay
	if floor <= 0 {
		floor = DefaultHedgeDelay
	}
	cap := f.Hedge.MaxDelay
	if cap <= 0 {
		cap = DefaultHedgeMaxDelay
	}
	d := floor
	if p99, ok := f.hedgeWin.p99(); ok && p99 > d {
		d = p99
	}
	if d > cap {
		d = cap
	}
	return d
}

// rankReplicas orders a group's members for dispatch: healthiest first
// (up < unknown < suspect < down per the prober), stable by index so the
// order is deterministic when health ties.
func (f *Federator) rankReplicas(members []int) []int {
	out := append([]int(nil), members...)
	if f.Prober == nil {
		return out
	}
	sort.SliceStable(out, func(i, j int) bool {
		return f.Prober.HealthOf(out[i]).rank() < f.Prober.HealthOf(out[j]).rank()
	})
	return out
}

// legGroups resolves the query's legs: the placement's replica groups, or,
// with a nil Placement, one singleton group per member. A singleton group
// has no units to name and nobody to fail over or hedge to, so its leg is
// one attempt on its member.
func (f *Federator) legGroups() ([]ReplicaGroup, error) {
	var groups []ReplicaGroup
	if f.Placement == nil {
		for i := range f.Clients {
			groups = append(groups, ReplicaGroup{Key: strconv.Itoa(i), Members: []int{i}})
		}
	} else {
		if err := f.Placement.Validate(len(f.Clients)); err != nil {
			return nil, err
		}
		groups = f.Placement.Groups()
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("federation: the query has no legs (no members, or a placement with no units)")
	}
	return groups, nil
}

// legTrace builds the observability for one leg: a LEG span under the
// federated root holding one MEMBER attempt span per dispatched replica,
// each annotated with its role (primary, failover, hedge).
type legTrace struct {
	entry    *obs.QueryEntry
	legSp    *obs.Span // nil when unprofiled
	qid      string
	group    ReplicaGroup
	attempts int
}

// attempt opens the observability for one replica attempt and returns the
// memberTrace queryNode drives. role is "primary", "failover", or "hedge".
func (lt *legTrace) attempt(member int, baseURL, role string) *memberTrace {
	lt.attempts++
	tr := &memberTrace{entry: lt.entry, idx: member}
	if lt.legSp != nil {
		sp := obs.NewSpan("MEMBER")
		sp.Detail = fmt.Sprintf("MEMBER %d %s", member+1, baseURL)
		sp.Mode = "fed"
		sp.SetAttr("role", role)
		lt.legSp.AddChild(sp)
		tr.span = sp
		tr.ref = fmt.Sprintf("%s/leg%s/member%d.%d", lt.qid, lt.group.Key, member+1, lt.attempts)
	}
	return tr
}

// abandon seals the MEMBER span of an attempt runLeg gives up on (a hedge
// loser, canceled while still in flight) before runLeg returns. The leg keeps
// a snapshot marked abandoned; the attempt's goroutine, still unwinding,
// writes only to the detached original — otherwise its late writes would
// race with the lock-free readers (Render, JSON) of the returned tree.
func (lt *legTrace) abandon(tr *memberTrace, started time.Time) {
	if tr.span == nil {
		return
	}
	sealed := tr.span.Snapshot()
	sealed.SetAttr("abandoned", "true")
	sealed.Finish(started)
	lt.legSp.ReplaceChild(tr.span, sealed)
}

// legResult is one leg's outcome: the winning replica's dataset, or the
// failures of every replica tried.
type legResult struct {
	group ReplicaGroup
	ds    *gdm.Dataset
	// fails holds one NodeFailure per replica attempt that failed. The leg
	// failed only when ds is nil; a non-nil ds with fails means failover
	// saved the leg and the result is still exact. The report sees them only
	// through legFailure.
	fails []NodeFailure
}

// runLeg executes one replica group's leg: dispatch to the healthiest
// replica, fail over to the survivors when an attempt dies, and (when
// hedging is on) launch a second replica after the adaptive delay, taking
// the first winner and canceling the loser. The leg fails only when every
// replica has been tried and failed.
func (f *Federator) runLeg(ctx context.Context, script, varName string, chunkSize int, lt *legTrace) legResult {
	res := legResult{group: lt.group}
	order := f.rankReplicas(lt.group.Members)

	type attemptOutcome struct {
		ds   *gdm.Dataset
		fail *NodeFailure
		role string
		idx  int // launch order
	}
	type attempt struct {
		tr      *memberTrace
		started time.Time
		done    bool
	}
	outcomes := make(chan attemptOutcome, len(order))
	cancels := make([]context.CancelFunc, 0, len(order))
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	attempts := make([]attempt, 0, len(order))
	launch := func(role string) bool {
		idx := len(attempts)
		if idx >= len(order) {
			return false
		}
		m := order[idx]
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		tr := lt.attempt(m, f.Clients[m].BaseURL, role)
		started := time.Now()
		attempts = append(attempts, attempt{tr: tr, started: started})
		go func() {
			ds, fail := queryNode(actx, f.Clients[m], script, varName, chunkSize, tr)
			if fail == nil {
				f.hedgeWin.observe(time.Since(started))
			}
			outcomes <- attemptOutcome{ds: ds, fail: fail, role: role, idx: idx}
		}()
		return true
	}

	launch("primary")
	pending := 1
	var hedgeC <-chan time.Time
	if f.Hedge.Enabled && len(order) > 1 {
		t := time.NewTimer(f.hedgeDelay())
		defer t.Stop()
		hedgeC = t.C
	}
	hedgeOutstanding := false
	for pending > 0 {
		select {
		case out := <-outcomes:
			pending--
			attempts[out.idx].done = true
			if out.role == "hedge" {
				hedgeOutstanding = false
			}
			if out.fail == nil {
				// Winner: everything still in flight is a loser — cancel it.
				if out.role == "hedge" {
					metricHedges.With("win").Inc()
				} else if hedgeOutstanding {
					metricHedges.With("canceled").Inc()
				}
				if out.role == "failover" && lt.legSp != nil {
					lt.legSp.SetAttr("failover", "recovered")
				}
				for _, a := range attempts {
					if !a.done {
						lt.abandon(a.tr, a.started)
					}
				}
				res.ds = out.ds
				return res
			}
			res.fails = append(res.fails, *out.fail)
			if out.role == "hedge" {
				metricHedges.With("failed").Inc()
			}
			if pending == 0 && launch("failover") {
				pending++
				metricFailovers.Inc()
			}
		case <-hedgeC:
			hedgeC = nil
			if launch("hedge") {
				pending++
				hedgeOutstanding = true
			}
		}
	}
	// Every replica tried and failed: the leg is lost.
	if lt.legSp != nil {
		lt.legSp.SetAttr("error", "all replicas failed")
	}
	return res
}

// legFailure summarizes a lost leg for the PartialFailure report: one
// NodeFailure naming every replica that was tried, the stage the last one
// failed in, and the leg's units when the placement named any.
func (r legResult) legFailure() NodeFailure {
	nodes := make([]string, len(r.fails))
	for i := range r.fails {
		nodes[i] = r.fails[i].Node
	}
	last := r.fails[len(r.fails)-1]
	leg := "leg " + r.group.Key
	if len(r.group.Units) > 0 {
		leg += " (units " + strings.Join(r.group.Units, ",") + ")"
	}
	err := last.Err
	if len(r.fails) > 1 {
		err = fmt.Errorf("all %d replicas failed, last: %w", len(r.fails), err)
	}
	return NodeFailure{Node: strings.Join(nodes, "+"), Stage: last.Stage, Err: fmt.Errorf("%s: %w", leg, err)}
}

// replicaSets labels each group with its connected set: groups that share a
// member, directly or through a chain of groups, get one label. A member
// holding units of two groups answers either leg with both units' samples,
// so only legs of one set can return the same sample.
func replicaSets(groups []ReplicaGroup) []int {
	parent := make(map[int]int)
	var find func(m int) int
	find = func(m int) int {
		p, ok := parent[m]
		if !ok || p == m {
			return m
		}
		p = find(p)
		parent[m] = p
		return p
	}
	for _, g := range groups {
		for _, m := range g.Members[1:] {
			parent[find(m)] = find(g.Members[0])
		}
	}
	sets := make([]int, len(groups))
	for i, g := range groups {
		sets[i] = find(g.Members[0])
	}
	return sets
}

// mergeLegs is the federation's one merge rule. It folds the legs' datasets,
// in leg order, into one sample union; parts[i] is the dataset of groups[i],
// nil for a lost leg. A sample ID that repeats between legs of one replica
// set (replicaSets) is one sample served twice and is merged once. A repeat
// between legs of different sets is a different sample that happens to share
// the ID, and engine.Union keeps it, renamed. Comparing content instead
// would not do: replicas may sum floats in a different order, so two copies
// of one sample need not be bit-equal. The result is nil when every part is;
// collapsed counts the repeats merged once.
func mergeLegs(cfg engine.Config, groups []ReplicaGroup, parts []*gdm.Dataset) (merged *gdm.Dataset, collapsed int, err error) {
	sets := replicaSets(groups)
	type identity struct {
		id  string
		set int
	}
	seen := make(map[identity]bool)
	for i, ds := range parts {
		if ds == nil {
			continue
		}
		repeats := 0
		for _, s := range ds.Samples {
			if seen[identity{s.ID, sets[i]}] {
				repeats++
			}
		}
		if repeats > 0 {
			fresh := gdm.NewDataset(ds.Name, ds.Schema)
			fresh.Samples = make([]*gdm.Sample, 0, len(ds.Samples)-repeats)
			for _, s := range ds.Samples {
				if !seen[identity{s.ID, sets[i]}] {
					fresh.Samples = append(fresh.Samples, s)
				}
			}
			ds = fresh
			collapsed += repeats
		}
		for _, s := range ds.Samples {
			seen[identity{s.ID, sets[i]}] = true
		}
		if merged == nil {
			merged = ds
			continue
		}
		if merged, err = engine.Union(cfg, merged, ds); err != nil {
			return nil, collapsed, err
		}
	}
	return merged, collapsed, nil
}
