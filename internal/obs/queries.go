package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"sync"
	"time"
)

// QueryStatus is a registry entry's lifecycle position.
type QueryStatus string

// Entry lifecycle: Running until Finish, then one of the terminal states.
const (
	StatusRunning  QueryStatus = "running"
	StatusDone     QueryStatus = "done"
	StatusPartial  QueryStatus = "partial" // degraded-mode federated success
	StatusFailed   QueryStatus = "failed"
	StatusCanceled QueryStatus = "canceled" // lifecycle kill: disconnect, deadline, budget
	StatusShed     QueryStatus = "shed"     // rejected by admission control, never ran
)

// MemberState is the console's view of one federation member's leg of a
// query: which stage it is in (or failed at), how much it returned, and the
// resilience context (retry attempts, breaker position) of its requests.
type MemberState struct {
	Node     string `json:"node"`
	Stage    string `json:"stage"` // "execute", "fetch", "done", or "failed:<stage>"
	Err      string `json:"err,omitempty"`
	Samples  int    `json:"samples"`
	Regions  int    `json:"regions"`
	Attempts int    `json:"attempts,omitempty"`
	Breaker  string `json:"breaker,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
}

// QueryEntry is one query's record in a QueryRegistry: identity, script
// digest, timing, per-member state for federated queries, and the live root
// span. All methods are safe for concurrent use; the console reads entries
// while the query executes.
type QueryEntry struct {
	ID string
	// Node is the name of the process-side actor (a node name, "federator",
	// "gmql").
	Node string
	// Var is the materialized variable the query evaluates.
	Var string
	// Digest is a short SHA-256 of the script, stable across nodes.
	Digest string
	Start  time.Time

	mu sync.Mutex
	// parentSpan is the coordinator span a remote execution hangs under
	// (from X-Parent-Span), "" for local or coordinator entries.
	parentSpan string
	status     QueryStatus
	err        string
	end        time.Time
	root       *Span
	members    []MemberState
}

// ScriptDigest is the registry's script identity: the first 12 hex chars of
// the script's SHA-256, matching what every node computes for the same text.
func ScriptDigest(script string) string {
	sum := sha256.Sum256([]byte(script))
	return hex.EncodeToString(sum[:])[:12]
}

// SetRoot publishes the query's live span tree; the console snapshots it for
// mid-flight progress and the finished profile.
func (e *QueryEntry) SetRoot(sp *Span) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.root = sp
	e.mu.Unlock()
}

// SetParentSpan records the coordinator span this execution hangs under.
func (e *QueryEntry) SetParentSpan(ref string) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.parentSpan = ref
	e.mu.Unlock()
}

// ParentSpan reports the coordinator span reference ("" for local queries).
func (e *QueryEntry) ParentSpan() string {
	if e == nil {
		return ""
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.parentSpan
}

// Root snapshots the entry's span tree (nil when the query recorded none).
func (e *QueryEntry) Root() *Span {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	sp := e.root
	e.mu.Unlock()
	return sp.Snapshot()
}

// InitMembers sizes the per-member state table for a federated query.
func (e *QueryEntry) InitMembers(nodes []string) {
	if e == nil {
		return
	}
	ms := make([]MemberState, len(nodes))
	for i, n := range nodes {
		ms[i] = MemberState{Node: n, Stage: "execute"}
	}
	e.mu.Lock()
	e.members = ms
	e.mu.Unlock()
}

// SetMember updates one member's state.
func (e *QueryEntry) SetMember(i int, ms MemberState) {
	if e == nil {
		return
	}
	e.mu.Lock()
	if i >= 0 && i < len(e.members) {
		e.members[i] = ms
	}
	e.mu.Unlock()
}

// Members copies the member state table.
func (e *QueryEntry) Members() []MemberState {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]MemberState(nil), e.members...)
}

// Status reports the entry's lifecycle position.
func (e *QueryEntry) Status() QueryStatus {
	if e == nil {
		return ""
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.status
}

// Err reports the failure text ("" unless StatusFailed).
func (e *QueryEntry) Err() string {
	if e == nil {
		return ""
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Took reports the query's wall time so far (running) or total (finished).
func (e *QueryEntry) Took() time.Duration {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.end.IsZero() {
		return time.Since(e.Start)
	}
	return e.end.Sub(e.Start)
}

// Progress summarizes a live entry from a span snapshot: how many operators
// have finished and the sample/region volume they produced. For a finished
// query SpansDone == SpansSeen and the volumes are the profile totals.
type Progress struct {
	SpansSeen  int `json:"spans_seen"`
	SpansDone  int `json:"spans_done"`
	SamplesOut int `json:"samples_out"`
	RegionsOut int `json:"regions_out"`
	// Resource attribution accumulated over finished operators: CPU time and
	// heap allocations the query has been charged so far (final totals once
	// the query finishes).
	CPUMS      float64 `json:"cpu_ms"`
	AllocObjs  int64   `json:"alloc_objs"`
	AllocBytes int64   `json:"alloc_bytes"`
}

// Progress walks a snapshot of the entry's span tree.
func (e *QueryEntry) Progress() Progress {
	var p Progress
	for _, sp := range e.Root().Flatten() {
		p.SpansSeen++
		if sp.DurationNS > 0 || sp.CacheHit {
			p.SpansDone++
			p.SamplesOut += sp.SamplesOut
			p.RegionsOut += sp.RegionsOut
			r := sp.SelfRes()
			p.CPUMS += float64(r.CPUNS) / 1e6
			p.AllocObjs += r.AllocObjs
			p.AllocBytes += r.AllocBytes
		}
	}
	return p
}

// QueryRegistry tracks the queries a process is running and a ring of
// recently finished ones, feeding the /debug/queries console. A nil registry
// is disabled: Begin returns nil, and all QueryEntry methods on nil receive
// safely via the registry's nil checks at call sites.
type QueryRegistry struct {
	mu     sync.Mutex
	active map[string]*QueryEntry
	recent []*QueryEntry // ring, newest at the highest index
	next   int           // ring write cursor
	keep   int
}

// DefaultRecentQueries is the retention of the process-wide registry's ring
// of finished queries.
const DefaultRecentQueries = 64

// NewQueryRegistry builds a registry retaining the last keep finished
// queries (keep <= 0 means DefaultRecentQueries).
func NewQueryRegistry(keep int) *QueryRegistry {
	if keep <= 0 {
		keep = DefaultRecentQueries
	}
	return &QueryRegistry{active: make(map[string]*QueryEntry), keep: keep}
}

// defaultQueries is the process-wide registry whose console Mount serves;
// every subsystem that runs queries registers entries here by default.
var defaultQueries = NewQueryRegistry(DefaultRecentQueries)

// Queries returns the process-wide query registry.
func Queries() *QueryRegistry { return defaultQueries }

// Begin registers a running query and returns its live entry. The same ID
// beginning twice (a retried federated request reaching the same node)
// replaces the earlier active entry.
func (q *QueryRegistry) Begin(id, node, varName, script string) *QueryEntry {
	if q == nil {
		return nil
	}
	e := &QueryEntry{
		ID: id, Node: node, Var: varName,
		Digest: ScriptDigest(script),
		Start:  time.Now(),
		status: StatusRunning,
	}
	q.mu.Lock()
	q.active[id] = e
	q.mu.Unlock()
	return e
}

// Finish moves the entry from the active table to the recent ring. A nil
// entry (disabled registry) is a no-op. errText == "" finishes as status;
// otherwise the entry fails with that text.
func (q *QueryRegistry) Finish(e *QueryEntry, status QueryStatus, errText string) {
	if q == nil || e == nil {
		return
	}
	e.mu.Lock()
	e.status = status
	e.err = errText
	e.end = time.Now()
	e.mu.Unlock()
	q.mu.Lock()
	if q.active[e.ID] == e {
		delete(q.active, e.ID)
	}
	if len(q.recent) < q.keep {
		q.recent = append(q.recent, e)
	} else {
		q.recent[q.next%q.keep] = e
		q.next++
	}
	q.mu.Unlock()
}

// Active lists running queries, oldest first.
func (q *QueryRegistry) Active() []*QueryEntry {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	out := make([]*QueryEntry, 0, len(q.active))
	for _, e := range q.active {
		out = append(out, e)
	}
	q.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Recent lists finished queries, newest first.
func (q *QueryRegistry) Recent() []*QueryEntry {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	out := make([]*QueryEntry, 0, len(q.recent))
	out = append(out, q.recent...)
	q.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		ei, ej := out[i], out[j]
		ei.mu.Lock()
		endI := ei.end
		ei.mu.Unlock()
		ej.mu.Lock()
		endJ := ej.end
		ej.mu.Unlock()
		if !endI.Equal(endJ) {
			return endI.After(endJ)
		}
		return ei.ID > ej.ID
	})
	return out
}

// Get finds a query by ID, active entries first.
func (q *QueryRegistry) Get(id string) *QueryEntry {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if e := q.active[id]; e != nil {
		return e
	}
	for _, e := range q.recent {
		if e.ID == id {
			return e
		}
	}
	return nil
}

// View is the live query console over this registry: /debug/queries lists
// the active and recently finished queries, /debug/queries/{id} drills into
// one with its (possibly still growing) span tree — the merged federated
// profile on a coordinator, the local execution profile on a node.
func (q *QueryRegistry) View() View {
	return View{
		Path:  "/debug/queries",
		Desc:  "live query console: active and recent queries with span-tree drill-down",
		List:  q.listing,
		Drill: q.lookup,
	}
}

// querySummary is the JSON shape of one console row.
type querySummary struct {
	ID         string        `json:"id"`
	Node       string        `json:"node"`
	Var        string        `json:"var"`
	Digest     string        `json:"digest"`
	ParentSpan string        `json:"parent_span,omitempty"`
	Status     QueryStatus   `json:"status"`
	Err        string        `json:"err,omitempty"`
	StartedAt  time.Time     `json:"started_at"`
	TookMS     float64       `json:"took_ms"`
	Members    []MemberState `json:"members,omitempty"`
	Progress   Progress      `json:"progress"`
}

func summarize(e *QueryEntry) querySummary {
	return querySummary{
		ID: e.ID, Node: e.Node, Var: e.Var, Digest: e.Digest,
		ParentSpan: e.ParentSpan(),
		Status:     e.Status(), Err: e.Err(),
		StartedAt: e.Start,
		TookMS:    float64(e.Took().Microseconds()) / 1e3,
		Members:   e.Members(),
		Progress:  e.Progress(),
	}
}

func (q *QueryRegistry) listing() any {
	summaries := func(entries []*QueryEntry) []querySummary {
		out := []querySummary{}
		for _, e := range entries {
			out = append(out, summarize(e))
		}
		return out
	}
	return struct {
		Active []querySummary `json:"active"`
		Recent []querySummary `json:"recent"`
	}{summaries(q.Active()), summaries(q.Recent())}
}

func (q *QueryRegistry) lookup(id string) (any, bool) {
	e := q.Get(id)
	if e == nil {
		return nil, false
	}
	resp := struct {
		querySummary
		Profile  *Span  `json:"profile,omitempty"`
		Rendered string `json:"rendered,omitempty"`
	}{querySummary: summarize(e), Profile: e.Root()}
	if resp.Profile != nil {
		resp.Rendered = resp.Profile.Render()
	}
	return resp, true
}
