package obs

import (
	"log/slog"
	"sync"
	"time"
)

var metricSlowlogDropped = Default().Counter("genogo_slowlog_dropped_total",
	"Slow-query records evicted from the in-memory ring by the entry or byte cap.")

// slowlogMaxQueryLen bounds the query text stored per record — slow-log
// memory must not scale with query size.
const slowlogMaxQueryLen = 256

// SlowRecord is one retained slow-query (or killed-query) event, served from
// /debug/slowlog so the recent history survives log rotation and is
// correlatable with /debug/queries and /debug/prof captures.
type SlowRecord struct {
	Time    time.Time `json:"time"`
	QueryID string    `json:"query_id,omitempty"`
	Query   string    `json:"query"`
	// Status is "slow" for threshold crossings, or the kill status
	// (canceled, killed, shed) for governance events.
	Status string  `json:"status"`
	Reason string  `json:"reason,omitempty"`
	TookMS float64 `json:"took_ms"`
	// Resource attribution from the query's root span, when profiled.
	CPUMS      float64 `json:"cpu_ms,omitempty"`
	AllocObjs  int64   `json:"alloc_objs,omitempty"`
	AllocBytes int64   `json:"alloc_bytes,omitempty"`
	RegionsOut int     `json:"regions_out,omitempty"`
	// Top are the top spans by self time, hottest first.
	Top []SlowSpan `json:"top,omitempty"`
}

// SlowSpan is one inlined hot operator of a slow query.
type SlowSpan struct {
	Op     string  `json:"op"`
	Detail string  `json:"detail,omitempty"`
	SelfMS float64 `json:"self_ms"`
	CPUMS  float64 `json:"cpu_ms,omitempty"`
}

// sizeBytes estimates the record's retained memory for the ring's byte cap.
func (r *SlowRecord) sizeBytes() int {
	n := 160 + len(r.QueryID) + len(r.Query) + len(r.Status) + len(r.Reason)
	for _, s := range r.Top {
		n += 64 + len(s.Op) + len(s.Detail)
	}
	return n
}

// SlowQueryLog emits one structured record per query whose wall time crosses
// Threshold, with the top-3 spans (by self time) inlined — enough to see
// which operator ate the time without shipping the whole profile. Records are
// also retained in a bounded in-memory ring (MaxEntries entries, MaxBytes
// estimated bytes — sustained overload evicts the oldest, counted by
// genogo_slowlog_dropped_total) and each slow-query or governance-kill event
// triggers the continuous profiler, so /debug/prof holds a capture from the
// moment things went wrong.
//
// A nil SlowQueryLog, or one with a non-positive threshold, is disabled and
// safe to call.
type SlowQueryLog struct {
	// Threshold is the minimum query duration worth logging; <= 0 disables.
	Threshold time.Duration
	// Logger receives the records; nil means slog.Default().
	Logger *slog.Logger
	// MaxEntries caps the in-memory ring (default 256; negative disables
	// retention). MaxBytes caps its estimated memory (default 1 MiB).
	MaxEntries int
	MaxBytes   int
	// Profiler receives slow-query/kill triggers; nil means Prof(), the
	// process-wide profiler (free unless the binary enabled it).
	Profiler *Profiler

	mu        sync.Mutex
	ring      []*SlowRecord
	ringBytes int
}

// logger resolves the destination.
func (l *SlowQueryLog) logger() *slog.Logger {
	if l.Logger != nil {
		return l.Logger
	}
	return slog.Default()
}

// profiler resolves the capture target.
func (l *SlowQueryLog) profiler() *Profiler {
	if l != nil && l.Profiler != nil {
		return l.Profiler
	}
	return Prof()
}

// retain appends the record to the bounded ring.
func (l *SlowQueryLog) retain(r *SlowRecord) {
	maxEntries, maxBytes := l.MaxEntries, l.MaxBytes
	if maxEntries < 0 {
		return
	}
	if maxEntries == 0 {
		maxEntries = 256
	}
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ring = append(l.ring, r)
	l.ringBytes += r.sizeBytes()
	for len(l.ring) > maxEntries || (l.ringBytes > maxBytes && len(l.ring) > 1) {
		l.ringBytes -= l.ring[0].sizeBytes()
		l.ring[0] = nil
		l.ring = l.ring[1:]
		metricSlowlogDropped.Inc()
	}
}

// Recent returns the retained records, newest first.
func (l *SlowQueryLog) Recent() []SlowRecord {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowRecord, 0, len(l.ring))
	for i := len(l.ring) - 1; i >= 0; i-- {
		out = append(out, *l.ring[i])
	}
	return out
}

// View serves the retained ring on /debug/slowlog.
func (l *SlowQueryLog) View() View {
	return View{
		Path: "/debug/slowlog",
		Desc: "slow query log: recent queries that crossed the latency threshold",
		List: func() any { return l.Recent() },
	}
}

// truncQuery bounds the stored query text.
func truncQuery(q string) string {
	if len(q) > slowlogMaxQueryLen {
		return q[:slowlogMaxQueryLen] + "..."
	}
	return q
}

// Observe records one finished query. The query string identifies it (a
// variable name, a script digest); root is its profile, which may be nil
// (only the duration is logged then).
func (l *SlowQueryLog) Observe(query string, root *Span) {
	l.ObserveQuery("", query, root)
}

// ObserveQuery is Observe with the query's process-spanning identity: the
// record carries query_id, so slow-log lines correlate with /debug/queries
// console entries and federated partial-failure reports on every node the
// query touched. An empty id logs like Observe.
func (l *SlowQueryLog) ObserveQuery(id, query string, root *Span) {
	if l == nil || l.Threshold <= 0 || root == nil || root.Duration() < l.Threshold {
		return
	}
	res := root.Res()
	rec := &SlowRecord{
		Time: time.Now(), QueryID: id, Query: truncQuery(query),
		Status:    "slow",
		TookMS:    float64(root.DurationNS) / 1e6,
		CPUMS:     float64(res.CPUNS) / 1e6,
		AllocObjs: res.AllocObjs, AllocBytes: res.AllocBytes,
		RegionsOut: root.RegionsOut,
	}
	attrs := []any{
		slog.String("query", query),
		slog.Duration("took", root.Duration()),
		slog.Duration("threshold", l.Threshold),
		slog.Int("regions_out", root.RegionsOut),
	}
	if res.CPUNS > 0 || res.AllocObjs > 0 {
		attrs = append(attrs,
			slog.Duration("cpu", time.Duration(res.CPUNS)),
			slog.Int64("alloc_objs", res.AllocObjs),
			slog.Int64("alloc_bytes", res.AllocBytes),
		)
	}
	if id != "" {
		attrs = append(attrs, slog.String("query_id", id))
	}
	for i, sp := range root.TopBySelf(3) {
		rec.Top = append(rec.Top, SlowSpan{
			Op: sp.Op, Detail: sp.Detail,
			SelfMS: float64(sp.SelfNS()) / 1e6,
			CPUMS:  float64(sp.SelfRes().CPUNS) / 1e6,
		})
		attrs = append(attrs, slog.Group("span"+string(rune('1'+i)),
			slog.String("op", sp.Op),
			slog.String("detail", sp.Detail),
			slog.Duration("self", time.Duration(sp.SelfNS())),
			slog.Duration("self_cpu", time.Duration(sp.SelfRes().CPUNS)),
			slog.Int("samples_out", sp.SamplesOut),
			slog.Int("regions_out", sp.RegionsOut),
		))
	}
	l.logger().Warn("slow query", attrs...)
	l.retain(rec)
	l.profiler().Trigger("slow_query", id)
}

// ObserveKilled records a query that lifecycle governance killed (canceled,
// deadline, budget) or admission control shed. Killed queries log regardless
// of duration — a query shed in microseconds is exactly the overload signal
// the log exists for — but honor the threshold-as-enable convention: a nil
// or disabled log stays silent. took is the query's wall time (zero for shed
// queries that never ran).
//
// A budget kill triggers the profiler (a "budget_kill" capture tagged with
// id) even when the log is nil or disabled: a query was eating the machine,
// and the capture is the evidence.
func (l *SlowQueryLog) ObserveKilled(id, query, status, reason string, took time.Duration) {
	if reason == "budget" {
		l.profiler().Trigger("budget_kill", id)
	}
	if l == nil || l.Threshold <= 0 {
		return
	}
	attrs := []any{
		slog.String("query", query),
		slog.String("status", status),
		slog.String("reason", reason),
		slog.Duration("took", took),
	}
	if id != "" {
		attrs = append(attrs, slog.String("query_id", id))
	}
	l.logger().Warn("query killed", attrs...)
	l.retain(&SlowRecord{
		Time: time.Now(), QueryID: id, Query: truncQuery(query),
		Status: status, Reason: reason,
		TookMS: float64(took) / 1e6,
	})
	if status == string(StatusShed) {
		l.profiler().Trigger("shed", id)
	}
}
