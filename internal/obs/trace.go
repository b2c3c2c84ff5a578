package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one node of a query profile: the execution record of one plan
// operator. The engine builds one span per plan node visited (including
// subtree-cache hits), so the tree mirrors the logical plan and renders as
// an EXPLAIN ANALYZE-style profile. Spans marshal to JSON for the federated
// profile-over-the-wire path.
//
// Concurrent children (the two inputs of a binary operator under the stream
// backend) attach through AddChild, which is mutex-guarded. Identity fields
// (Op, Detail, Mode) are written before the span is published; everything a
// span learns after publication goes through the mutex-guarded setters, so a
// live query console can Snapshot an in-flight tree race-free. Read-side
// helpers (Render, Flatten, SelfNS, JSON marshaling) take no locks: call
// them on finished trees or on the detached copies Snapshot returns.
type Span struct {
	// Op is the operator name (SELECT, MAP, SCAN, ...).
	Op string `json:"op"`
	// Detail is the one-line operator description from the logical plan.
	Detail string `json:"detail,omitempty"`
	// Mode is the backend that executed the operator.
	Mode string `json:"mode,omitempty"`
	// DurationNS is wall time of the operator including its inputs.
	DurationNS int64 `json:"duration_ns"`
	// SamplesIn/RegionsIn total the operator's input datasets.
	SamplesIn int `json:"samples_in"`
	RegionsIn int `json:"regions_in"`
	// SamplesOut/RegionsOut describe the operator's output dataset.
	SamplesOut int `json:"samples_out"`
	RegionsOut int `json:"regions_out"`
	// Workers is the effective parallelism the worker pool could use for
	// this operator (clamped to the input size, 1 for serial execution).
	Workers int `json:"workers,omitempty"`
	// CPUNS is the CPU time (user Go code) the process spent during this
	// operator's execution window, including its inputs. Sampling is
	// process-wide (see ResUsage): exact for serial execution, an upper
	// bound when concurrent work overlaps the window.
	CPUNS int64 `json:"cpu_ns,omitempty"`
	// AllocObjs and AllocBytes are the heap allocations observed during the
	// window, including inputs — same process-wide semantics as CPUNS.
	AllocObjs  int64 `json:"alloc_objs,omitempty"`
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
	// Fused lists the operator names of the fusion chain this span heads
	// (stream backend only); nil for unfused operators.
	Fused []string `json:"fused,omitempty"`
	// PruneParts is the number of (sample, chromosome) partitions the
	// operator's zone-map analysis consulted; PrunableParts of them — holding
	// PrunableRegions regions — provably contribute zero output, so a pruning
	// storage engine would have skipped loading them entirely. All zero when
	// the operator's predicate has no zone-checkable structure, when an
	// input was read pruned (its scan span's Parts* fields carry the same
	// proof's numbers), or when the run was not traced. PrunableSamples
	// counts the samples a SELECT's metadata predicate rejects: a pruning
	// read never opens their region data, so their partitions are not
	// consulted.
	PrunableSamples int   `json:"prunable_samples,omitempty"`
	PruneParts      int   `json:"prune_parts,omitempty"`
	PrunableParts   int   `json:"prunable_parts,omitempty"`
	PrunableRegions int64 `json:"prunable_regions,omitempty"`
	// PartsConsulted is the number of (sample, chromosome) partitions a
	// pruned storage read consulted; PartsSkipped of them — holding
	// RegionsSkipped regions — were proven irrelevant by their zone windows
	// and never read from disk, and SamplesSkipped samples were rejected by
	// their metadata before their images were opened. Where the Prunable*
	// fields above measure the opportunity on an operator, these measure the
	// I/O a pruning scan actually skipped.
	SamplesSkipped int   `json:"samples_skipped,omitempty"`
	PartsConsulted int   `json:"parts_consulted,omitempty"`
	PartsSkipped   int   `json:"parts_skipped,omitempty"`
	RegionsSkipped int64 `json:"regions_skipped,omitempty"`
	// CacheHit marks a subtree answered from the session's result cache:
	// no work happened here, the output was shared.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Attrs are free-form annotations (retry attempts, breaker state, bytes
	// moved, ...) rendered sorted by key so profiles stay deterministic.
	Attrs map[string]string `json:"attrs,omitempty"`
	// Remote marks a span grafted from another node's profile (the federated
	// merge): the subtree executed there, not in this process.
	Remote bool `json:"remote,omitempty"`
	// Children are the input operators, in plan order.
	Children []*Span `json:"children,omitempty"`

	mu sync.Mutex
	// resBase is the resource baseline StartRes recorded; resArmed guards
	// FinishRes so an unarmed span never reports garbage deltas.
	resBase  ResUsage
	resArmed bool
}

// NewSpan starts a span for one operator.
func NewSpan(op string) *Span { return &Span{Op: op} }

// AddChild attaches an input span. Safe for concurrent use — the two sides
// of a binary operator may run on different goroutines.
func (s *Span) AddChild(c *Span) {
	if s == nil || c == nil {
		return
	}
	s.mu.Lock()
	s.Children = append(s.Children, c)
	s.mu.Unlock()
}

// ReplaceChild swaps the child old for c in place, keeping the child order.
// Attaching a Snapshot here seals a subtree another goroutine may still be
// writing: the tree keeps the copy, the writer the detached original.
func (s *Span) ReplaceChild(old, c *Span) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i, k := range s.Children {
		if k == old {
			s.Children[i] = c
		}
	}
	s.mu.Unlock()
}

// Finish records the wall time since start. Like every setter below it takes
// the span's mutex, so a span published to a live query registry can be
// snapshotted while its operator is still executing.
func (s *Span) Finish(start time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.DurationNS = time.Since(start).Nanoseconds()
	s.mu.Unlock()
}

// StartRes arms resource attribution: the span records the process's
// resource counters now, and FinishRes will attribute the delta to it.
func (s *Span) StartRes() {
	if s == nil {
		return
	}
	base := ReadRes()
	s.mu.Lock()
	s.resBase = base
	s.resArmed = true
	s.mu.Unlock()
}

// FinishRes attributes the resource delta since StartRes to the span. A
// span that was never armed is left untouched.
func (s *Span) FinishRes() {
	if s == nil {
		return
	}
	now := ReadRes()
	s.mu.Lock()
	if s.resArmed {
		d := now.Sub(s.resBase)
		s.CPUNS, s.AllocObjs, s.AllocBytes = d.CPUNS, d.AllocObjs, d.AllocBytes
	}
	s.mu.Unlock()
}

// Res reads the span's attributed resource usage.
func (s *Span) Res() ResUsage {
	if s == nil {
		return ResUsage{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return ResUsage{CPUNS: s.CPUNS, AllocObjs: s.AllocObjs, AllocBytes: s.AllocBytes}
}

// SetOutput records the span's output dataset shape.
func (s *Span) SetOutput(samples, regions int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.SamplesOut, s.RegionsOut = samples, regions
	s.mu.Unlock()
}

// SetInput records the span's input totals.
func (s *Span) SetInput(samples, regions int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.SamplesIn, s.RegionsIn = samples, regions
	s.mu.Unlock()
}

// SetWorkers records the effective parallelism.
func (s *Span) SetWorkers(n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.Workers = n
	s.mu.Unlock()
}

// SetPrunable records the operator's pruning opportunity: samples samples
// are rejected by metadata, and of the other samples' consulted (sample,
// chromosome) partitions, prunableParts (holding prunableRegions regions)
// provably contribute zero output.
func (s *Span) SetPrunable(samples, consulted, prunableParts int, prunableRegions int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.PrunableSamples = samples
	s.PruneParts, s.PrunableParts, s.PrunableRegions = consulted, prunableParts, prunableRegions
	s.mu.Unlock()
}

// SetSkipped records a pruned storage read's realized skip accounting:
// samples samples were skipped by metadata, and of the consulted partitions,
// skipped (holding regions regions) were never read from disk.
func (s *Span) SetSkipped(samples, consulted, skipped int, regions int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.SamplesSkipped = samples
	s.PartsConsulted, s.PartsSkipped, s.RegionsSkipped = consulted, skipped, regions
	s.mu.Unlock()
}

// SetCacheHit marks the span as answered from a result cache.
func (s *Span) SetCacheHit() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.CacheHit = true
	s.mu.Unlock()
}

// SetFused records the fusion-chain membership of the span.
func (s *Span) SetFused(names []string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.Fused = names
	s.mu.Unlock()
}

// SetAttr annotates the span. Attributes render sorted by key.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = make(map[string]string)
	}
	s.Attrs[key] = value
	s.mu.Unlock()
}

// Attr reads one annotation ("" when absent).
func (s *Span) Attr(key string) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Attrs[key]
}

// MarkRemote flags the whole subtree as grafted from another node.
func (s *Span) MarkRemote() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.Remote = true
	kids := s.Children
	s.mu.Unlock()
	for _, c := range kids {
		c.MarkRemote()
	}
}

// Snapshot deep-copies the span tree under each span's mutex, producing a
// detached tree that is safe to render, marshal, or walk while the original
// is still being written by an executing query. Writers that mutate spans
// after publication (AddChild, Finish and the setters) hold the same mutex,
// so a snapshot observes each span atomically: a mid-flight profile shows
// finished operators with their final numbers and unfinished ones with
// zero duration.
func (s *Span) Snapshot() *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	c := &Span{
		Op: s.Op, Detail: s.Detail, Mode: s.Mode,
		DurationNS: s.DurationNS,
		SamplesIn:  s.SamplesIn, RegionsIn: s.RegionsIn,
		SamplesOut: s.SamplesOut, RegionsOut: s.RegionsOut,
		Workers: s.Workers, CacheHit: s.CacheHit, Remote: s.Remote,
		CPUNS: s.CPUNS, AllocObjs: s.AllocObjs, AllocBytes: s.AllocBytes,
		PrunableSamples: s.PrunableSamples, PruneParts: s.PruneParts,
		PrunableParts: s.PrunableParts, PrunableRegions: s.PrunableRegions,
		SamplesSkipped: s.SamplesSkipped, PartsConsulted: s.PartsConsulted,
		PartsSkipped: s.PartsSkipped, RegionsSkipped: s.RegionsSkipped,
	}
	if len(s.Fused) > 0 {
		c.Fused = append([]string(nil), s.Fused...)
	}
	if len(s.Attrs) > 0 {
		c.Attrs = make(map[string]string, len(s.Attrs))
		for k, v := range s.Attrs {
			c.Attrs[k] = v
		}
	}
	kids := append([]*Span(nil), s.Children...)
	s.mu.Unlock()
	for _, k := range kids {
		c.Children = append(c.Children, k.Snapshot())
	}
	return c
}

// Duration returns the recorded wall time.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.DurationNS)
}

// SelfNS is the span's own wall time: duration minus the children's (the
// time attributable to this operator's kernel rather than its inputs).
// Concurrent children can make the naive subtraction negative; it clamps
// at zero.
func (s *Span) SelfNS() int64 {
	self := s.DurationNS
	for _, c := range s.Children {
		self -= c.DurationNS
	}
	if self < 0 {
		return 0
	}
	return self
}

// SelfRes is the span's own resource usage: the attributed deltas minus the
// children's (the share of this operator's kernel rather than its inputs).
// Concurrent children can push the naive subtraction negative; each
// component clamps at zero, like SelfNS.
func (s *Span) SelfRes() ResUsage {
	var kids ResUsage
	for _, c := range s.Children {
		kids.CPUNS += c.CPUNS
		kids.AllocObjs += c.AllocObjs
		kids.AllocBytes += c.AllocBytes
	}
	return ResUsage{CPUNS: s.CPUNS, AllocObjs: s.AllocObjs, AllocBytes: s.AllocBytes}.Sub(kids)
}

// ZeroDurations recursively clears every duration and every attributed
// resource delta — golden tests compare span trees structurally, with the
// machine-dependent measurements removed.
func (s *Span) ZeroDurations() {
	if s == nil {
		return
	}
	s.DurationNS = 0
	s.CPUNS, s.AllocObjs, s.AllocBytes = 0, 0, 0
	for _, c := range s.Children {
		c.ZeroDurations()
	}
}

// Flatten returns the span and all descendants, preorder.
func (s *Span) Flatten() []*Span {
	if s == nil {
		return nil
	}
	out := []*Span{s}
	for _, c := range s.Children {
		out = append(out, c.Flatten()...)
	}
	return out
}

// TopBySelf returns the k spans with the largest self time, descending —
// the "where did the time go" summary the slow-query log inlines.
func (s *Span) TopBySelf(k int) []*Span {
	all := s.Flatten()
	sort.SliceStable(all, func(i, j int) bool { return all[i].SelfNS() > all[j].SelfNS() })
	if k > 0 && k < len(all) {
		all = all[:k]
	}
	return all
}

// Render writes the profile as an indented tree, one operator per line:
//
//	MAP peak_count AS COUNT  [stream w=4] time=1.8ms in=41s/8050r out=1s/450r
//	  SELECT annType == 'promoter'  [stream w=1] time=0.2ms in=1s/50r out=1s/45r
//	    SCAN ANNOTATIONS  [stream] time=0.0ms out=1s/50r
//
// Durations render in rounded milliseconds so zeroed golden profiles are
// stable across machines.
func (s *Span) Render() string {
	var b strings.Builder
	s.render(&b, 0)
	return b.String()
}

// sizeString renders a byte count with a binary-ish unit, one decimal.
func sizeString(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func (s *Span) render(b *strings.Builder, indent int) {
	if s == nil {
		return
	}
	pad := strings.Repeat("  ", indent)
	b.WriteString(pad)
	if s.Detail != "" {
		b.WriteString(s.Detail)
	} else {
		b.WriteString(s.Op)
	}
	b.WriteString("  [")
	b.WriteString(s.Mode)
	if s.Workers > 1 {
		fmt.Fprintf(b, " w=%d", s.Workers)
	}
	if len(s.Fused) > 0 {
		fmt.Fprintf(b, " fused=%s", strings.Join(s.Fused, "+"))
	}
	if s.CacheHit {
		b.WriteString(" cached")
	}
	if s.Remote {
		b.WriteString(" remote")
	}
	if len(s.Attrs) > 0 {
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(b, " %s=%s", k, s.Attrs[k])
		}
	}
	b.WriteString("]")
	fmt.Fprintf(b, " time=%.1fms", float64(s.DurationNS)/1e6)
	// Resource attribution prints only when recorded, so profiles without it
	// (and golden trees with measurements zeroed) render exactly as before.
	if s.CPUNS > 0 {
		fmt.Fprintf(b, " cpu=%.1fms", float64(s.CPUNS)/1e6)
	}
	if s.AllocObjs > 0 {
		fmt.Fprintf(b, " allocs=%d/%s", s.AllocObjs, sizeString(s.AllocBytes))
	}
	if s.SamplesIn > 0 || s.RegionsIn > 0 {
		fmt.Fprintf(b, " in=%ds/%dr", s.SamplesIn, s.RegionsIn)
	}
	fmt.Fprintf(b, " out=%ds/%dr", s.SamplesOut, s.RegionsOut)
	// Pruning opportunity prints only when the analysis consulted something,
	// so profiles of unanalyzable plans render exactly as before.
	renderPrune(b, "prunable", s.PrunableSamples, s.PruneParts, s.PrunableParts, s.PrunableRegions)
	// Realized pruning prints only on spans of pruned storage reads, so
	// profiles of in-memory or text-layout scans render exactly as before.
	renderPrune(b, "skipped", s.SamplesSkipped, s.PartsConsulted, s.PartsSkipped, s.RegionsSkipped)
	b.WriteByte('\n')
	for _, c := range s.Children {
		c.render(b, indent+1)
	}
}

// renderPrune writes one pruning figure: " key=Rr/PofNp" when partitions were
// consulted, then "/Ks" (or " key=Ks" alone) when samples were rejected by
// metadata; nothing when neither.
func renderPrune(b *strings.Builder, key string, samples, consulted, parts int, regions int64) {
	sep := " " + key + "="
	if consulted > 0 {
		fmt.Fprintf(b, "%s%dr/%dof%dp", sep, regions, parts, consulted)
		sep = "/"
	}
	if samples > 0 {
		fmt.Fprintf(b, "%s%ds", sep, samples)
	}
}
