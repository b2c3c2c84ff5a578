package obs

import (
	"sort"
	"sync"
)

// Operator cost registry: rolling cross-query per-operator statistics. Every
// profiled query's span tree is folded into per-(operator, backend, fusion)
// totals — self wall time, self CPU time, self allocations, regions
// processed — from which the unit costs fall out: ns/region, allocs/region,
// bytes/region. That table answers "which kernel dominates?" before anyone
// vectorizes the wrong one, and it is the seed cost model for a distributed
// planner: a node that knows its own ns/region per operator can cost a plan
// fragment before agreeing to run it (the paper's Sec. 4.4 size/cost
// estimates, measured instead of guessed).
//
// Totals are cumulative and monotonic, Prometheus-style: the JSON export
// computes the current ratios, and the genogo_cost_* counters let a scraper
// compute windowed rates of the same quantities.

var (
	metricCostSpans = Default().CounterVec("genogo_cost_spans_total",
		"Operator executions folded into the cost registry, by operator, backend mode, and fusion.", "op", "mode", "fused")
	metricCostRegions = Default().CounterVec("genogo_cost_regions_total",
		"Regions processed by operator executions in the cost registry (input regions, falling back to output for sources).", "op", "mode", "fused")
	metricCostSelfNS = Default().CounterVec("genogo_cost_self_ns_total",
		"Self wall time of operator executions in the cost registry, nanoseconds.", "op", "mode", "fused")
	metricCostCPUNS = Default().CounterVec("genogo_cost_cpu_ns_total",
		"Self CPU time attributed to operator executions in the cost registry, nanoseconds.", "op", "mode", "fused")
	metricCostAllocObjs = Default().CounterVec("genogo_cost_alloc_objs_total",
		"Heap objects attributed to operator executions in the cost registry.", "op", "mode", "fused")
	metricCostAllocBytes = Default().CounterVec("genogo_cost_alloc_bytes_total",
		"Heap bytes attributed to operator executions in the cost registry.", "op", "mode", "fused")
)

// Pruning-opportunity counters: what fraction of the regions traced operators
// loaded could a zone-map-pruning storage engine have skipped (ROADMAP item
// 1's measured target). Fed from the same profiled span trees as the cost
// registry.
var (
	metricPruneChecks = Default().CounterVec("genogo_prune_checked_spans_total",
		"Operator executions whose predicate the zone-map analysis could check.", "op")
	metricPruneParts = Default().CounterVec("genogo_prune_partitions_total",
		"(sample, chromosome) partitions consulted by zone-map analysis, by outcome (prunable: provably zero-output).", "op", "outcome")
	metricPruneRegions = Default().CounterVec("genogo_prune_regions_total",
		"Regions inside consulted partitions, by outcome (prunable: a pruning storage engine would not have loaded them).", "op", "outcome")
)

// Query-level resource histograms: the distribution of what whole queries
// cost, by backend mode. Observed by ObserveQueryProfile on every profiled
// evaluation.
var (
	metricQueryCPU = Default().HistogramVec("genogo_query_cpu_seconds",
		"CPU time attributed to one profiled query.", nil, "mode")
	metricQueryAllocs = Default().HistogramVec("genogo_query_allocs",
		"Heap objects attributed to one profiled query.",
		[]float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}, "mode")
	metricQueryAllocBytes = Default().HistogramVec("genogo_query_alloc_bytes",
		"Heap bytes attributed to one profiled query.",
		[]float64{1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 26, 1 << 30, 1 << 34}, "mode")
)

// ObserveQueryProfile folds one finished profiled query into the process-wide
// performance model: the genogo_query_* histograms get the query's attributed
// totals, and the operator cost registry gets every span. The profiled
// evaluation paths (gmql.Runner, federation server) call this once per root.
func ObserveQueryProfile(root *Span) {
	if root == nil {
		return
	}
	res := root.Res()
	mode := root.Mode
	if mode == "" {
		mode = "unknown"
	}
	metricQueryCPU.With(mode).Observe(float64(res.CPUNS) / 1e9)
	metricQueryAllocs.With(mode).Observe(float64(res.AllocObjs))
	metricQueryAllocBytes.With(mode).Observe(float64(res.AllocBytes))
	Costs().ObserveTree(root)
}

// costKey identifies one cost bucket: an operator on a backend, fused or not.
type costKey struct {
	op    string
	mode  string
	fused bool
}

// costCell accumulates one bucket's totals.
type costCell struct {
	spans      int64
	regions    int64
	selfNS     int64
	cpuNS      int64
	allocObjs  int64
	allocBytes int64
	// Zone-map pruning opportunity totals (see Span.PruneParts).
	pruneChecked    int64
	pruneParts      int64
	prunableParts   int64
	prunableRegions int64
}

// OpCost is one exported cost-registry row: cumulative totals plus the
// derived unit costs.
type OpCost struct {
	Op    string `json:"op"`
	Mode  string `json:"mode"`
	Fused bool   `json:"fused"`

	Spans      int64 `json:"spans"`
	Regions    int64 `json:"regions"`
	SelfNS     int64 `json:"self_ns"`
	CPUNS      int64 `json:"cpu_ns"`
	AllocObjs  int64 `json:"alloc_objs"`
	AllocBytes int64 `json:"alloc_bytes"`

	// Pruning opportunity: of PruneParts partitions consulted across
	// PruneChecked zone-checkable executions, PrunableParts (holding
	// PrunableRegions regions) were provably zero-output. PrunableFraction
	// is PrunableRegions over the regions these executions processed.
	PruneChecked     int64   `json:"prune_checked,omitempty"`
	PruneParts       int64   `json:"prune_parts,omitempty"`
	PrunableParts    int64   `json:"prunable_parts,omitempty"`
	PrunableRegions  int64   `json:"prunable_regions,omitempty"`
	PrunableFraction float64 `json:"prunable_fraction,omitempty"`

	// Unit costs per region processed (0 when no regions were seen).
	NSPerRegion     float64 `json:"ns_per_region"`
	CPUNSPerRegion  float64 `json:"cpu_ns_per_region"`
	AllocsPerRegion float64 `json:"allocs_per_region"`
	BytesPerRegion  float64 `json:"bytes_per_region"`
}

// CostRegistry folds span trees into per-operator cost buckets.
type CostRegistry struct {
	mu    sync.Mutex
	cells map[costKey]*costCell
}

// defaultCosts is the process-wide registry profiled queries feed.
var defaultCosts = NewCostRegistry()

// Costs returns the process-wide operator cost registry.
func Costs() *CostRegistry { return defaultCosts }

// NewCostRegistry returns an empty registry.
func NewCostRegistry() *CostRegistry {
	return &CostRegistry{cells: make(map[costKey]*costCell)}
}

// ObserveTree folds a finished query profile into the registry: one
// observation per operator span. Cache hits (no work happened) and remote
// spans (another node's work, counted there) are skipped. Regions processed
// is the span's input size, falling back to output size for sources (SCAN
// reads what it emits).
func (c *CostRegistry) ObserveTree(root *Span) {
	if c == nil || root == nil {
		return
	}
	for _, sp := range root.Flatten() {
		if sp.CacheHit || sp.Remote || sp.Op == "" {
			continue
		}
		regions := int64(sp.RegionsIn)
		if regions == 0 {
			regions = int64(sp.RegionsOut)
		}
		key := costKey{op: sp.Op, mode: sp.Mode, fused: len(sp.Fused) > 0}
		self := sp.SelfRes()
		selfNS := sp.SelfNS()

		c.mu.Lock()
		cell := c.cells[key]
		if cell == nil {
			cell = &costCell{}
			c.cells[key] = cell
		}
		cell.spans++
		cell.regions += regions
		cell.selfNS += selfNS
		cell.cpuNS += self.CPUNS
		cell.allocObjs += self.AllocObjs
		cell.allocBytes += self.AllocBytes
		if sp.PruneParts > 0 {
			cell.pruneChecked++
			cell.pruneParts += int64(sp.PruneParts)
			cell.prunableParts += int64(sp.PrunableParts)
			cell.prunableRegions += sp.PrunableRegions
		}
		c.mu.Unlock()

		fused := "no"
		if key.fused {
			fused = "yes"
		}
		metricCostSpans.With(key.op, key.mode, fused).Inc()
		metricCostRegions.With(key.op, key.mode, fused).Add(regions)
		metricCostSelfNS.With(key.op, key.mode, fused).Add(selfNS)
		metricCostCPUNS.With(key.op, key.mode, fused).Add(self.CPUNS)
		metricCostAllocObjs.With(key.op, key.mode, fused).Add(self.AllocObjs)
		metricCostAllocBytes.With(key.op, key.mode, fused).Add(self.AllocBytes)
		if sp.PruneParts > 0 {
			metricPruneChecks.With(key.op).Inc()
			metricPruneParts.With(key.op, "prunable").Add(int64(sp.PrunableParts))
			metricPruneParts.With(key.op, "kept").Add(int64(sp.PruneParts - sp.PrunableParts))
			metricPruneRegions.With(key.op, "prunable").Add(sp.PrunableRegions)
			kept := regions - sp.PrunableRegions
			if kept < 0 {
				kept = 0
			}
			metricPruneRegions.With(key.op, "kept").Add(kept)
		}
	}
}

// Snapshot returns the current table, sorted by operator, mode, fusion —
// deterministic output for /debug/costs and tests.
func (c *CostRegistry) Snapshot() []OpCost {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := make([]OpCost, 0, len(c.cells))
	for k, cell := range c.cells {
		row := OpCost{
			Op: k.op, Mode: k.mode, Fused: k.fused,
			Spans: cell.spans, Regions: cell.regions,
			SelfNS: cell.selfNS, CPUNS: cell.cpuNS,
			AllocObjs: cell.allocObjs, AllocBytes: cell.allocBytes,
			PruneChecked: cell.pruneChecked, PruneParts: cell.pruneParts,
			PrunableParts: cell.prunableParts, PrunableRegions: cell.prunableRegions,
		}
		if cell.regions > 0 && cell.prunableRegions > 0 {
			row.PrunableFraction = float64(cell.prunableRegions) / float64(cell.regions)
		}
		if cell.regions > 0 {
			r := float64(cell.regions)
			row.NSPerRegion = float64(cell.selfNS) / r
			row.CPUNSPerRegion = float64(cell.cpuNS) / r
			row.AllocsPerRegion = float64(cell.allocObjs) / r
			row.BytesPerRegion = float64(cell.allocBytes) / r
		}
		out = append(out, row)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Op != out[j].Op {
			return out[i].Op < out[j].Op
		}
		if out[i].Mode != out[j].Mode {
			return out[i].Mode < out[j].Mode
		}
		return !out[i].Fused && out[j].Fused
	})
	return out
}

// View serves the cost table on /debug/costs.
func (c *CostRegistry) View() View {
	return View{
		Path: "/debug/costs",
		Desc: "operator cost registry: per-operator time/alloc/row totals from profiled runs",
		List: func() any { return c.Snapshot() },
	}
}
