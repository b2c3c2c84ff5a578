package engine

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"genogo/internal/expr"
	"genogo/internal/gdm"
	"genogo/internal/intervals"
)

// CoverBoundKind distinguishes numeric accumulation bounds from the GMQL
// keywords ANY and ALL.
type CoverBoundKind uint8

// Accumulation bound kinds.
const (
	// BoundN is a literal accumulation count.
	BoundN CoverBoundKind = iota
	// BoundAny means "at least one" as a minimum and "no limit" as a maximum.
	BoundAny
	// BoundAll means the number of samples in the group.
	BoundAll
)

// CoverBound is one accumulation bound of COVER(minAcc, maxAcc).
type CoverBound struct {
	Kind CoverBoundKind
	N    int64
}

// String renders the bound in GMQL surface syntax.
func (b CoverBound) String() string {
	switch b.Kind {
	case BoundAny:
		return "ANY"
	case BoundAll:
		return "ALL"
	default:
		return strconv.FormatInt(b.N, 10)
	}
}

// resolve turns the bound into a concrete depth for a group of n samples.
func (b CoverBound) resolve(n int, isMin bool) int64 {
	switch b.Kind {
	case BoundAny:
		if isMin {
			return 1
		}
		return math.MaxInt64
	case BoundAll:
		return int64(n)
	default:
		return b.N
	}
}

// CoverVariant selects the COVER flavor.
type CoverVariant uint8

// COVER variants.
const (
	// CoverStandard merges contiguous qualifying segments into regions.
	CoverStandard CoverVariant = iota
	// CoverFlat extends each qualifying run to the full extent of the
	// original regions contributing to it.
	CoverFlat
	// CoverSummit emits the local depth maxima inside each qualifying run.
	CoverSummit
	// CoverHistogram emits every constant-depth qualifying segment.
	CoverHistogram
)

// String renders the GMQL keyword.
func (v CoverVariant) String() string {
	switch v {
	case CoverStandard:
		return "COVER"
	case CoverFlat:
		return "FLAT"
	case CoverSummit:
		return "SUMMIT"
	case CoverHistogram:
		return "HISTOGRAM"
	default:
		return fmt.Sprintf("COVER(%d)", uint8(v))
	}
}

// CoverArgs parametrizes COVER.
type CoverArgs struct {
	Min, Max CoverBound
	Variant  CoverVariant
	// GroupBy partitions the samples by metadata attributes; COVER runs
	// independently in each group (GMQL "groupby" clause; replicas of the
	// same experiment are the motivating case in the paper). Empty treats
	// the whole dataset as one group.
	GroupBy []string
	// Aggs computes aggregates over the input regions intersecting each
	// output region (e.g. "avg_signal AS AVG(signal)"), appended to the
	// acc_index attribute.
	Aggs []expr.Aggregate
}

// CoverSchema is the output schema of every COVER variant: the accumulation
// index (maximum overlap depth inside the emitted region).
var CoverSchema = gdm.MustSchema(gdm.Field{Name: "acc_index", Type: gdm.KindInt})

// Cover implements GMQL COVER and its FLAT/SUMMIT/HISTOGRAM variants. It
// computes, per sample group and chromosome, the accumulation profile of all
// regions and emits the maximal runs whose depth lies within [min, max].
// Output regions are unstranded; one output sample is produced per group,
// with the union of the group's metadata. Optional aggregates are computed
// over the input regions intersecting each output region.
func Cover(cfg Config, ds *gdm.Dataset, args CoverArgs) (*gdm.Dataset, error) {
	aggIdx, fields, err := bindAggs("cover", ds.Schema, args.Aggs, CoverSchema.Fields())
	if err != nil {
		return nil, err
	}
	outSchema, err := gdm.NewSchema(fields...)
	if err != nil {
		return nil, fmt.Errorf("cover: %w", err)
	}
	w := ds.Schema.Len()

	groups := make(map[string][]*gdm.Sample)
	var order []string
	for _, s := range ds.Samples {
		k := groupKey(s.Meta, args.GroupBy)
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], s)
	}
	sort.Strings(order)
	// Process group members in ID order: the derived sample ID, the metadata
	// union and the entry order feeding tie-sensitive aggregates must not
	// depend on the catalog's sample order (set-shaped provenance, same as
	// MERGE).
	for _, members := range groups {
		sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })
	}
	out := gdm.NewDataset(ds.Name, outSchema)
	outSamples := make([]*gdm.Sample, len(order))

	// Tasks span (group, chromosome): COVER of a single group still uses
	// every worker, one chromosome each, mirroring the genomic partitioning
	// of the distributed implementations.
	type task struct {
		group int
		chrom string
		out   rows
	}
	tasks := make([]*task, 0, len(order))
	taskIdx := make([][]int, len(order))
	minAccs := make([]int64, len(order))
	maxAccs := make([]int64, len(order))
	for gi, k := range order {
		members := groups[k]
		minAccs[gi] = args.Min.resolve(len(members), true)
		maxAccs[gi] = args.Max.resolve(len(members), false)
		chromSet := make(map[string]bool)
		var chroms []string
		for _, m := range members {
			for _, c := range m.Chroms() {
				if !chromSet[c] {
					chromSet[c] = true
					chroms = append(chroms, c)
				}
			}
		}
		sort.Slice(chroms, func(i, j int) bool { return gdm.CompareChrom(chroms[i], chroms[j]) < 0 })
		for _, c := range chroms {
			taskIdx[gi] = append(taskIdx[gi], len(tasks))
			tasks = append(tasks, &task{group: gi, chrom: c})
		}
	}
	cfg.forEach(len(tasks), func(ti int) {
		tk := tasks[ti]
		members := groups[order[tk.group]]
		// With aggregates, entries index into sources so they can read the
		// contributing regions' rows.
		n := 0
		for _, m := range members {
			lo, hi := m.ChromRange(tk.chrom)
			n += hi - lo
		}
		entries := make([]intervals.Entry, 0, n)
		var sources [][]gdm.Value
		if len(args.Aggs) > 0 {
			sources = make([][]gdm.Value, 0, n)
		}
		var tick int
		for _, m := range members {
			lo, hi := m.ChromRange(tk.chrom)
			for i := lo; i < hi; i++ {
				cfg.tick(&tick)
				r := &m.Regions[i]
				entries = append(entries, intervals.Entry{
					Start: r.Start, Stop: r.Stop, Payload: int32(len(entries))})
				if sources != nil {
					sources = append(sources, m.Values[i*w:])
				}
			}
		}
		intervals.SortEntries(entries)
		segs := intervals.Coverage(entries)
		tk.out = coverRegions(segs, entries, minAccs[tk.group], maxAccs[tk.group], args.Variant)
		if len(args.Aggs) > 0 {
			tk.out.values = coverAggs(tk.out, entries, sources, args.Aggs, aggIdx)
		}
		for i := range tk.out.regions {
			tk.out.regions[i].Chrom = tk.chrom
		}
	})
	cfg.forEach(len(order), func(gi int) {
		members := groups[order[gi]]
		ids := make([]string, len(members))
		for i, m := range members {
			ids[i] = m.ID
		}
		ns := gdm.NewSample(gdm.DeriveID("cover", ids...))
		for _, m := range members {
			m.Meta.MergeInto(ns.Meta, "")
		}
		ns.Meta.Set("_cover", fmt.Sprintf("%s(%s,%s)", args.Variant, args.Min, args.Max))
		body := concatRows(len(taskIdx[gi]), func(i int) *rows { return &tasks[taskIdx[gi][i]].out })
		ns.Regions, ns.Values = body.regions, body.values
		ns.SortRegions()
		outSamples[gi] = ns
	})
	out.Samples = outSamples
	return out, nil
}

// coverAggs returns the output regions' rows extended with aggregates over
// the input regions (rows in sources) intersecting each. Output regions are
// sorted and disjoint (except FLAT, which may overlap after extension), so a
// fresh sweep per output region set is linear in practice.
func coverAggs(out rows, entries []intervals.Entry, sources [][]gdm.Value,
	aggs []expr.Aggregate, aggIdx []int) []gdm.Value {
	outEntries := make([]intervals.Entry, len(out.regions))
	for i, r := range out.regions {
		outEntries[i] = intervals.Entry{Start: r.Start, Stop: r.Stop, Payload: int32(i)}
	}
	intervals.SortEntries(outEntries)
	state := newAggRows(aggs, aggIdx, len(out.regions))
	intervals.SweepOverlaps(outEntries, entries, func(o, e intervals.Entry) bool {
		state.add(int(o.Payload), sources[e.Payload])
		return true
	})
	w := CoverSchema.Len()
	vals := make([]gdm.Value, 0, len(out.regions)*(w+len(aggs)))
	for i := range out.regions {
		vals = append(vals, out.values[i*w:(i+1)*w]...)
		vals = state.appendResults(vals, i)
	}
	return vals
}

// coverRegions turns one chromosome's coverage profile into output regions
// according to the variant, with their acc_index values in one slab. It
// reuses segs' storage. Chrom is filled in by the caller.
func coverRegions(segs []intervals.CoverSegment, entries []intervals.Entry, minAcc, maxAcc int64, variant CoverVariant) rows {
	qualifies := func(d int) bool { return int64(d) >= minAcc && int64(d) <= maxAcc }
	// Filter segs in place into the emitted (start, stop, acc_index)
	// triples. Writes never pass the read position, and a write below it
	// stores the value already there, so the neighbours SUMMIT reads are
	// still the profile's own.
	kept := segs[:0]
	for i, s := range segs {
		if !qualifies(s.Depth) {
			continue
		}
		switch variant {
		case CoverHistogram:
			kept = append(kept, s)
		case CoverSummit:
			// A summit is a qualifying segment whose depth is not exceeded
			// by its contiguous neighbours (plateaus emit once).
			leftLower := i == 0 || segs[i-1].Stop != s.Start || segs[i-1].Depth < s.Depth
			rightLowerOrEqual := i == len(segs)-1 || segs[i+1].Start != s.Stop || segs[i+1].Depth <= s.Depth
			if leftLower && rightLowerOrEqual {
				kept = append(kept, s)
			}
		default:
			// CoverStandard and CoverFlat merge contiguous qualifying
			// segments into runs, tracking the maximum depth.
			if n := len(kept); n > 0 && kept[n-1].Stop == s.Start {
				kept[n-1].Stop = s.Stop
				kept[n-1].Depth = max(kept[n-1].Depth, s.Depth)
			} else {
				kept = append(kept, s)
			}
		}
	}
	if variant == CoverFlat {
		flatExtents(kept, entries)
	}
	out := rows{make([]gdm.Region, len(kept)), make([]gdm.Value, len(kept))}
	for i, k := range kept {
		out.regions[i] = gdm.Region{Start: k.Start, Stop: k.Stop}
		out.values[i] = gdm.Int(int64(k.Depth))
	}
	return out
}

// flatExtents extends each run to the extent of every entry intersecting
// it, in one sweep: runs are disjoint and ascending, entries start-sorted.
// The leftmost intersecting entry is the first whose stop passes the run's
// start (every earlier one ends before this run and every later one), and
// the rightmost stop is the largest among entries starting inside it.
func flatExtents(runs []intervals.CoverSegment, entries []intervals.Entry) {
	first, next := 0, 0
	maxStop := int64(math.MinInt64)
	for i := range runs {
		rn := &runs[i]
		start, stop := rn.Start, rn.Stop
		for first < len(entries) && entries[first].Stop <= start {
			first++
		}
		if first < len(entries) && entries[first].Start < start {
			rn.Start = entries[first].Start
		}
		for ; next < len(entries) && entries[next].Start < stop; next++ {
			maxStop = max(maxStop, entries[next].Stop)
		}
		rn.Stop = max(stop, maxStop)
	}
}
