package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"genogo/internal/expr"
	"genogo/internal/gdm"
)

// sampleTransform is a compiled sample-local operator stage: it maps one
// sample to its output sample, or reports keep=false to drop the sample
// entirely. Stages are pure with respect to their input (they never mutate
// it), which is what makes chains of stages fusable by the stream backend.
type sampleTransform func(s *gdm.Sample) (out *gdm.Sample, keep bool)

// stage couples a compiled transform with the schema of its output.
type stage struct {
	fn     sampleTransform
	schema *gdm.Schema
}

// applyStages runs a dataset through a compiled stage chain, parallelizing
// over samples. This is the shared execution core of the sample-local
// operators: the serial and batch backends call it with one stage per
// operator (materializing in between), the stream backend calls it once
// with the whole fused chain.
func applyStages(cfg Config, ds *gdm.Dataset, name string, stages []stage) *gdm.Dataset {
	if len(stages) == 0 {
		return ds
	}
	out := gdm.NewDataset(name, stages[len(stages)-1].schema)
	results := make([]*gdm.Sample, len(ds.Samples))
	cfg.forEach(len(ds.Samples), func(i int) {
		s := ds.Samples[i]
		for _, st := range stages {
			ns, keep := st.fn(s)
			if !keep {
				return
			}
			s = ns
		}
		results[i] = s
	})
	for _, s := range results {
		if s != nil {
			out.Samples = append(out.Samples, s)
		}
	}
	return out
}

// compileSelect builds the SELECT stage: the metadata predicate drops whole
// samples (the meta-first optimization — no region is touched for pruned
// samples), the region predicate filters regions. Either may be nil.
func compileSelect(cfg Config, schema *gdm.Schema, meta expr.MetaPredicate, region expr.Node) (stage, error) {
	var bound expr.Bound
	if region != nil {
		var err error
		bound, err = region.Bind(schema)
		if err != nil {
			return stage{}, fmt.Errorf("select: %w", err)
		}
	}
	metaFirst := cfg.MetaFirst
	w := schema.Len()
	fn := func(s *gdm.Sample) (*gdm.Sample, bool) {
		if meta != nil && metaFirst && !meta.EvalMeta(s.Meta) {
			return nil, false
		}
		ns := &gdm.Sample{ID: s.ID, Meta: s.Meta.Clone()}
		if bound == nil {
			ns.Regions, ns.Values = s.Regions, s.Values
		} else {
			ns.Regions, ns.Values = keepRows(s, func(ri int) bool {
				return bound.Eval(&s.Regions[ri], s.Values[ri*w:(ri+1)*w]).Bool()
			})
		}
		if meta != nil && !metaFirst && !meta.EvalMeta(ns.Meta) {
			// Ablation path: metadata evaluated after the region work.
			return nil, false
		}
		return ns, true
	}
	return stage{fn: fn, schema: schema}, nil
}

// keptPool recycles the index buffers of keepRows across samples.
var keptPool = sync.Pool{New: func() any { return new([]int32) }}

// keepRows returns the regions of s that keep accepts, with their rows: s's
// own slices when it accepts all, else a gather (nil when none is kept) of
// the indexes collected first, in a pooled buffer.
func keepRows(s *gdm.Sample, keep func(ri int) bool) ([]gdm.Region, []gdm.Value) {
	buf := keptPool.Get().(*[]int32)
	defer keptPool.Put(buf)
	kept := (*buf)[:0]
	for ri := range s.Regions {
		if keep(ri) {
			kept = append(kept, int32(ri))
		}
	}
	*buf = kept
	if len(kept) == len(s.Regions) {
		return s.Regions, s.Values
	}
	return s.Gather(kept)
}

// Select implements GMQL SELECT: the metadata predicate picks samples, the
// region predicate filters regions inside the surviving samples.
func Select(cfg Config, ds *gdm.Dataset, meta expr.MetaPredicate, region expr.Node) (*gdm.Dataset, error) {
	st, err := compileSelect(cfg, ds.Schema, meta, region)
	if err != nil {
		return nil, err
	}
	return applyStages(cfg, ds, ds.Name, []stage{st}), nil
}

// ProjectItem is one output region attribute of PROJECT: either a copy of an
// existing attribute (Expr nil) or a computed expression.
type ProjectItem struct {
	Name string
	Expr expr.Node
}

// ProjectArgs parametrizes PROJECT.
type ProjectArgs struct {
	// Regions lists the output region attributes; nil keeps the schema as is.
	Regions []ProjectItem
	// MetaKeep lists the metadata attributes to retain; nil keeps all.
	MetaKeep []string
}

// compileProject builds the PROJECT stage and its output schema.
func compileProject(schema *gdm.Schema, args ProjectArgs) (stage, error) {
	items := args.Regions
	if items == nil {
		items = make([]ProjectItem, schema.Len())
		for i := 0; i < schema.Len(); i++ {
			items[i] = ProjectItem{Name: schema.Field(i).Name}
		}
	}
	fields := make([]gdm.Field, len(items))
	bounds := make([]expr.Bound, len(items))
	for i, it := range items {
		node := it.Expr
		if node == nil {
			node = expr.Attr{Name: it.Name}
		}
		k, err := expr.InferType(node, schema)
		if err != nil {
			return stage{}, fmt.Errorf("project: %w", err)
		}
		b, err := node.Bind(schema)
		if err != nil {
			return stage{}, fmt.Errorf("project: %w", err)
		}
		fields[i] = gdm.Field{Name: it.Name, Type: k}
		bounds[i] = b
	}
	outSchema, err := gdm.NewSchema(fields...)
	if err != nil {
		return stage{}, fmt.Errorf("project: %w", err)
	}
	w, ow := schema.Len(), len(bounds)
	fn := func(s *gdm.Sample) (*gdm.Sample, bool) {
		// Coordinates are kept, so the output shares the input's Regions.
		ns := &gdm.Sample{ID: s.ID, Regions: s.Regions, Values: make([]gdm.Value, len(s.Regions)*ow)}
		if args.MetaKeep == nil {
			ns.Meta = s.Meta.Clone()
		} else {
			ns.Meta = gdm.NewMetadata()
			for _, attr := range args.MetaKeep {
				for _, v := range s.Meta.Values(attr) {
					ns.Meta.Add(attr, v)
				}
			}
		}
		for ri := range s.Regions {
			row, out := s.Values[ri*w:(ri+1)*w], ns.Values[ri*ow:(ri+1)*ow]
			for vi, b := range bounds {
				v := b.Eval(&s.Regions[ri], row)
				if !v.IsNull() && v.Kind() != fields[vi].Type {
					if cv, err := v.Coerce(fields[vi].Type); err == nil {
						v = cv
					} else {
						v = gdm.Null()
					}
				}
				out[vi] = v
			}
		}
		return ns, true
	}
	return stage{fn: fn, schema: outSchema}, nil
}

// Project implements GMQL PROJECT: it rewrites the variable attributes of
// every region (keeping the fixed coordinate attributes) and optionally
// drops metadata attributes.
func Project(cfg Config, ds *gdm.Dataset, args ProjectArgs) (*gdm.Dataset, error) {
	st, err := compileProject(ds.Schema, args)
	if err != nil {
		return nil, err
	}
	return applyStages(cfg, ds, ds.Name, []stage{st}), nil
}

// compileExtend builds the EXTEND stage: per-sample region aggregates become
// metadata attributes.
func compileExtend(schema *gdm.Schema, aggs []expr.Aggregate) (stage, error) {
	idx, _, err := bindAggs("extend", schema, aggs, nil)
	if err != nil {
		return stage{}, err
	}
	w := schema.Len()
	fn := func(s *gdm.Sample) (*gdm.Sample, bool) {
		ns := &gdm.Sample{ID: s.ID, Meta: s.Meta.Clone(), Regions: s.Regions, Values: s.Values}
		acc := newAggRows(aggs, idx, 1)
		for ri := range s.Regions {
			acc.add(0, s.Values[ri*w:])
		}
		for ai, v := range acc.appendResults(nil, 0) {
			ns.Meta.Set(aggs[ai].Output, v.String())
		}
		return ns, true
	}
	return stage{fn: fn, schema: schema}, nil
}

// Extend implements GMQL EXTEND: region aggregates of each sample become new
// metadata attributes of that sample, bridging the region and metadata
// halves of GDM.
func Extend(cfg Config, ds *gdm.Dataset, aggs []expr.Aggregate) (*gdm.Dataset, error) {
	st, err := compileExtend(ds.Schema, aggs)
	if err != nil {
		return nil, err
	}
	return applyStages(cfg, ds, ds.Name, []stage{st}), nil
}

// groupKey builds the grouping key of a sample from metadata attributes: the
// concatenation of the sorted values of each attribute. Samples missing an
// attribute group under the empty value, following GMQL's permissive joinby.
func groupKey(md *gdm.Metadata, attrs []string) string {
	if len(attrs) == 0 {
		return ""
	}
	parts := make([]string, 0, len(attrs))
	for _, a := range attrs {
		vs := append([]string(nil), md.Values(a)...)
		sort.Strings(vs)
		parts = append(parts, strings.Join(vs, "|"))
	}
	return strings.Join(parts, "\x1f")
}

// Merge implements GMQL MERGE: all samples (or all samples sharing the
// groupBy metadata values) collapse into one sample whose regions are the
// sorted concatenation and whose metadata is the union of the group's.
func Merge(cfg Config, ds *gdm.Dataset, groupBy []string) (*gdm.Dataset, error) {
	groups := make(map[string][]*gdm.Sample)
	var order []string
	for _, s := range ds.Samples {
		k := groupKey(s.Meta, groupBy)
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], s)
	}
	sort.Strings(order)
	// A group is a set of parents, not a sequence: process members in ID
	// order so the derived sample ID, the metadata union and the tie order of
	// coordinate-identical regions are all independent of the catalog's
	// sample order (disk catalogs list samples in filename order, in-memory
	// ones in insertion order).
	for _, members := range groups {
		sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })
	}
	out := gdm.NewDataset(ds.Name, ds.Schema)
	outSamples := make([]*gdm.Sample, len(order))
	cfg.forEach(len(order), func(gi int) {
		members := groups[order[gi]]
		ids := make([]string, len(members))
		for i, m := range members {
			ids[i] = m.ID
		}
		ns := gdm.NewSample(gdm.DeriveID("merge", ids...))
		body := concatRows(len(members), func(i int) *rows { return &rows{members[i].Regions, members[i].Values} })
		ns.Regions, ns.Values = body.regions, body.values
		for _, m := range members {
			m.Meta.MergeInto(ns.Meta, "")
		}
		ns.SortRegions()
		outSamples[gi] = ns
	})
	out.Samples = outSamples
	out.SortRegions()
	return out, nil
}

// GroupArgs parametrizes GROUP.
type GroupArgs struct {
	// By lists the metadata attributes defining the groups.
	By []string
	// MetaAggs computes per-group aggregates over metadata values, added to
	// every sample of the group (e.g. "samples AS COUNTSAMP").
	MetaAggs []expr.Aggregate
	// RegionAggs enables the region side of GROUP: coordinate-identical
	// regions within each sample collapse into one, whose variable
	// attributes are these aggregates over the duplicates (e.g.
	// "n AS COUNT, best AS MIN(p_value)"). When empty, regions pass
	// through unchanged.
	RegionAggs []expr.Aggregate
}

// Group implements GMQL GROUP: samples are grouped by metadata attributes,
// each sample gains a "_group" identifier plus the per-group aggregate
// metadata; with RegionAggs, duplicate regions inside each sample are
// collapsed with aggregates.
func Group(cfg Config, ds *gdm.Dataset, args GroupArgs) (*gdm.Dataset, error) {
	regionIdx, fields, err := bindAggs("group", ds.Schema, args.RegionAggs, nil)
	if err != nil {
		return nil, err
	}
	outSchema := ds.Schema
	if len(fields) > 0 {
		if outSchema, err = gdm.NewSchema(fields...); err != nil {
			return nil, fmt.Errorf("group: %w", err)
		}
	}
	return groupImpl(cfg, ds, args, outSchema, regionIdx)
}

func groupImpl(cfg Config, ds *gdm.Dataset, args GroupArgs, outSchema *gdm.Schema, regionIdx []int) (*gdm.Dataset, error) {
	groups := make(map[string][]*gdm.Sample)
	var order []string
	for _, s := range ds.Samples {
		k := groupKey(s.Meta, args.By)
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], s)
	}
	sort.Strings(order)
	gid := make(map[string]int, len(order))
	for i, k := range order {
		gid[k] = i + 1
	}
	out := gdm.NewDataset(ds.Name, outSchema)
	for _, k := range order {
		members := groups[k]
		aggVals := make([]string, len(args.MetaAggs))
		for ai, a := range args.MetaAggs {
			acc := expr.NewAggState(a.Func, 1)
			for _, m := range members {
				if a.Func == expr.AggCountSamp {
					acc.Add(0, gdm.Null())
					continue
				}
				for _, v := range m.Meta.Values(a.Attr) {
					acc.Add(0, gdm.Str(v))
				}
			}
			aggVals[ai] = acc.Result(0).String()
		}
		for _, m := range members {
			ns := &gdm.Sample{ID: m.ID, Meta: m.Meta.Clone(), Regions: m.Regions, Values: m.Values}
			ns.Meta.Set("_group", strconv.Itoa(gid[k]))
			for ai, a := range args.MetaAggs {
				ns.Meta.Set(a.Output, aggVals[ai])
			}
			if len(args.RegionAggs) > 0 {
				ns.Regions, ns.Values = dedupRegions(m, ds.Schema.Len(), args.RegionAggs, regionIdx)
			}
			out.Samples = append(out.Samples, ns)
		}
	}
	return out, nil
}

// dedupRegions collapses coordinate-identical runs of a canonically sorted
// sample's regions (of arity w), aggregating their variable attributes.
func dedupRegions(s *gdm.Sample, w int, aggs []expr.Aggregate, aggIdx []int) ([]gdm.Region, []gdm.Value) {
	// Row i of the state is output region i; there are at most len(s.Regions).
	state := newAggRows(aggs, aggIdx, len(s.Regions))
	var out []gdm.Region
	for i := range s.Regions {
		if r := &s.Regions[i]; len(out) == 0 || out[len(out)-1] != *r {
			out = append(out, *r)
		}
		state.add(len(out)-1, s.Values[i*w:])
	}
	vals := make([]gdm.Value, 0, len(out)*len(aggs))
	for i := range out {
		vals = state.appendResults(vals, i)
	}
	return out, vals
}

// OrderKey is one metadata sort key of ORDER.
type OrderKey struct {
	Attr string
	Desc bool
}

// OrderArgs parametrizes ORDER.
type OrderArgs struct {
	Keys []OrderKey
	// Top keeps only the first Top samples after sorting; 0 keeps all.
	Top int
	// RegionKeys sorts regions inside every sample by attribute value;
	// combined with RegionTop it keeps each sample's best regions (e.g. the
	// 5 most significant peaks). Kept regions return to canonical
	// coordinate order, preserving the dataset invariant.
	RegionKeys []OrderKey
	// RegionTop keeps only the first RegionTop regions per sample after
	// region ordering; 0 keeps all.
	RegionTop int
}

// Order implements GMQL ORDER over metadata: samples are sorted by the
// metadata keys (numerically when both values parse as numbers), each sample
// gains an "_order" rank, and the TOP clause truncates the result.
func Order(cfg Config, ds *gdm.Dataset, args OrderArgs) (*gdm.Dataset, error) {
	if len(args.Keys) == 0 && len(args.RegionKeys) == 0 {
		return nil, fmt.Errorf("order: no sort keys")
	}
	if len(args.Keys) == 0 {
		// Region-only ordering: keep sample order, rank = input position.
		args.Keys = nil
	}
	regionCmp, err := compileRegionOrder(ds.Schema, args.RegionKeys)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(ds.Samples))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		sa, sb := ds.Samples[idx[a]], ds.Samples[idx[b]]
		for _, k := range args.Keys {
			c := compareMetaValues(sa.Meta.First(k.Attr), sb.Meta.First(k.Attr))
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return sa.ID < sb.ID
	})
	if args.Top > 0 && args.Top < len(idx) {
		idx = idx[:args.Top]
	}
	out := gdm.NewDataset(ds.Name, ds.Schema)
	outSamples := make([]*gdm.Sample, len(idx))
	w := ds.Schema.Len()
	cfg.forEach(len(idx), func(rank int) {
		src := ds.Samples[idx[rank]]
		ns := &gdm.Sample{ID: src.ID, Meta: src.Meta.Clone(), Regions: src.Regions, Values: src.Values}
		ns.Meta.Set("_order", strconv.Itoa(rank+1))
		if regionCmp != nil {
			perm := gdm.Permutation(len(src.Regions), func(a, b int32) int {
				return regionCmp(src.Values[int(a)*w:], src.Values[int(b)*w:])
			})
			if args.RegionTop > 0 && args.RegionTop < len(perm) {
				perm = perm[:args.RegionTop]
			}
			ns.Regions, ns.Values = src.Gather(perm)
			ns.SortRegions() // restore the canonical dataset invariant
		}
		outSamples[rank] = ns
	})
	out.Samples = outSamples
	return out, nil
}

// compileRegionOrder builds a comparison of two regions' rows from value
// keys; nil keys yield a nil comparator.
func compileRegionOrder(schema *gdm.Schema, keys []OrderKey) (func(a, b []gdm.Value) int, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	type keyIdx struct {
		idx  int
		desc bool
	}
	kis := make([]keyIdx, len(keys))
	for i, k := range keys {
		j, ok := schema.Index(k.Attr)
		if !ok {
			return nil, fmt.Errorf("order: unknown region attribute %q in schema %s", k.Attr, schema)
		}
		kis[i] = keyIdx{j, k.Desc}
	}
	return func(a, b []gdm.Value) int {
		for _, k := range kis {
			c := gdm.Compare(a[k.idx], b[k.idx])
			if k.desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	}, nil
}

// compareMetaValues compares metadata values numerically when both parse as
// numbers and lexicographically otherwise; missing values sort first.
func compareMetaValues(a, b string) int {
	if a == b {
		return 0
	}
	if a == "" {
		return -1
	}
	if b == "" {
		return 1
	}
	fa, errA := strconv.ParseFloat(strings.TrimSpace(a), 64)
	fb, errB := strconv.ParseFloat(strings.TrimSpace(b), 64)
	if errA == nil && errB == nil {
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a, b)
}
