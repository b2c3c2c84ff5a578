package engine

import (
	"fmt"

	"genogo/internal/expr"
	"genogo/internal/gdm"
	"genogo/internal/intervals"
)

// MapArgs parametrizes MAP.
type MapArgs struct {
	// Aggs lists the aggregates computed over the experiment regions that
	// intersect each reference region. A plain COUNT ("count AS COUNT") is
	// the canonical use (the paper's headline query).
	Aggs []expr.Aggregate
	// JoinBy restricts the (reference, experiment) sample pairs to those
	// agreeing on these metadata attributes. Empty pairs every reference
	// sample with every experiment sample, the GMQL default.
	JoinBy []string
}

// Map implements GMQL MAP, the operation Fig. 4 of the paper builds genome
// spaces from: for every (reference sample, experiment sample) pair it emits
// one output sample holding all the reference regions, each extended with
// aggregates over the experiment regions intersecting it. Every output sample
// shares its reference sample's Regions; only its value slab is new.
//
// The kernel is strategy-dependent (the sweep-vs-tree ablation):
// with Config.BinWidth <= 0 each chromosome is processed with one sorted
// merge sweep; with BinWidth > 0 reference regions are split into genometric
// bins and probe a static interval tree built over the experiment's
// chromosome, the binned strategy of the distributed GMQL implementations.
func Map(cfg Config, ref, exp *gdm.Dataset, args MapArgs) (*gdm.Dataset, error) {
	aggs := args.Aggs
	if len(aggs) == 0 {
		aggs = []expr.Aggregate{{Output: "count", Func: expr.AggCount}}
	}
	aggIdx, fields, err := bindAggs("map", exp.Schema, aggs, ref.Schema.Fields())
	if err != nil {
		return nil, err
	}
	schema, err := gdm.NewSchema(fields...)
	if err != nil {
		return nil, fmt.Errorf("map: %w", err)
	}

	pairs := pairings(ref, exp, args.JoinBy)
	rw, ew := ref.Schema.Len(), exp.Schema.Len()
	out := gdm.NewDataset(ref.Name, schema)
	outSamples := make([]*gdm.Sample, len(pairs))

	// states[pi] is the pair's aggregate state, one row per reference
	// region. Different chromosomes of one pair touch disjoint rows, so
	// chromosome tasks of the same pair run concurrently without locks.
	states := make([]aggRows, len(pairs))
	type task struct {
		pair int
		cs   chromSpan
	}
	var tasks []task
	var spans []chromSpan
	for pi, p := range pairs {
		states[pi] = newAggRows(aggs, aggIdx, len(p[0].Regions))
		if pi == 0 || p[0] != pairs[pi-1][0] { // pairings lists a reference's partners together
			spans = chromSpans(p[0])
		}
		for _, cs := range spans {
			tasks = append(tasks, task{pair: pi, cs: cs})
		}
	}

	// Phase 1: accumulate, parallel over (pair, chromosome) tasks — both
	// the sample axis and the genomic axis, the two parallelism dimensions
	// of the distributed GMQL implementations.
	cfg.forEach(len(tasks), func(ti int) {
		tk := tasks[ti]
		r, e := pairs[tk.pair][0], pairs[tk.pair][1]
		st := states[tk.pair]
		var tick int
		feed := func(refIdx, expIdx int32) {
			cfg.tick(&tick)
			if r.Regions[refIdx].Strand.Compatible(e.Regions[expIdx].Strand) {
				st.add(int(refIdx), e.Values[int(expIdx)*ew:])
			}
		}
		cs := tk.cs
		elo, ehi := e.ChromRange(cs.chrom)
		if elo == ehi {
			return
		}
		eb := taskEntries(e, elo, ehi)
		defer entryPool.Put(eb)
		if cfg.BinWidth > 0 {
			tree := intervals.BuildTree(*eb)
			for _, bin := range binSpans(r, cs, cfg.BinWidth) {
				for ri := bin.lo; ri < bin.hi; ri++ {
					reg := &r.Regions[ri]
					refIdx := int32(ri)
					tree.Overlapping(reg.Start, reg.Stop, func(en intervals.Entry) bool {
						feed(refIdx, en.Payload)
						return true
					})
				}
			}
		} else {
			rb := taskEntries(r, cs.lo, cs.hi)
			defer entryPool.Put(rb)
			intervals.SweepOverlaps(*rb, *eb,
				func(l, x intervals.Entry) bool {
					feed(l.Payload, x.Payload)
					return true
				})
		}
	})

	// Phase 2: finalize output samples, parallel over pairs: the reference
	// rows, each followed by its aggregates, in one slab per sample.
	w := schema.Len()
	cfg.forEach(len(pairs), func(pi int) {
		r, e := pairs[pi][0], pairs[pi][1]
		vals := make([]gdm.Value, 0, len(r.Regions)*w)
		for ri := range r.Regions {
			vals = append(vals, r.Values[ri*rw:(ri+1)*rw]...)
			vals = states[pi].appendResults(vals, ri)
		}
		outSamples[pi] = &gdm.Sample{
			ID:      gdm.DeriveID("map", r.ID, e.ID),
			Meta:    mergeSampleMeta(r, e),
			Regions: r.Regions,
			Values:  vals,
		}
	})
	out.Samples = outSamples
	return out, nil
}
