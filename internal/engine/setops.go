package engine

import (
	"fmt"

	"genogo/internal/gdm"
	"genogo/internal/intervals"
)

// Union implements GMQL UNION: the result contains every sample of both
// operands. The result schema is the left operand's; right-operand regions
// are re-laid-out onto it by attribute name (unmatched attributes become
// null), realizing GDM schema interoperability. Right sample IDs are
// re-derived when they would collide with a left ID. Left samples are shared
// with the operand, and so are right samples whose layout already is the
// result's; a re-laid-out right sample shares its Regions.
func Union(cfg Config, left, right *gdm.Dataset) (*gdm.Dataset, error) {
	schema, mapping := gdm.UnionSchemas(left.Schema, right.Schema)
	identity := right.Schema.Len() == len(mapping)
	for vi, srcIdx := range mapping {
		identity = identity && srcIdx == vi
	}
	out := gdm.NewDataset(left.Name, schema)
	out.Samples = append(make([]*gdm.Sample, 0, len(left.Samples)+len(right.Samples)), left.Samples...)
	rightOut := right.Samples
	if !identity {
		w, sw := schema.Len(), right.Schema.Len()
		rightOut = make([]*gdm.Sample, len(right.Samples))
		cfg.forEach(len(right.Samples), func(i int) {
			src := right.Samples[i]
			vals := make([]gdm.Value, len(src.Regions)*w) // zero Values are null
			for ri := range src.Regions {
				for vi, srcIdx := range mapping {
					if srcIdx >= 0 {
						vals[ri*w+vi] = src.Values[ri*sw+srcIdx]
					}
				}
			}
			rightOut[i] = &gdm.Sample{ID: src.ID, Meta: src.Meta, Regions: src.Regions, Values: vals}
		})
	}
	seen := make(map[string]bool, cap(out.Samples))
	for _, s := range left.Samples {
		seen[s.ID] = true
	}
	for _, s := range rightOut {
		if seen[s.ID] {
			// The rename needs its own header; metadata and regions stay
			// shared. The left side may hold the derived ID already (it is
			// itself a union that renamed this ID), so derive until unused.
			id := gdm.DeriveID("union", s.ID, "right")
			for seen[id] {
				id = gdm.DeriveID("union", id, "right")
			}
			s = &gdm.Sample{ID: id, Meta: s.Meta, Regions: s.Regions, Values: s.Values}
		}
		seen[s.ID] = true
		out.Samples = append(out.Samples, s)
	}
	return out, nil
}

// DifferenceArgs parametrizes DIFFERENCE.
type DifferenceArgs struct {
	// JoinBy restricts which right samples count against each left sample:
	// only samples agreeing on these metadata attributes. Empty means all.
	JoinBy []string
	// Exact removes only coordinate-identical regions instead of any
	// overlapping region.
	Exact bool
}

// Difference implements GMQL DIFFERENCE: for every left sample, it removes
// the regions that intersect (or exactly equal, with Exact) at least one
// region of the matching right samples. Left metadata and IDs are preserved;
// a sample that loses no region shares its Regions and Values.
func Difference(cfg Config, left, right *gdm.Dataset, args DifferenceArgs) (*gdm.Dataset, error) {
	// Partition right samples by join key once.
	rightGroups := make(map[string][]*gdm.Sample)
	for _, s := range right.Samples {
		k := groupKey(s.Meta, args.JoinBy)
		rightGroups[k] = append(rightGroups[k], s)
	}
	out := gdm.NewDataset(left.Name, left.Schema)
	outSamples := make([]*gdm.Sample, len(left.Samples))
	cfg.forEach(len(left.Samples), func(i int) {
		src := left.Samples[i]
		negatives := rightGroups[groupKey(src.Meta, args.JoinBy)]
		drop := make([]bool, len(src.Regions))
		var tick int
		for _, cs := range chromSpans(src) {
			lb := taskEntries(src, cs.lo, cs.hi)
			for _, neg := range negatives {
				nlo, nhi := neg.ChromRange(cs.chrom)
				if nlo == nhi {
					continue
				}
				nb := taskEntries(neg, nlo, nhi)
				intervals.SweepOverlaps(*lb, *nb, func(l, r intervals.Entry) bool {
					cfg.tick(&tick)
					lr := &src.Regions[l.Payload]
					rr := &neg.Regions[r.Payload]
					if !lr.Strand.Compatible(rr.Strand) {
						return true
					}
					if args.Exact {
						if lr.Start == rr.Start && lr.Stop == rr.Stop {
							drop[l.Payload] = true
						}
						return true
					}
					drop[l.Payload] = true
					return true
				})
				entryPool.Put(nb)
			}
			entryPool.Put(lb)
		}
		ns := &gdm.Sample{ID: src.ID, Meta: src.Meta.Clone()}
		ns.Regions, ns.Values = keepRows(src, func(ri int) bool { return !drop[ri] })
		outSamples[i] = ns
	})
	out.Samples = outSamples
	return out, nil
}

// pairings enumerates the (left, right) sample pairs that agree on the
// joinBy metadata attributes (every pair when joinBy is empty), in
// deterministic order.
func pairings(left, right *gdm.Dataset, joinBy []string) [][2]*gdm.Sample {
	rightGroups := make(map[string][]*gdm.Sample)
	for _, s := range right.Samples {
		rightGroups[groupKey(s.Meta, joinBy)] = append(rightGroups[groupKey(s.Meta, joinBy)], s)
	}
	var out [][2]*gdm.Sample
	for _, l := range left.Samples {
		for _, r := range rightGroups[groupKey(l.Meta, joinBy)] {
			out = append(out, [2]*gdm.Sample{l, r})
		}
	}
	return out
}

// mergeSampleMeta builds the metadata of a binary-operator result sample:
// left attributes prefixed "left.", right attributes prefixed "right." —
// the provenance tracing the paper calls out ("knowing why resulting
// regions were produced").
func mergeSampleMeta(l, r *gdm.Sample) *gdm.Metadata {
	md := gdm.NewMetadata()
	l.Meta.MergeInto(md, "left")
	r.Meta.MergeInto(md, "right")
	return md
}

// mergeSchemas validates a binary operator's schema merge. Merges are
// checked by the compiler before execution, so a failure here is an engine
// bug — but it surfaces as a query error, failing the query instead of the
// process.
func mergeSchemas(left, right *gdm.Schema, tag string) (gdm.MergedSchema, error) {
	m, err := gdm.MergeSchemas(left, right, tag)
	if err != nil {
		return gdm.MergedSchema{}, fmt.Errorf("engine: schema merge invariant violated: %w", err)
	}
	return m, nil
}
