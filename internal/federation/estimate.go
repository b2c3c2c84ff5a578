package federation

import (
	"genogo/internal/catalog"
	"genogo/internal/engine"
)

// Estimate is a compile-time prediction of a query result's size — the
// information the paper's protocol returns with a compilation so the
// requester can plan staging resources before launching execution. Bytes is
// in the unit a node stages and serves: the result's wire frame
// (QueryResponse.Bytes).
type Estimate struct {
	Samples int   `json:"samples"`
	Regions int   `json:"regions"`
	Bytes   int64 `json:"bytes"`
}

// The frame-size model that turns a predicted cardinality into Bytes. In a
// frame a region costs its coordinates (a start delta and a length, both
// varints, and a share of the strand column) and one encoded value per
// attribute: a varint int, an 8-byte float, a bool byte, or a string and its
// length. A sample costs its header entry (ID and metadata), its image's
// fixed header, and one index entry per chromosome it spans. The attribute
// figure is the mean over the kinds of the synth ENCODE-like results
// (EXPERIMENTS.md, "Staged frames").
const (
	frameBytesPerRegion    = 3.5
	frameBytesPerAttribute = 7
	frameBytesPerSample    = 150
	frameBytesPerPartition = 47 // index entry and chromosome name
	framePartitionsMax     = 24 // chromosomes a sample spans at most
)

// frameBytes predicts the frame size of a result of the given shape.
func frameBytes(samples, regions, arity int) int64 {
	if samples <= 0 {
		return 0
	}
	parts := min(regions/samples, framePartitionsMax)
	perSample := frameBytesPerSample + frameBytesPerPartition*parts
	return int64(samples*perSample) + int64(float64(regions)*(frameBytesPerRegion+float64(arity)*frameBytesPerAttribute))
}

// Selectivity constants of the estimator. These are the classic
// System-R-style magic numbers: crude, but sufficient for the protocol's
// purpose of sizing staging buffers within an order of magnitude. Zone
// statistics replace them where the plan has the structure for it.
const (
	selMetaPredicate   = 0.5 // fraction of samples surviving a metadata predicate
	selRegionPredicate = 0.3 // fraction of regions surviving a region predicate
	selJoinPerPair     = 2.0 // emitted regions per anchor region per pair
	selDifference      = 0.7
	coverCompression   = 0.4 // cover output regions vs input regions
)

// EstimatePlan predicts the result cardinality of a plan bottom-up from each
// scanned dataset's statistics block (the shape of DirCatalog.Stats), and
// from it and the result's attribute arity the size of the result's frame.
// Unknown datasets contribute zero (the node will fail the query at
// execution time anyway; compile-time estimation stays total).
func EstimatePlan(n engine.Node, stats func(name string) (*catalog.DatasetStats, bool)) Estimate {
	e, arity, _ := estimateNode(n, stats)
	e.Bytes = frameBytes(e.Samples, e.Regions, arity)
	return e
}

// estimateNode returns the cardinality estimate, the region attribute arity
// of the output schema, and the zone statistics still describing the
// flowing data. Zones survive sample-local operators (the coordinate
// distribution is unchanged or narrowed) and die at shape-changing ones.
func estimateNode(n engine.Node, stats func(name string) (*catalog.DatasetStats, bool)) (Estimate, int, *catalog.DatasetStats) {
	switch op := n.(type) {
	case *engine.Scan:
		st, ok := stats(op.Dataset)
		if !ok {
			return Estimate{}, 0, nil
		}
		samples, regions, _ := st.Totals()
		return Estimate{Samples: samples, Regions: regions}, st.AttrArity, st
	case *engine.SelectOp:
		in, arity, zones := estimateNode(op.Input, stats)
		out := in
		if op.Meta != nil {
			out.Samples = scaleInt(in.Samples, selMetaPredicate)
			out.Regions = scaleInt(in.Regions, selMetaPredicate)
		}
		if op.Region != nil {
			scaled := false
			if zones != nil {
				if w, ok := catalog.PredicateWindow(op.Region); ok {
					// Zone-derived selectivity: overlap of the predicate's
					// coordinate window with each partition, in place of the
					// flat constant.
					regions, samples := zones.EstimateSelect(w)
					if op.Meta != nil {
						regions = scaleInt(regions, selMetaPredicate)
						samples = scaleInt(samples, selMetaPredicate)
					}
					out.Regions = regions
					if samples < out.Samples {
						out.Samples = samples
					}
					scaled = true
				}
			}
			if !scaled {
				out.Regions = scaleInt(out.Regions, selRegionPredicate)
			}
		}
		return out, arity, zones
	case *engine.ProjectOp:
		in, arity, zones := estimateNode(op.Input, stats)
		if op.Args.Regions != nil {
			arity = len(op.Args.Regions)
		}
		return in, arity, zones
	case *engine.ExtendOp:
		return estimateNode(op.Input, stats)
	case *engine.MergeOp:
		in, arity, _ := estimateNode(op.Input, stats)
		groups := 1
		if len(op.GroupBy) > 0 && in.Samples > 0 {
			groups = intMax(in.Samples/4, 1)
		}
		return Estimate{Samples: groups, Regions: in.Regions}, arity, nil
	case *engine.GroupOp:
		in, arity, zones := estimateNode(op.Input, stats)
		if len(op.Args.RegionAggs) > 0 {
			arity = len(op.Args.RegionAggs)
		}
		return in, arity, zones
	case *engine.OrderOp:
		in, arity, zones := estimateNode(op.Input, stats)
		if op.Args.Top > 0 && op.Args.Top < in.Samples && in.Samples > 0 {
			perSample := in.Regions / in.Samples
			in.Regions = perSample * op.Args.Top
			in.Samples = op.Args.Top
		}
		return in, arity, zones
	case *engine.UnionOp:
		l, la, _ := estimateNode(op.Left, stats)
		r, ra, _ := estimateNode(op.Right, stats)
		// The union schema is the left one plus the right attributes it
		// lacks; attributes with the same name are shared.
		return Estimate{Samples: l.Samples + r.Samples, Regions: l.Regions + r.Regions},
			intMax(la, ra), nil
	case *engine.DifferenceOp:
		l, la, lz := estimateNode(op.Left, stats)
		return Estimate{Samples: l.Samples, Regions: scaleInt(l.Regions, selDifference)}, la, lz
	case *engine.MapOp:
		ref, ra, _ := estimateNode(op.Ref, stats)
		exp, _, _ := estimateNode(op.Exp, stats)
		pairs := ref.Samples * exp.Samples
		perRefSample := 0
		if ref.Samples > 0 {
			perRefSample = ref.Regions / ref.Samples
		}
		// MAP cardinality law: one sample per pair, each with the reference
		// region count, plus the aggregate columns (a lone COUNT when none
		// is named).
		return Estimate{Samples: pairs, Regions: pairs * perRefSample}, ra + intMax(len(op.Args.Aggs), 1), nil
	case *engine.JoinOp:
		l, la, lz := estimateNode(op.Left, stats)
		r, ra, rz := estimateNode(op.Right, stats)
		pairs := l.Samples * r.Samples
		perLeftSample := 0
		if l.Samples > 0 {
			perLeftSample = l.Regions / l.Samples
		}
		emitted := scaleInt(pairs*perLeftSample, selJoinPerPair)
		if lz != nil && rz != nil {
			// Anchors on chromosomes the experiment side never populates
			// cannot pair; scale by the chromosome-coupling factor.
			emitted = scaleInt(emitted, lz.SharedChromFraction(rz))
		}
		// The output schema is the merge of both sides' schemas.
		return Estimate{Samples: pairs, Regions: emitted}, la + ra, nil
	case *engine.CoverOp:
		in, _, _ := estimateNode(op.Input, stats)
		groups := 1
		if len(op.Args.GroupBy) > 0 && in.Samples > 0 {
			groups = intMax(in.Samples/4, 1)
		}
		// acc_index, then the aggregates.
		return Estimate{Samples: groups, Regions: scaleInt(in.Regions, coverCompression)}, 1 + len(op.Args.Aggs), nil
	default:
		return Estimate{}, 0, nil
	}
}

func scaleInt(n int, f float64) int {
	v := int(float64(n) * f)
	if n > 0 && v == 0 {
		return 1
	}
	return v
}

func intMax(a, b int) int {
	if a > b {
		return a
	}
	return b
}
