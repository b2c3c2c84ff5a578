package engine

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"genogo/internal/gdm"
	"genogo/internal/intervals"
)

// DistOp is a genometric distance comparison operator.
type DistOp uint8

// Distance condition operators: DLE (<=), DL (<), DGE (>=), DG (>).
const (
	DistLE DistOp = iota
	DistLT
	DistGE
	DistGT
)

// String renders the GMQL keyword.
func (op DistOp) String() string {
	switch op {
	case DistLE:
		return "DLE"
	case DistLT:
		return "DL"
	case DistGE:
		return "DGE"
	case DistGT:
		return "DG"
	default:
		return fmt.Sprintf("DIST(%d)", uint8(op))
	}
}

// DistCond is one atomic distance condition, e.g. DLE(1000).
type DistCond struct {
	Op   DistOp
	Dist int64
}

func (c DistCond) holds(d int64) bool {
	switch c.Op {
	case DistLE:
		return d <= c.Dist
	case DistLT:
		return d < c.Dist
	case DistGE:
		return d >= c.Dist
	case DistGT:
		return d > c.Dist
	default:
		return false
	}
}

// StreamDir restricts the experiment region's position relative to the
// anchor region's strand (GMQL UPSTREAM/DOWNSTREAM clauses).
type StreamDir uint8

// Stream directions.
const (
	StreamNone StreamDir = iota
	StreamUp
	StreamDown
)

// GenometricPred is the conjunction of genometric clauses of a JOIN:
// distance conditions, an optional minimum-distance clause MD(k) selecting
// the k nearest experiment regions per anchor, and an optional
// upstream/downstream restriction.
type GenometricPred struct {
	Conds    []DistCond
	MinDistK int // MD(k); 0 disables
	Stream   StreamDir
}

// upperBound extracts the tightest "distance <= b" bound implied by the
// conditions; ok is false when no upper bound exists.
func (p GenometricPred) upperBound() (int64, bool) {
	bound := int64(math.MaxInt64)
	ok := false
	for _, c := range p.Conds {
		switch c.Op {
		case DistLE:
			if c.Dist < bound {
				bound = c.Dist
			}
			ok = true
		case DistLT:
			if d := satSub(c.Dist, 1); d < bound {
				bound = d
			}
			ok = true
		}
	}
	return bound, ok
}

func (p GenometricPred) holds(d int64) bool {
	for _, c := range p.Conds {
		if !c.holds(d) {
			return false
		}
	}
	return true
}

// JoinOutput selects the coordinates of the regions a genometric JOIN emits.
type JoinOutput uint8

// Join output modes.
const (
	// OutInt emits the intersection of the pair (overlapping pairs only).
	OutInt JoinOutput = iota
	// OutLeft emits the anchor region's coordinates.
	OutLeft
	// OutRight emits the experiment region's coordinates.
	OutRight
	// OutCat emits the contig: from the leftmost start to the rightmost stop.
	OutCat
)

// String renders the GMQL keyword.
func (o JoinOutput) String() string {
	switch o {
	case OutInt:
		return "INT"
	case OutLeft:
		return "LEFT"
	case OutRight:
		return "RIGHT"
	case OutCat:
		return "CAT"
	default:
		return fmt.Sprintf("OUT(%d)", uint8(o))
	}
}

// JoinArgs parametrizes a genometric JOIN.
type JoinArgs struct {
	Pred   GenometricPred
	Output JoinOutput
	JoinBy []string
}

// Join implements GMQL GENOMETRIC JOIN: for every (anchor, experiment)
// sample pair it emits one output sample containing a region for each
// region pair that satisfies the genometric predicate. The output schema is
// the GDM merge of the operand schemas (anchor attributes first).
func Join(cfg Config, left, right *gdm.Dataset, args JoinArgs) (*gdm.Dataset, error) {
	merged, err := mergeSchemas(left.Schema, right.Schema, "right")
	if err != nil {
		return nil, err
	}
	pairs := pairings(left, right, args.JoinBy)
	lw, rw := left.Schema.Len(), right.Schema.Len()
	out := gdm.NewDataset(left.Name, merged.Schema)
	outSamples := make([]*gdm.Sample, len(pairs))

	// Tasks span both parallelism axes: (sample pair, anchor chromosome).
	// Each task collects its joining (anchor, experiment) index pairs and
	// stably sorts them into output order itself. Tasks run in the anchor's
	// canonical chromosome order and every output region's chromosome
	// compares equal to its anchor's, so a pair's tasks in order are already
	// canonical, and equal regions keep the order a stable sort of the
	// unsorted concatenation would give them. Then each pair's sample is
	// allocated at its exact size, and its tasks fill their windows of it.
	type task struct {
		pair int
		cs   chromSpan
		hits [][2]int32 // in output order
		at   int        // index of the task's first region in its pair's sample
	}
	tasks := make([]*task, 0, len(pairs))
	taskIdx := make([][]int, len(pairs))
	for pi, p := range pairs {
		for _, cs := range chromSpans(p[0]) {
			taskIdx[pi] = append(taskIdx[pi], len(tasks))
			tasks = append(tasks, &task{pair: pi, cs: cs})
		}
	}
	cfg.forEach(len(tasks), func(ti int) {
		tk := tasks[ti]
		l, r := pairs[tk.pair][0], pairs[tk.pair][1]
		cs := tk.cs
		rlo, rhi := r.ChromRange(cs.chrom)
		if rlo == rhi {
			return
		}
		rb := taskEntries(r, rlo, rhi)
		defer entryPool.Put(rb)
		rightEntries := *rb
		var maxRightLen int64
		for _, e := range rightEntries {
			if ln := e.Stop - e.Start; ln > maxRightLen {
				maxRightLen = ln
			}
		}
		js := joinScratchPool.Get().(*joinScratch)
		defer joinScratchPool.Put(js)
		hits := js.hits[:0]
		var tick int
		for li := cs.lo; li < cs.hi; li++ {
			cfg.tick(&tick)
			anchor := &l.Regions[li]
			for _, ri := range js.candidates(args.Pred, anchor, rightEntries, maxRightLen) {
				er := &r.Regions[ri]
				if !args.Stream(anchor, er) && args.Output.emits(anchor, er) {
					hits = append(hits, [2]int32{int32(li), ri})
				}
			}
		}
		// The sort orders a permutation of the hits by their output
		// regions, built in a pooled buffer.
		regions := js.regions[:0]
		for _, h := range hits {
			regions = append(regions, joinOutputRegion(args.Output, &l.Regions[h[0]], &r.Regions[h[1]]))
		}
		tk.hits = slices.Clone(hits)
		if perm := gdm.SortOrder(regions); perm != nil {
			for i, p := range perm {
				tk.hits[i] = hits[p]
			}
		}
		js.hits, js.regions = hits, regions
	})
	w := merged.Schema.Len()
	cfg.forEach(len(pairs), func(pi int) {
		n := 0
		for _, ti := range taskIdx[pi] {
			tasks[ti].at, n = n, n+len(tasks[ti].hits)
		}
		l, r := pairs[pi][0], pairs[pi][1]
		outSamples[pi] = &gdm.Sample{
			ID:      gdm.DeriveID("join", l.ID, r.ID),
			Meta:    mergeSampleMeta(l, r),
			Regions: make([]gdm.Region, n),
			Values:  make([]gdm.Value, n*w),
		}
	})
	cfg.forEach(len(tasks), func(ti int) {
		tk := tasks[ti]
		l, r, s := pairs[tk.pair][0], pairs[tk.pair][1], outSamples[tk.pair]
		for i, h := range tk.hits {
			s.Regions[tk.at+i] = joinOutputRegion(args.Output, &l.Regions[h[0]], &r.Regions[h[1]])
			row := s.Values[(tk.at+i)*w : (tk.at+i+1)*w]
			copy(row, l.Values[int(h[0])*lw:int(h[0]+1)*lw])
			copy(row[lw:], r.Values[int(h[1])*rw:int(h[1]+1)*rw])
		}
	})
	out.Samples = outSamples
	return out, nil
}

// Stream reports whether the experiment region must be SKIPPED under the
// stream clause (it is on the wrong side of the anchor).
func (a JoinArgs) Stream(anchor, exp *gdm.Region) bool {
	switch a.Pred.Stream {
	case StreamUp:
		return !anchor.Upstream(*exp)
	case StreamDown:
		return !anchor.Downstream(*exp)
	default:
		return false
	}
}

// joinScratch holds a task's working buffers: the candidates of one
// anchor, MD(k)'s neighbours, the task's joining (anchor, experiment) index
// pairs and their output regions. Tasks take them from joinScratchPool.
type joinScratch struct {
	cands   []int32
	near    []intervals.Neighbor
	hits    [][2]int32
	regions []gdm.Region
}

var joinScratchPool = sync.Pool{New: func() any { return new(joinScratch) }}

// candidates returns the payloads (experiment region indexes, ascending) of
// the entries satisfying the distance conditions for one anchor, applying
// MD(k) when present, in a buffer reused by the next call. MD(k) is computed
// over all same-chromosome experiment regions, then intersected with the
// distance conditions, per GMQL semantics.
func (js *joinScratch) candidates(pred GenometricPred, anchor *gdm.Region, rightEntries []intervals.Entry, maxRightLen int64) []int32 {
	js.cands = js.cands[:0]
	if pred.MinDistK > 0 {
		js.near = intervals.Nearest(js.near, rightEntries, maxRightLen, anchor.Start, anchor.Stop, pred.MinDistK)
		for _, nb := range js.near {
			if pred.holds(nb.Dist) {
				js.cands = append(js.cands, rightEntries[nb.Index].Payload)
			}
		}
		slices.Sort(js.cands)
		return js.cands
	}
	lo, hi := 0, len(rightEntries)
	if bound, ok := pred.upperBound(); ok {
		// Entries are start-sorted. Anything starting beyond
		// anchor.Stop+bound is too far to the right; anything whose stop is
		// before anchor.Start-bound is too far to the left, and with starts
		// at least Start-maxRightLen away that gives a left cut too. The
		// window saturates, so a huge bound spans the whole chromosome.
		right := satAdd(anchor.Stop, bound)
		left := satSub(satSub(anchor.Start, bound), maxRightLen)
		hi = sort.Search(hi, func(i int) bool { return rightEntries[i].Start > right })
		lo = sort.Search(hi, func(i int) bool { return rightEntries[i].Start >= left })
	}
	// Without an upper bound this scans the chromosome (the documented
	// O(n·m) fallback; the compiler warns about unbounded genometric joins).
	for _, e := range rightEntries[lo:hi] {
		if pred.holds(intervals.Distance(anchor.Start, anchor.Stop, e.Start, e.Stop)) {
			js.cands = append(js.cands, e.Payload)
		}
	}
	return js.cands
}

// emits reports whether a pair that satisfies the genometric predicate
// produces an output region: INT needs the two regions to overlap.
func (o JoinOutput) emits(anchor, exp *gdm.Region) bool {
	switch o {
	case OutInt:
		return anchor.Overlaps(*exp)
	case OutLeft, OutRight, OutCat:
		return true
	default:
		return false
	}
}

// joinOutputRegion builds the emitted region's coordinates for a pair that
// emits.
func joinOutputRegion(mode JoinOutput, anchor, exp *gdm.Region) gdm.Region {
	strand := anchor.Strand
	if strand == gdm.StrandNone {
		strand = exp.Strand
	} else if exp.Strand != gdm.StrandNone && exp.Strand != strand {
		strand = gdm.StrandNone
	}
	switch mode {
	case OutInt:
		return gdm.Region{Chrom: anchor.Chrom, Start: max(anchor.Start, exp.Start), Stop: min(anchor.Stop, exp.Stop), Strand: strand}
	case OutLeft:
		return gdm.Region{Chrom: anchor.Chrom, Start: anchor.Start, Stop: anchor.Stop, Strand: anchor.Strand}
	case OutRight:
		return gdm.Region{Chrom: exp.Chrom, Start: exp.Start, Stop: exp.Stop, Strand: exp.Strand}
	default: // OutCat
		return gdm.Region{Chrom: anchor.Chrom, Start: min(anchor.Start, exp.Start), Stop: max(anchor.Stop, exp.Stop), Strand: strand}
	}
}
