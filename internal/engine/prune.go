package engine

import (
	"math"
	"time"

	"genogo/internal/catalog"
	"genogo/internal/gdm"
	"genogo/internal/obs"
)

// Pruning: what provably contributes no output need not be read. Each
// pruning operator — SELECT, MAP, JOIN — derives one proof, a catalog.Keep
// with two halves: the sample half (SELECT only) rejects samples its
// metadata predicate drops, and the partition half (selectKeep, mapKeep,
// joinKeep) rejects (sample, chromosome) partitions by zone window. That one
// proof has two uses:
//
//   - Before the read: an input that is a Scan on a PrunedCatalog (pruning
//     not disabled) loads through ReadPruned. Rejected samples' images are
//     never opened and rejected partitions are never read — for members
//     their bytes stay on disk. The scan's span records skipped=.
//   - After the read: any other input, on traced runs, is counted — what the
//     proof rejects of the materialized input is what a pruned read would
//     have skipped. The operator's span records prunable=, which the cost
//     registry and the genogo_prune_* counters fold in.
//
// So prunable= on an in-memory catalog (or under DisablePruning) equals
// skipped= on a pruning one, bar the JOIN-of-two-scans case zonePair notes.
// An operator with a pruned input reports no prunable=: the opportunity was
// taken, not missed.
//
// Soundness rests on two facts: a skipped partition provably contributes
// zero regions to the operator's output, and a pruned read keeps every
// sample the operator itself keeps (possibly region-empty) — it leaves out
// only samples the SELECT reading it would drop anyway, by the same
// metadata predicate — so sample-level semantics (meta filters, sample
// pairing, zero-count MAP rows) are untouched. Pruned scan results are
// query-specific subsets, so they are deliberately kept out of the session's
// plan-node result cache: another consumer of the same Scan node still gets
// the full dataset.

// keepFunc reports whether a partition on chrom with zone window
// [minStart, maxStop) could contribute output.
type keepFunc = func(chrom string, minStart, maxStop int64) bool

// zonePart is one (sample, chromosome) partition with its zone extents: the
// in-memory equivalent of one catalog ChromStats cell.
type zonePart struct {
	chrom    string
	regions  int
	minStart int64
	maxStop  int64
}

// sampleParts appends a sample's partitions to out. Samples are canonically
// sorted by (chrom, start, stop), so minStart is the run's first region;
// maxStop needs the scan (a long region can start early and end last).
func sampleParts(out []zonePart, s *gdm.Sample) []zonePart {
	for _, cs := range chromSpans(s) {
		p := zonePart{
			chrom: cs.chrom, regions: cs.hi - cs.lo,
			minStart: s.Regions[cs.lo].Start, maxStop: s.Regions[cs.lo].Stop,
		}
		for i := cs.lo + 1; i < cs.hi; i++ {
			if s.Regions[i].Stop > p.maxStop {
				p.maxStop = s.Regions[i].Stop
			}
		}
		out = append(out, p)
	}
	return out
}

// zoneParts enumerates a dataset's partitions.
func zoneParts(ds *gdm.Dataset) []zonePart {
	var out []zonePart
	for _, s := range ds.Samples {
		out = sampleParts(out, s)
	}
	return out
}

// chromExtent is the union of every partition window on one chromosome.
type chromExtent struct {
	minStart int64
	maxStop  int64
}

// extents is a dataset's zone view per chromosome.
type extents map[string]chromExtent

func (x extents) add(chrom string, minStart, maxStop int64) {
	e, ok := x[chrom]
	if !ok {
		x[chrom] = chromExtent{minStart, maxStop}
		return
	}
	x[chrom] = chromExtent{min(e.minStart, minStart), max(e.maxStop, maxStop)}
}

// chromExtents folds materialized partitions into extents.
func chromExtents(parts []zonePart) extents {
	x := make(extents)
	for _, p := range parts {
		x.add(p.chrom, p.minStart, p.maxStop)
	}
	return x
}

// statsExtents folds a stats block into extents — the zone view of
// a dataset that has not been loaded.
func statsExtents(st *catalog.DatasetStats) extents {
	x := make(extents)
	for i := range st.Samples {
		for _, cs := range st.Samples[i].Chroms {
			x.add(cs.Chrom, cs.MinStart, cs.MaxStop)
		}
	}
	return x
}

// selectKeep is SELECT's proof. Its sample half is the metadata predicate,
// when it alone decides which samples survive: without a semijoin, whose key
// set exists only once its external dataset has been evaluated. Its
// partition half rejects partitions the region predicate's zone window
// clears, which hold only rejected regions. ok is false when neither half
// has anything to prove.
func selectKeep(sel *SelectOp) (k catalog.Keep, ok bool) {
	if sel == nil {
		return k, false
	}
	if sel.Meta != nil && sel.SemiJoin == nil {
		k.Sample = sel.Meta.EvalMeta
	}
	if sel.Region != nil {
		if w, ok := catalog.PredicateWindow(sel.Region); ok {
			k.Part = func(chrom string, minStart, maxStop int64) bool {
				return !w.Prunes(chrom, minStart, maxStop)
			}
		}
	}
	return k, k.Sample != nil || k.Part != nil
}

// mapKeep is MAP's proof for the experiment side: keep a partition that
// overlaps some reference extent. Reference regions are always emitted (a
// zero count is still a row), so a non-overlapping experiment partition can
// only contribute zero counts.
func mapKeep(ref extents) keepFunc {
	return func(chrom string, minStart, maxStop int64) bool {
		e, ok := ref[chrom]
		return ok && minStart < e.maxStop && maxStop > e.minStart
	}
}

// joinKeep is JOIN's proof for either side: keep a partition that could pair
// with the other side — its chromosome must appear there, and under a
// distance upper bound (DLE/DL clauses) its window must lie within the bound
// of the other side's whole-chromosome extent. MD(k) and stream clauses only
// narrow further, so ignoring them stays sound.
func joinKeep(pred GenometricPred) func(other extents) keepFunc {
	return func(other extents) keepFunc {
		bound, hasBound := pred.upperBound()
		return func(chrom string, minStart, maxStop int64) bool {
			e, ok := other[chrom]
			if !ok {
				return false
			}
			return !hasBound || (minStart <= satAdd(e.maxStop, bound) && maxStop >= satSub(e.minStart, bound))
		}
	}
}

// prunable accumulates the after-read use of proofs over one operator's
// inputs, counting what a pruned read would skip: samples by metadata, then
// the other samples' partitions by zone window.
type prunable struct {
	samples, consulted, parts int
	regions                   int64
}

func (c *prunable) count(ds *gdm.Dataset, keep catalog.Keep) {
	var parts []zonePart
	for _, s := range ds.Samples {
		if !keep.KeepsSample(s.Meta) {
			c.samples++
			continue
		}
		if keep.Part == nil {
			continue // a proof without a partition half consults none
		}
		parts = sampleParts(parts[:0], s)
		c.countParts(parts, keep.Part)
	}
}

// countParts is count's partition half over partitions already derived.
func (c *prunable) countParts(parts []zonePart, keep keepFunc) {
	for _, p := range parts {
		c.consulted++
		if !keep(p.chrom, p.minStart, p.maxStop) {
			c.parts++
			c.regions += int64(p.regions)
		}
	}
}

func (c *prunable) record(sp *obs.Span) {
	if c.consulted > 0 || c.samples > 0 {
		sp.SetPrunable(c.samples, c.consulted, c.parts, c.regions)
	}
}

// pruneTarget returns n when it is a Scan the catalog can read pruned.
func (e *evaluator) pruneTarget(n Node) *Scan {
	if scan, ok := n.(*Scan); ok && e.pc != nil {
		return scan
	}
	return nil
}

// prunedScan is the before-read use of a proof: it loads scan skipping
// everything keep rejects, recording the skip accounting on csp (the scan's
// attached span; nil when untraced).
func (e *evaluator) prunedScan(scan *Scan, csp *obs.Span, keep catalog.Keep) (*gdm.Dataset, error) {
	start := time.Now()
	ds, st, err := e.pc.ReadPruned(scan.Dataset, keep)
	if err != nil {
		return nil, err
	}
	if csp != nil {
		csp.SetSkipped(st.SkippedSamples, st.Parts, st.SkippedParts, st.SkippedRegions)
		finishSpan(csp, e.cfg, ds, start)
	}
	return ds, nil
}

// selectInput loads the input of SELECT sel — for a fused chain, the source
// of the innermost SELECT, nil when the chain has none (neither metadata nor
// zone windows say anything about intermediate results) — under sel's proof.
// sp is the SELECT's (or chain head's) span. Every skipped sample is one sel
// drops and every skipped partition holds only rejected regions, so the
// SELECT output is identical to the unpruned path's, which also makes caching
// it under the SELECT node safe.
func (e *evaluator) selectInput(in Node, sel *SelectOp, sp *obs.Span) (*gdm.Dataset, error) {
	scan := e.pruneTarget(in)
	if scan == nil && sp == nil {
		return e.eval(in, nil)
	}
	keep, ok := selectKeep(sel)
	if !ok {
		return e.evalChild(in, sp)
	}
	if scan != nil {
		return e.prunedScan(scan, e.childSpan(sp, in), keep)
	}
	ds, err := e.evalChild(in, sp)
	if err != nil {
		return nil, err
	}
	var c prunable
	c.count(ds, keep)
	c.record(sp)
	return ds, nil
}

// zonePair loads the inputs of a binary pruning operator under its zone
// proof: keepL and keepR derive each side's keep function from the other
// side's extents (nil: the side is never pruned, like MAP's reference).
// MAP and JOIN keep every sample, so their proofs have no sample half.
//
// Without a prunable Scan input both sides evaluate as evalPair does and,
// when traced, are counted. Otherwise evaluation is sequential — a pruned
// side's keep function needs the other side first. A lone Scan side prunes
// against the materialized other side. When both sides are Scans (JOIN), the
// left prunes against the right's manifest stats (no region data read at
// all), then the right prunes against the materialized — already pruned —
// left: a left partition removed by the stats could pair with no right
// region anyway, so the narrowed extents cannot over-prune the right. They
// can prune more than the after-read count, which sees the whole left, so
// there the right side's skipped= may exceed its prunable=.
func (e *evaluator) zonePair(left, right Node, sp *obs.Span, keepL, keepR func(other extents) keepFunc) (l, r *gdm.Dataset, err error) {
	var lscan, rscan *Scan
	if keepL != nil {
		lscan = e.pruneTarget(left)
	}
	if keepR != nil {
		rscan = e.pruneTarget(right)
	}
	if lscan == nil && rscan == nil {
		if l, r, err = e.evalPair(left, right, sp); err != nil || sp == nil {
			return l, r, err
		}
		// Each side's partitions are derived once, for the other side's
		// extents and for its own count.
		lp, rp := zoneParts(l), zoneParts(r)
		var c prunable
		if keepL != nil {
			c.countParts(lp, keepL(chromExtents(rp)))
		}
		if keepR != nil {
			c.countParts(rp, keepR(chromExtents(lp)))
		}
		c.record(sp)
		return l, r, nil
	}
	lsp, rsp := e.childSpan(sp, left), e.childSpan(sp, right)
	switch {
	case lscan != nil && rscan != nil:
		if st, ok := e.pc.Stats(rscan.Dataset); ok {
			l, err = e.prunedScan(lscan, lsp, catalog.Keep{Part: keepL(statsExtents(st))})
		} else {
			l, err = e.eval(left, lsp)
		}
		if err == nil {
			r, err = e.prunedScan(rscan, rsp, catalog.Keep{Part: keepR(chromExtents(zoneParts(l)))})
		}
	case lscan != nil:
		if r, err = e.eval(right, rsp); err == nil {
			l, err = e.prunedScan(lscan, lsp, catalog.Keep{Part: keepL(chromExtents(zoneParts(r)))})
		}
	default:
		if l, err = e.eval(left, lsp); err == nil {
			r, err = e.prunedScan(rscan, rsp, catalog.Keep{Part: keepR(chromExtents(zoneParts(l)))})
		}
	}
	return l, r, err
}

// satAdd and satSub clamp at the int64 limits instead of wrapping, so a
// window built from a user's distance bound never turns inside out.
func satAdd(a, b int64) int64 {
	if s := a + b; (s > a) == (b > 0) {
		return s
	}
	if b > 0 {
		return math.MaxInt64
	}
	return math.MinInt64
}

func satSub(a, b int64) int64 {
	if s := a - b; (s < a) == (b > 0) {
		return s
	}
	if b > 0 {
		return math.MinInt64
	}
	return math.MaxInt64
}
