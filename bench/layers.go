package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"time"

	"genogo/internal/catalog"
	"genogo/internal/engine"
	"genogo/internal/formats"
	"genogo/internal/gdm"
	"genogo/internal/gmql"
	"genogo/internal/intervals"
	"genogo/internal/obs"
)

// stageSamples collects, per stage name, one value per repetition.
type stageSamples map[string][]float64

func (s stageSamples) add(name string, v float64) { s[name] = append(s[name], v) }

// medians reduces every stage to its median.
func (s stageSamples) medians() map[string]float64 {
	out := make(map[string]float64, len(s))
	for name, v := range s {
		out[name] = median(v)
	}
	return out
}

// replayer re-runs the stages of one query through the public functions of
// each layer, on the inputs the traced op used. Every call is a span, and
// the medians over the repetitions are the per-layer metrics.
type replayer struct {
	tr     *tracer
	parent int // the replay root span
	op     int // op_id the stage spans carry: the query's index
	cfg    engine.Config
	cat    engine.MapCatalog
	q      *query
	out    stageSamples
	// cold, when set, adds the stages only batch_cold's op has.
	cold *coldStages
}

// coldStages replays what a gmql process does around the evaluation. The
// process start and the repository load of a fresh process are timed through
// the binary's own -explain flag, which parses the script and loads the whole
// repository, then prints the plan and exits. The durable columnar write of
// the result goes into a fresh subdirectory of writeDir per repetition, which
// stays until exit (see batchRig).
type coldStages struct {
	gmql, repo, script, writeDir string
	writes                       int
}

// timed records one stage repetition in milliseconds.
func (r *replayer) timed(name string, fn func()) {
	r.out.add(name, ms(r.tr.time(name, r.parent, r.op, fn)))
}

// counted is timed plus the heap allocations made while fn ran. The
// process is otherwise idle during a replay, so the process-wide counters
// belong to fn.
func (r *replayer) counted(name string, fn func()) obs.ResUsage {
	before := obs.ReadRes()
	r.timed(name, fn)
	return obs.ReadRes().Sub(before)
}

// once runs every stage of the query one time.
func (r *replayer) once() error {
	var prog *gmql.Program
	var err error
	r.timed("gmql.parse", func() { prog, err = gmql.Parse(r.q.script) })
	if err != nil {
		return err
	}
	var plan engine.Node
	r.timed("gmql.plan", func() { plan = prog.Plan(resultVar) })
	r.timed("engine.optimize", func() { plan = engine.Optimize(plan) })

	// eval is the evaluation as gmqld and gmql run it: plan, optimize,
	// execute, then the Clone and re-sort that publish the result.
	eval := func(name string, cfg engine.Config) (ds *gdm.Dataset, res obs.ResUsage, err error) {
		res = r.counted(name, func() {
			ds, err = (&gmql.Runner{Config: cfg, Catalog: r.cat}).Eval(prog, resultVar)
		})
		return ds, res, err
	}
	result, res, err := eval("engine.eval", r.cfg)
	if err != nil {
		return err
	}
	r.out.add("engine.eval_allocs", float64(res.AllocObjs))
	r.out.add("engine.eval_alloc_bytes", float64(res.AllocBytes))
	r.out.add("engine.regions_out", float64(result.NumRegions()))
	if _, _, err := eval("engine.eval_serial", serialConfig); err != nil {
		return err
	}
	batch := r.cfg
	batch.Mode = engine.ModeBatch
	if _, _, err := eval("engine.eval_batch", batch); err != nil {
		return err
	}
	r.timed("engine.session_eval", func() { _, err = engine.NewSession(r.cfg, r.cat).Eval(plan) })
	if err != nil {
		return err
	}
	r.timed("engine.eval_profiled", func() {
		_, _, err = (&gmql.Runner{Config: r.cfg, Catalog: r.cat}).EvalProfiled(prog, resultVar)
	})
	if err != nil {
		return err
	}

	r.timed("gdm.clone", func() { _ = result.Clone() })
	var wire bytes.Buffer
	r.timed("formats.encode", func() { err = formats.EncodeDataset(&wire, result) })
	if err != nil {
		return err
	}
	r.out.add("formats.encode_bytes", float64(wire.Len()))
	r.timed("formats.decode", func() { _, err = formats.DecodeDataset(bytes.NewReader(wire.Bytes())) })
	if err != nil {
		return err
	}
	if c := r.cold; c != nil {
		r.timed("gmql.exec_explain", func() {
			err = exec.Command(c.gmql, "-data", c.repo, "-explain", resultVar, c.script).Run()
		})
		if err != nil {
			return fmt.Errorf("gmql -explain: %w", err)
		}
		c.writes++
		dir := filepath.Join(c.writeDir, fmt.Sprintf("%s%d", r.q.name, c.writes))
		r.timed("formats.write_result", func() { err = formats.WriteDatasetColumnar(dir, result) })
		if err != nil {
			return err
		}
	}
	_, err = r.kernels(plan)
	return err
}

// kernels evaluates the plan bottom-up, calling each SELECT, MAP, JOIN and
// COVER kernel directly on its real operands; other nodes run through the
// engine untimed. A MAP also gets its floor measured: the bare overlap sweep
// over the same pairs.
func (r *replayer) kernels(n engine.Node) (*gdm.Dataset, error) {
	var out *gdm.Dataset
	kernel := func(name string, fn func()) {
		res := r.counted("engine."+name, fn)
		r.out.add("engine."+name+"_allocs", float64(res.AllocObjs))
	}
	switch n := n.(type) {
	case *engine.Scan:
		return r.cat.Dataset(n.Dataset)
	case *engine.SelectOp:
		if n.SemiJoin != nil {
			return engine.Run(r.cfg, n, r.cat)
		}
		in, err := r.kernels(n.Input)
		if err != nil {
			return nil, err
		}
		kernel("select", func() { out, err = engine.Select(r.cfg, in, n.Meta, n.Region) })
		return out, err
	case *engine.MapOp:
		ref, err := r.kernels(n.Ref)
		if err != nil {
			return nil, err
		}
		exp, err := r.kernels(n.Exp)
		if err != nil {
			return nil, err
		}
		kernel("map", func() { out, err = engine.Map(r.cfg, ref, exp, n.Args) })
		r.sweepFloor(ref, exp)
		return out, err
	case *engine.JoinOp:
		left, err := r.kernels(n.Left)
		if err != nil {
			return nil, err
		}
		right, err := r.kernels(n.Right)
		if err != nil {
			return nil, err
		}
		kernel("join", func() { out, err = engine.Join(r.cfg, left, right, n.Args) })
		return out, err
	case *engine.CoverOp:
		in, err := r.kernels(n.Input)
		if err != nil {
			return nil, err
		}
		kernel("cover", func() { out, err = engine.Cover(r.cfg, in, n.Args) })
		return out, err
	default:
		return engine.Run(r.cfg, n, r.cat)
	}
}

// sweepPairs keeps the counting emit of sweepFloor observable, so the
// compiler cannot drop it.
var sweepPairs int

// sweepFloor times intervals.SweepOverlaps with a counting emit over every
// (reference sample, experiment sample, chromosome) triple of a MAP whose
// joinby is empty. The entry slices are built outside the timed interval.
func (r *replayer) sweepFloor(ref, exp *gdm.Dataset) {
	entries := func(s *gdm.Sample) map[string][]intervals.Entry {
		m := make(map[string][]intervals.Entry)
		for i := range s.Regions {
			reg := &s.Regions[i]
			m[reg.Chrom] = append(m[reg.Chrom], intervals.Entry{Start: reg.Start, Stop: reg.Stop, Payload: int32(i)})
		}
		return m
	}
	refs := make([]map[string][]intervals.Entry, len(ref.Samples))
	for i, s := range ref.Samples {
		refs[i] = entries(s)
	}
	exps := make([]map[string][]intervals.Entry, len(exp.Samples))
	for i, s := range exp.Samples {
		exps[i] = entries(s)
	}
	pairs := 0
	defer func() { sweepPairs = pairs }()
	r.timed("intervals.sweep", func() {
		for _, re := range refs {
			for _, ex := range exps {
				for chrom, left := range re {
					intervals.SweepOverlaps(left, ex[chrom], func(_, _ intervals.Entry) bool {
						pairs++
						return true
					})
				}
			}
		}
	})
}

// regionsIn totals the regions of the datasets the plan scans, from the
// engine's own accounting of one profiled serial evaluation.
func regionsIn(q *query, cat engine.MapCatalog) (float64, error) {
	prog, err := gmql.Parse(q.script)
	if err != nil {
		return 0, err
	}
	_, root, err := (&gmql.Runner{Config: serialConfig, Catalog: cat}).EvalProfiled(prog, resultVar)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, sp := range root.Flatten() {
		if sp.Op == "SCAN" {
			total += sp.RegionsOut
		}
	}
	return float64(total), nil
}

// window finds the zone-checkable region predicate of a query's plan and the
// dataset it applies to: a SELECT directly over a scan.
func window(q *query) (dataset string, w catalog.Window, ok bool) {
	prog, err := gmql.Parse(q.script)
	if err != nil {
		return "", w, false
	}
	sel, isSel := engine.Optimize(prog.Plan(resultVar)).(*engine.SelectOp)
	if !isSel || sel.Region == nil {
		return "", w, false
	}
	scan, isScan := sel.Input.(*engine.Scan)
	if !isScan {
		return "", w, false
	}
	w, ok = catalog.PredicateWindow(sel.Region)
	return scan.Dataset, w, ok
}

// storageStages measures the storage layer on the workload's repository:
// whole-repository loads of both layouts, the pruned read of the first query
// that has a zone-checkable window, and durable writes of the ENCODE dataset
// in both layouts (the ingest that setup_s pays for). repo holds the columnar
// repository; scratch is an empty directory. Nothing written is removed before
// exit, see batchRig.
func storageStages(tr *tracer, parent int, repo, scratch string, cat engine.MapCatalog, queries []query, reps int) (stageSamples, error) {
	out := stageSamples{}
	textRepo := filepath.Join(scratch, "text")
	for name, ds := range cat {
		if err := formats.WriteDataset(filepath.Join(textRepo, name), ds); err != nil {
			return nil, err
		}
	}
	var err error
	timed := func(name string, fn func()) { out.add(name, ms(tr.time(name, parent, -1, fn))) }
	load := func(name, root string) {
		timed(name, func() {
			_, _, err = formats.LoadRepository(root, formats.IntegrityPolicy{AllowPartial: true})
		})
	}
	var pruneDS string
	var pruneWin catalog.Window
	for i := range queries {
		if ds, w, ok := window(&queries[i]); ok {
			pruneDS, pruneWin = ds, w
			break
		}
	}
	for rep := 0; rep < reps; rep++ {
		before := obs.ReadRes()
		if load("formats.load_columnar", repo); err != nil {
			return nil, err
		}
		out.add("formats.load_allocs", float64(obs.ReadRes().Sub(before).AllocObjs))
		if load("formats.load_text", textRepo); err != nil {
			return nil, err
		}
		if pruneDS != "" {
			dc := &formats.DirCatalog{Root: repo, NoCache: true}
			var st catalog.PruneStats
			timed("formats.pruned_read", func() {
				_, st, err = dc.DatasetPruned(pruneDS, func(chrom string, lo, hi int64) bool {
					return !pruneWin.Prunes(chrom, lo, hi)
				})
			})
			if err != nil {
				return nil, err
			}
			out.add("catalog.parts_consulted", float64(st.Parts))
			out.add("catalog.parts_skipped", float64(st.SkippedParts))
			out.add("catalog.regions_skipped", float64(st.SkippedRegions))
			if st.Parts > 0 {
				out.add("catalog.skip_ratio", float64(st.SkippedParts)/float64(st.Parts))
			}
		}
		colDir := filepath.Join(scratch, fmt.Sprintf("wcol%d", rep))
		timed("formats.write_columnar", func() { err = formats.WriteDatasetColumnar(colDir, cat["ENCODE"]) })
		if err != nil {
			return nil, err
		}
		n, err := dirBytes(colDir)
		if err != nil {
			return nil, err
		}
		out.add("formats.write_bytes", float64(n))
		textDir := filepath.Join(scratch, fmt.Sprintf("wtext%d", rep))
		timed("formats.write_text", func() { err = formats.WriteDataset(textDir, cat["ENCODE"]) })
		if err != nil {
			return nil, err
		}
	}
	repoBytes, err := dirBytes(repo)
	if err != nil {
		return nil, err
	}
	regions := 0
	for _, ds := range cat {
		regions += ds.NumRegions()
	}
	out.add("formats.bytes_per_region", float64(repoBytes)/float64(regions))
	return out, nil
}

// The stages of one query are repeated until its time budget is spent, but
// at least minReplays and at most maxReplays times.
const (
	minReplays = 3
	maxReplays = 15
)

// replayQuery repeats every stage of a query until the budget is spent.
func replayQuery(r *replayer, budget time.Duration) error {
	start := time.Now()
	for rep := 0; rep < maxReplays; rep++ {
		if rep >= minReplays && time.Since(start) > budget {
			break
		}
		if err := r.once(); err != nil {
			return fmt.Errorf("replaying %s: %w", r.q.name, err)
		}
	}
	return nil
}
