package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"genogo/internal/engine"
	"genogo/internal/federation"
	"genogo/internal/gdm"
)

// minTracedOps is the least number of operations a traced pass records.
const minTracedOps = 30

// opFacts are the per-layer observations of one traced operation, in
// milliseconds unless named otherwise.
type opFacts struct {
	query                     string
	op                        float64 // the whole traced op
	execute, fetch, release   float64 // client calls (slowest leg's, when federated)
	serverQuery, serverResult float64 // handler walls under those calls
	chunks                    float64 // GET /results requests
	legMax, legMean           float64 // federated only
	bytes                     float64
}

// member is one in-process federation node behind the span-recording
// handler, with the client that talks to it.
type member struct {
	ts     *httptest.Server
	client *federation.Client

	mu    sync.Mutex
	leg   int // the current op's leg span, federated only
	legOp int
}

// tracedPass measures the per-layer metrics of one workload. It spends a
// quarter of the time on an untraced segment against the real binaries (the
// base of bench.trace_overhead_frac), a quarter on traced operations against
// in-process servers behind span-recording handlers, and the rest replaying
// the stages of each query through the layers' public functions.
func (s *settings) tracedPass(ctx context.Context, w workloadDef, f *fixtures, tmp string, genMS float64) (*passResult, error) {
	tr := newTracer()
	res := &passResult{metrics: make(map[string]float64)}
	for _, m := range perLayer {
		res.metrics[m.Name] = 0
	}
	res.metrics["synth.generate_ms"] = genMS
	res.metrics["synth.regions"] = float64(f.regions)

	// Untraced segment: the real binaries, tracing off.
	dir := filepath.Join(tmp, "untraced")
	r, err := s.newRig(ctx, w, f, dir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.close()
	var next atomic.Int64
	runLoop(ctx, r, 1, f.queries, &next, s.warm/2)
	untraced := runLoop(ctx, r, 1, f.queries, &next, s.timed/4)
	res.attempted, res.failed, res.firstErr = untraced.attempted, untraced.failed, untraced.firstErr
	res.metrics["gmqld.boot_ms"] = r.bootMS
	res.metrics["gmqld.boot_rss_mb"] = r.bootRSSMB
	untracedP50 := make(map[string]float64)
	for name, d := range untraced.byQuery {
		untracedP50[name] = median(msAll(d))
		if w.Name == "serve_mix" {
			res.metrics["op."+name+"_p50_ms"] = untracedP50[name]
		}
	}

	// Traced operations.
	var facts []opFacts
	if w.batch() {
		facts, err = s.tracedBatchOps(ctx, tr, r, f, res)
	} else {
		r.close() // the in-process servers take over both cores
		facts, err = s.tracedServedOps(ctx, tr, f, res)
	}
	if err != nil {
		return nil, err
	}

	// Stage replays, on the same inputs.
	replayRoot := tr.begin("replay", -1, -1)
	cfg := memberConfig(f)
	budget := s.timed / 2 / time.Duration(len(f.queries)+1)
	stages := make(map[string]map[string]float64) // query -> stage -> median
	for i := range f.queries {
		q := &f.queries[i]
		rp := &replayer{tr: tr, parent: replayRoot, op: i, cfg: cfg, cat: withUser(f.members[0], q.user), q: q, out: stageSamples{}}
		if w.batch() {
			rp.cold = &coldStages{gmql: s.gmql, repo: repoDir(w, dir, 0),
				script: scriptPath(dir, q), writeDir: filepath.Join(tmp, "replay")}
		}
		if err := replayQuery(rp, budget); err != nil {
			return nil, err
		}
		stages[q.name] = rp.out.medians()
		in, err := regionsIn(q, rp.cat)
		if err != nil {
			return nil, err
		}
		stages[q.name]["engine.regions_in"] = in
	}
	storeReps := minReplays
	if s.smoke() {
		storeReps = 1
	}
	store, err := storageStages(tr, replayRoot, repoDir(w, dir, 0), filepath.Join(tmp, "storage"),
		f.members[0], f.queries, storeReps)
	if err != nil {
		return nil, err
	}
	tr.end(replayRoot)
	storage := store.medians()

	layerMetrics(res.metrics, w, f, facts, stages, storage, untracedP50)
	if err := tr.write(filepath.Join(s.traceDir, "trace-"+w.Name+".json")); err != nil {
		return nil, err
	}
	return res, nil
}

// memberConfig is the engine configuration gmqld runs a member with: the
// default, on one worker when the federation pins members to GOMAXPROCS=1.
func memberConfig(f *fixtures) engine.Config {
	cfg := engine.DefaultConfig()
	if len(f.members) > 1 {
		cfg.Workers = 1
	}
	return cfg
}

// tracedServedOps runs the workload's operations through the real client
// calls against in-process federation servers (same datasets, same
// configuration as gmqld) wrapped in the span-recording handler.
func (s *settings) tracedServedOps(ctx context.Context, tr *tracer, f *fixtures, res *passResult) ([]opFacts, error) {
	federated := len(f.members) > 1
	cfg := memberConfig(f)
	var curSpan, curOp atomic.Int64
	members := make([]*member, len(f.members))
	for i, cat := range f.members {
		srv := federation.NewServer(fmt.Sprintf("m%d", i), cfg)
		for _, name := range []string{"ANNOTATIONS", "ENCODE"} {
			if ds := cat[name]; ds != nil {
				srv.AddDataset(ds)
			}
		}
		m := &member{ts: httptest.NewServer(tracedHandler(tr, srv.Handler())), legOp: -1}
		defer m.ts.Close()
		base := &http.Transport{}
		defer base.CloseIdleConnections()
		parent := func() (int, int) { return int(curSpan.Load()), int(curOp.Load()) }
		if federated {
			// Requests of one member within one op hang under that
			// member's leg span, opened by its first request.
			parent = func() (int, int) {
				op := int(curOp.Load())
				m.mu.Lock()
				defer m.mu.Unlock()
				if m.legOp != op {
					m.leg, m.legOp = tr.begin("federation.leg", int(curSpan.Load()), op), op
				}
				return m.leg, op
			}
		}
		m.client = federation.NewClient(m.ts.URL, federation.WithTransport(&tracedTransport{tr: tr, base: base, parent: parent}))
		members[i] = m
	}
	fed := &federation.Federator{}
	for _, m := range members {
		fed.Clients = append(fed.Clients, m.client)
	}

	var facts []opFacts
	deadline := time.Now().Add(s.timed / 4)
	for op := 0; (op < minTracedOps || time.Now().Before(deadline)) && ctx.Err() == nil; op++ {
		if s.smoke() && op >= len(f.queries) {
			break
		}
		q := &f.queries[op%len(f.queries)]
		octx, cancel := context.WithTimeout(ctx, opTimeout)
		fact := opFacts{query: q.name}
		curOp.Store(int64(op))
		root := tr.begin("op", -1, op)
		curSpan.Store(int64(root))
		var ds *gdm.Dataset
		var err error
		if federated {
			before := fed.BytesMoved()
			ds, _, err = fed.Query(octx, q.script, resultVar, chunkSize)
			tr.end(root)
			fact.bytes = float64(fed.BytesMoved() - before)
			for _, m := range members {
				tr.endAtLastChild(m.leg)
			}
		} else {
			c := members[0].client
			before := c.Bytes()
			call := func(name string, fn func() error) {
				if err != nil {
					return
				}
				id := tr.begin(name, root, op)
				curSpan.Store(int64(id))
				err = fn()
				tr.end(id)
			}
			var qr federation.QueryResponse
			call("federation.execute", func() (e error) {
				if q.user != nil {
					qr, e = c.ExecuteWithUserData(octx, q.script, resultVar, q.user)
				} else {
					qr, e = c.Execute(octx, q.script, resultVar)
				}
				return e
			})
			call("federation.fetch", func() (e error) {
				ds, e = c.FetchAll(octx, qr.ResultID, chunkSize)
				return e
			})
			call("federation.release", func() error { return c.Release(octx, qr.ResultID) })
			tr.end(root)
			fact.bytes = float64(c.Bytes() - before)
		}
		cancel()
		res.attempted++
		if err == nil && ds.ContentDigest() != q.want {
			err = fmt.Errorf("traced result differs from the oracle's")
		}
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("traced %s: %w", q.name, err)
			}
			continue
		}
		fillFacts(&fact, tr.snapshot(), root, federated)
		facts = append(facts, fact)
	}
	if len(facts) == 0 {
		return nil, fmt.Errorf("no traced op succeeded: %v", res.firstErr)
	}
	return facts, nil
}

// fillFacts reads one finished op's observations out of its spans.
func fillFacts(fact *opFacts, spans []span, root int, federated bool) {
	kids := func(parent int, name string) []int {
		var out []int
		for i := root; i < len(spans); i++ {
			if spans[i].Parent == parent && (name == "" || spans[i].Name == name) {
				out = append(out, i)
			}
		}
		return out
	}
	sum := func(ids []int) float64 {
		var d time.Duration
		for _, id := range ids {
			d += spans[id].dur()
		}
		return ms(d)
	}
	// handlers totals the handler spans of one route under the requests.
	handlers := func(requests []int, name string) float64 {
		var total float64
		for _, req := range requests {
			total += sum(kids(req, name))
		}
		return total
	}
	fact.op = ms(spans[root].dur())
	if !federated {
		exec, fetch, rel := kids(root, "federation.execute"), kids(root, "federation.fetch"), kids(root, "federation.release")
		fact.execute, fact.fetch, fact.release = sum(exec), sum(fetch), sum(rel)
		var requests []int
		for _, call := range append(append(exec, fetch...), rel...) {
			requests = append(requests, kids(call, "")...)
		}
		fact.serverQuery = handlers(requests, "federation.server_query")
		fact.serverResult = handlers(requests, "federation.server_results")
		for _, call := range fetch {
			fact.chunks += float64(len(kids(call, "http.results")))
		}
		return
	}
	// Federated: the slowest leg sets the op's time, so its calls are the
	// ones reported; the leg walls give the skew.
	legs := kids(root, "federation.leg")
	slowest := -1
	for _, leg := range legs {
		d := ms(spans[leg].dur())
		fact.legMean += d / float64(len(legs))
		if d > fact.legMax {
			fact.legMax, slowest = d, leg
		}
		fact.chunks += float64(len(kids(leg, "http.results")))
	}
	if slowest < 0 {
		return
	}
	requests := kids(slowest, "")
	query, release := kids(slowest, "http.query"), kids(slowest, "http.release")
	fact.execute, fact.release = sum(query), sum(release)
	if len(query) > 0 && len(release) > 0 {
		// Everything between the execute answer and the release request is
		// the fetch: chunk requests and their decoding.
		fact.fetch = ms(time.Duration(spans[release[0]].Start - spans[query[0]].End))
	}
	fact.serverQuery = handlers(requests, "federation.server_query")
	fact.serverResult = handlers(requests, "federation.server_results")
}

// tracedBatchOps runs the real gmql binary under an op span. The process
// cannot be traced from outside, so its stages exist only as replays.
func (s *settings) tracedBatchOps(ctx context.Context, tr *tracer, r *rig, f *fixtures, res *passResult) ([]opFacts, error) {
	var facts []opFacts
	deadline := time.Now().Add(s.timed / 4)
	for op := 0; (op < minTracedOps || time.Now().Before(deadline)) && ctx.Err() == nil; op++ {
		if s.smoke() && op >= len(f.queries) {
			break
		}
		q := &f.queries[op%len(f.queries)]
		root := tr.begin("op", -1, op)
		out, err := verifiedOp(ctx, r, 0, q)
		tr.end(root)
		res.attempted++
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("traced %s: %w", q.name, err)
			}
			continue
		}
		// The op span also covers the untimed read-back; the fact keeps
		// the process wall alone.
		facts = append(facts, opFacts{query: q.name, op: ms(out.dur), bytes: float64(out.ioBytes)})
	}
	if len(facts) == 0 {
		return nil, fmt.Errorf("no traced op succeeded: %v", res.firstErr)
	}
	return facts, nil
}

// layerMetrics folds the observations into the per-layer metric values. A
// value is the mean, over the queries of the workload that exercise the
// stage, of the median over that query's operations or repetitions.
func layerMetrics(out map[string]float64, w workloadDef, f *fixtures, facts []opFacts,
	stages map[string]map[string]float64, storage map[string]float64, untracedP50 map[string]float64) {
	federated := len(f.members) > 1
	batch := w.batch()

	// Per query: medians over its ops of every observation and of the
	// derived overheads, which need that query's stage medians.
	perQuery := make(map[string]map[string]float64)
	for i := range f.queries {
		name := f.queries[i].name
		st := stages[name]
		seen := stageSamples{}
		for _, fa := range facts {
			if fa.query != name {
				continue
			}
			seen.add("bench.traced_op_ms", fa.op)
			if p50 := untracedP50[name]; p50 > 0 {
				seen.add("bench.trace_overhead_frac", fa.op/p50-1)
			}
			server := st["gmql.parse"] + st["engine.eval"]
			var explained float64
			if batch {
				explained = st["gmql.exec_explain"] + st["engine.eval"] + st["formats.write_result"]
			} else {
				client := fa.execute + fa.fetch + fa.release
				request := positive(fa.serverQuery - server)
				wire := positive(client - fa.serverQuery - fa.serverResult - st["formats.decode"])
				merge := 0.0
				if federated {
					merge = fa.op - fa.legMax
					seen.add("federation.merge_ms", merge)
					seen.add("federation.leg_max_ms", fa.legMax)
					seen.add("federation.leg_skew_frac", fa.legMax/fa.legMean)
				}
				explained = server + request + st["formats.encode"] + st["formats.decode"] + wire + merge
				seen.add("federation.execute_ms", fa.execute)
				seen.add("federation.fetch_ms", fa.fetch)
				seen.add("federation.release_ms", fa.release)
				seen.add("federation.server_query_ms", fa.serverQuery)
				seen.add("federation.server_results_ms", fa.serverResult)
				seen.add("federation.request_overhead_ms", request)
				seen.add("federation.wire_overhead_ms", wire)
				seen.add("federation.chunks_per_query", fa.chunks)
				seen.add("federation.bytes_moved", fa.bytes)
			}
			seen.add("bench.unattributed_ms", math.Abs(fa.op-explained))
		}
		m := seen.medians()
		for _, stage := range []string{"gmql.parse", "gmql.plan", "engine.optimize", "engine.eval", "engine.eval_serial",
			"engine.eval_batch", "engine.select", "engine.map", "engine.join", "engine.cover", "intervals.sweep",
			"gdm.clone", "formats.encode", "formats.decode"} {
			if v, ok := st[stage]; ok {
				m[stage+"_ms"] = v
			}
		}
		for _, count := range []string{"engine.eval_allocs", "engine.eval_alloc_bytes", "engine.map_allocs", "engine.join_allocs",
			"engine.cover_allocs", "engine.regions_in", "engine.regions_out", "formats.encode_bytes"} {
			if v, ok := st[count]; ok {
				m[count] = v
			}
		}
		m["gmql.materialize_overhead_ms"] = positive(st["engine.eval"] - st["engine.session_eval"])
		if cold, ok := st["gmql.exec_explain"]; ok {
			m["gmql.process_start_ms"] = positive(cold - st["gmql.parse"] - storage["formats.load_columnar"])
		}
		if st["engine.eval"] > 0 {
			m["obs.profiled_overhead_frac"] = st["engine.eval_profiled"]/st["engine.eval"] - 1
		}
		perQuery[name] = m
	}
	for _, def := range perLayer {
		var sum float64
		n := 0
		for _, m := range perQuery {
			if v, ok := m[def.Name]; ok {
				sum += v
				n++
			}
		}
		if n > 0 {
			out[def.Name] = sum / float64(n)
		}
	}
	for _, name := range []string{"formats.load_columnar", "formats.load_text", "formats.pruned_read", "formats.write_columnar", "formats.write_text"} {
		out[name+"_ms"] = storage[name]
	}
	for _, name := range []string{"formats.load_allocs", "formats.write_bytes", "formats.bytes_per_region",
		"catalog.parts_consulted", "catalog.parts_skipped", "catalog.regions_skipped", "catalog.skip_ratio"} {
		out[name] = storage[name]
	}
}

// positive clamps a remainder at zero.
func positive(v float64) float64 { return math.Max(v, 0) }
