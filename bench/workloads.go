package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"genogo/internal/federation"
	"genogo/internal/formats"
	"genogo/internal/gdm"
)

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// clients is the number of closed-loop clients: each sends its next
	// request only after the previous result is in hand.
	clients int
}

var workloads = []workloadDef{
	{"serve_map", "the paper's headline MAP through one gmqld: engine MAP and the result wire share the op", 1},
	{"serve_mix", "five short queries from two clients: per-request cost and the non-MAP kernels dominate", 2},
	{"fed_map", "the headline over two one-core members: adds fan-out, slowest-leg wait, fetch and merge", 1},
	{"batch_cold", "a cold gmql process per op: process start and the load of a 151-sample repository do the work, plus a small durable write", 1},
}

// batch reports the workload whose op is a process, not a request: it has
// no server to start, and one repository shared by all its set-ups.
func (w workloadDef) batch() bool { return w.Name == "batch_cold" }

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// chunkSize is the staged-retrieval chunk of every fetch, in samples.
const chunkSize = 8

// opTimeout bounds one operation, so a wedged system fails the op instead of
// hanging the run.
const opTimeout = 60 * time.Second

// settings are the knobs of one benchmark process.
type settings struct {
	root      string // module root, where ./cmd lives
	work      string // build outputs and scratch space
	traceDir  string // where trace files go
	gmqld     string // built binaries
	gmql      string
	seed      int64
	warm      time.Duration
	timed     time.Duration
	setupReps int
	scale     int // divides fixture sizes (quick mode only)
	kids      *children
}

// smoke reports a run too short to measure anything (-quick): the traced
// pass then does one op per query and one storage repetition.
func (s *settings) smoke() bool { return s.timed < 2*time.Second }

// opResult is what one operation produced.
type opResult struct {
	ds      *gdm.Dataset
	dur     time.Duration // op start to decodable result in hand
	ioBytes int64
}

// rig is one workload set up and ready to take operations.
type rig struct {
	op func(ctx context.Context, client int, q *query) (opResult, error)
	// cpu is the user+system CPU time the system under test has used so far.
	cpu func() (time.Duration, error)
	// peakRSSMB is the largest resident set any of its processes reached.
	peakRSSMB func() (float64, error)
	close     func()
	bootMS    float64 // slowest member's spawn to /health
	bootRSSMB float64 // largest member's resident set right after boot
}

// repoDir is member i's repository of the set-up in dir. batch_cold's
// set-ups, which live side by side under one run directory, share one
// repository next to them: see newRig.
func repoDir(w workloadDef, dir string, i int) string {
	if w.batch() {
		dir = filepath.Dir(dir)
	}
	return filepath.Join(dir, fmt.Sprintf("repo%d", i))
}

// writeRepo stores a member's catalog as a repository in the .gdmc layout.
func writeRepo(dir string, cat map[string]*gdm.Dataset) error {
	for name, ds := range cat {
		if err := formats.WriteDatasetColumnar(filepath.Join(dir, name), ds); err != nil {
			return err
		}
	}
	return nil
}

// newRig performs the whole set-up of a workload in a fresh directory: it
// writes the repositories, starts the processes, and takes every query of
// the workload through one verified operation. Its wall time is setup_s.
//
// batch_cold writes its repository only in the first set-up of a run and
// that one is not timed (see runEndToEnd): 303 fsynced files take 0.3 to 0.5 s
// depending on what the disk did before (see batchRig), which moved the
// workload's setup_s by 20 % between two sets of ten runs. Its setup_s is the
// first cold process alone; the ingest is in the served workloads' setup_s.
func (s *settings) newRig(ctx context.Context, w workloadDef, f *fixtures, dir string) (*rig, error) {
	for i, cat := range f.members {
		repo := repoDir(w, dir, i)
		if _, err := os.Stat(repo); err == nil {
			continue // batch_cold's shared repository is already there
		}
		if err := writeRepo(repo, cat); err != nil {
			return nil, err
		}
	}
	var r *rig
	var err error
	if w.batch() {
		r, err = s.batchRig(dir, repoDir(w, dir, 0), f)
	} else {
		r, err = s.servedRig(ctx, w, f, dir)
	}
	if err != nil {
		return nil, err
	}
	for i := range f.queries {
		if _, err := verifiedOp(ctx, r, 0, &f.queries[i]); err != nil {
			r.close()
			return nil, fmt.Errorf("first %s: %w", f.queries[i].name, err)
		}
	}
	return r, nil
}

// verifiedOp runs one operation and checks its result against the oracle.
func verifiedOp(ctx context.Context, r *rig, client int, q *query) (opResult, error) {
	octx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	res, err := r.op(octx, client, q)
	if err != nil {
		return res, err
	}
	if got := res.ds.ContentDigest(); got != q.want {
		return res, fmt.Errorf("result digest %s differs from the oracle's %s", gdm.ShortDigest(got), gdm.ShortDigest(q.want))
	}
	return res, nil
}

// servedRig starts one gmqld per member and builds the clients.
func (s *settings) servedRig(ctx context.Context, w workloadDef, f *fixtures, dir string) (*rig, error) {
	federated := len(f.members) > 1
	maxProcs := 0
	if federated {
		maxProcs = 1 // two members fill the two cores
	}
	servers := make([]*server, len(f.members))
	errs := make([]error, len(f.members))
	var wg sync.WaitGroup
	for i := range f.members {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			servers[i], errs[i] = s.kids.startServer(ctx, s.gmqld,
				repoDir(w, dir, i), fmt.Sprintf("m%d", i), maxProcs)
		}(i)
	}
	wg.Wait()
	var transports []*http.Transport
	r := &rig{}
	r.close = func() {
		for _, srv := range servers {
			if srv != nil {
				s.kids.stop(srv.cmd)
			}
		}
		for _, t := range transports {
			t.CloseIdleConnections()
		}
	}
	for _, err := range errs {
		if err != nil {
			r.close()
			return nil, err
		}
	}
	for _, srv := range servers {
		if b := ms(srv.bootWall); b > r.bootMS {
			r.bootMS = b
		}
		if kb, err := procStatusKB(srv.cmd.Process.Pid, "VmRSS"); err == nil && float64(kb)/1024 > r.bootRSSMB {
			r.bootRSSMB = float64(kb) / 1024
		}
	}
	newClient := func(url string) *federation.Client {
		t := &http.Transport{}
		transports = append(transports, t)
		return federation.NewClient(url, federation.WithTransport(t))
	}
	r.cpu = func() (time.Duration, error) {
		var total time.Duration
		for _, srv := range servers {
			d, err := procCPU(srv.cmd.Process.Pid)
			if err != nil {
				return 0, err
			}
			total += d
		}
		return total, nil
	}
	r.peakRSSMB = func() (float64, error) {
		var peak int64
		for _, srv := range servers {
			kb, err := procStatusKB(srv.cmd.Process.Pid, "VmHWM")
			if err != nil {
				return 0, err
			}
			if kb > peak {
				peak = kb
			}
		}
		return float64(peak) / 1024, nil
	}

	if federated {
		fed := &federation.Federator{}
		for _, srv := range servers {
			fed.Clients = append(fed.Clients, newClient(srv.url))
		}
		r.op = func(ctx context.Context, _ int, q *query) (opResult, error) {
			before := fed.BytesMoved()
			start := time.Now()
			ds, _, err := fed.Query(ctx, q.script, resultVar, chunkSize)
			return opResult{ds: ds, dur: time.Since(start), ioBytes: fed.BytesMoved() - before}, err
		}
		return r, nil
	}
	clients := make([]*federation.Client, w.clients)
	for i := range clients {
		clients[i] = newClient(servers[0].url)
	}
	r.op = func(ctx context.Context, client int, q *query) (opResult, error) {
		c := clients[client]
		before := c.Bytes()
		start := time.Now()
		ds, err := clientOp(ctx, c, q)
		return opResult{ds: ds, dur: time.Since(start), ioBytes: c.Bytes() - before}, err
	}
	return r, nil
}

// clientOp is the single-node operation as a user performs it: execute,
// download the staged result in chunks, release the staging slot.
func clientOp(ctx context.Context, c *federation.Client, q *query) (*gdm.Dataset, error) {
	var qr federation.QueryResponse
	var err error
	if q.user != nil {
		qr, err = c.ExecuteWithUserData(ctx, q.script, resultVar, q.user)
	} else {
		qr, err = c.Execute(ctx, q.script, resultVar)
	}
	if err != nil {
		return nil, err
	}
	ds, err := c.FetchAll(ctx, qr.ResultID, chunkSize)
	if err != nil {
		// The release is best effort here: the fetch error is the one
		// to report, and a leaked slot fails later ops loudly (503).
		_ = c.Release(ctx, qr.ResultID)
		return nil, err
	}
	if err := c.Release(ctx, qr.ResultID); err != nil {
		return nil, err
	}
	return ds, nil
}

// batchRig runs each op as a fresh gmql process that loads the repository,
// evaluates the script and writes the result durably in the columnar layout
// (every file fsynced, manifest last: the flush policy is gmql's own). The
// result is read back with the strict integrity policy outside the timed
// interval.
//
// The result is kept small and its directory stays until the run's scratch
// space is removed at exit. Where the checkout lives on ext4 mounted with
// discard over a sparse image, freed blocks become holes and a later durable
// write that lands in one costs several times more; with a 151-sample result
// per op that noise doubled the op from one run to the next. Deleting nothing
// between ops and fsyncing nine files, not three hundred, keeps the op's time
// the system's own. The durable write of a large dataset is measured where
// its noise is tolerated: in setup_s (the repository ingest) and in the
// traced pass (formats.write_*).
func (s *settings) batchRig(dir, repo string, f *fixtures) (*rig, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var cpuTotal time.Duration
	var peakKB int64
	var seq atomic.Int64
	r := &rig{close: func() {}}
	r.cpu = func() (time.Duration, error) {
		mu.Lock()
		defer mu.Unlock()
		return cpuTotal, nil
	}
	r.peakRSSMB = func() (float64, error) {
		mu.Lock()
		defer mu.Unlock()
		return float64(peakKB) / 1024, nil
	}
	for i := range f.queries {
		q := &f.queries[i]
		if err := os.WriteFile(scriptPath(dir, q), []byte(q.script), 0o644); err != nil {
			return nil, err
		}
	}
	r.op = func(ctx context.Context, _ int, q *query) (opResult, error) {
		out := filepath.Join(dir, fmt.Sprintf("out%06d", seq.Add(1)))
		cmd := exec.CommandContext(ctx, s.gmql, "-data", repo, "-out", out, "-format", "columnar", scriptPath(dir, q))
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return opResult{}, err
		}
		s.kids.add(cmd)
		err := waitExited(cmd)
		dur := time.Since(start)
		var ioBytes int64
		if err == nil {
			ioBytes, err = procIOBytes(cmd.Process.Pid)
		}
		werr := cmd.Wait()
		s.kids.forget(cmd)
		if err != nil {
			return opResult{}, err
		}
		if werr != nil {
			return opResult{}, fmt.Errorf("gmql: %w", werr)
		}
		cpu, rss := childUsage(cmd)
		mu.Lock()
		cpuTotal += cpu
		if rss > peakKB {
			peakKB = rss
		}
		mu.Unlock()
		resDir := filepath.Join(out, "result")
		ds, _, err := formats.OpenDataset(resDir, formats.IntegrityPolicy{})
		if err != nil {
			return opResult{}, err
		}
		return opResult{ds: ds, dur: dur, ioBytes: ioBytes}, nil
	}
	return r, nil
}

// scriptPath is where batchRig stores a query's script.
func scriptPath(dir string, q *query) string { return filepath.Join(dir, q.name+".gmql") }

// loopStats is what one measuring interval observed.
type loopStats struct {
	attempted, failed int
	lat               []time.Duration            // successful ops
	byQuery           map[string][]time.Duration // successful ops per query name
	busy              []time.Duration            // per client: time with an op in flight
	ops               []int                      // per client: successful ops
	ioBytes           int64
	firstErr          error
}

// runLoop drives the rig with closed-loop clients for d. The clients share
// one round-robin over the queries, so the mix is exact whatever their
// relative speed. Verification happens after an op's clock has stopped.
func runLoop(ctx context.Context, r *rig, clients int, queries []query, next *atomic.Int64, d time.Duration) loopStats {
	st := loopStats{byQuery: make(map[string][]time.Duration), busy: make([]time.Duration, clients), ops: make([]int, clients)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				q := &queries[int(next.Add(1)-1)%len(queries)]
				res, err := verifiedOp(ctx, r, c, q)
				mu.Lock()
				st.attempted++
				if err != nil {
					st.failed++
					if st.firstErr == nil {
						st.firstErr = fmt.Errorf("%s: %w", q.name, err)
					}
				} else {
					st.lat = append(st.lat, res.dur)
					st.byQuery[q.name] = append(st.byQuery[q.name], res.dur)
					st.busy[c] += res.dur
					st.ops[c]++
					st.ioBytes += res.ioBytes
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return st
}

// passResult is one pass, untraced or traced, over one workload.
type passResult struct {
	metrics   map[string]float64
	attempted int
	failed    int
	firstErr  error
	// Untraced passes only: the successful timed ops, and the percentile
	// query_p95_ms reports at that count.
	samples int
	tailPct float64
}

// runEndToEnd sets the workload up setupReps times, keeps the last rig,
// warms it up and measures it with tracing off.
func (s *settings) runEndToEnd(ctx context.Context, w workloadDef, f *fixtures, tmp string) (*passResult, error) {
	var setups []float64
	var r *rig
	reps := s.setupReps
	if w.batch() {
		reps++ // the first one writes the repository and is not timed
	}
	for rep := 0; rep < reps; rep++ {
		if r != nil {
			r.close() // only the last rig is measured
		}
		start := time.Now()
		var err error
		if r, err = s.newRig(ctx, w, f, filepath.Join(tmp, fmt.Sprintf("setup%d", rep))); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if rep >= reps-s.setupReps {
			setups = append(setups, time.Since(start).Seconds())
		}
	}
	defer r.close()

	var next atomic.Int64
	runLoop(ctx, r, w.clients, f.queries, &next, s.warm)
	cpu0, err := r.cpu()
	if err != nil {
		return nil, err
	}
	st := runLoop(ctx, r, w.clients, f.queries, &next, s.timed)
	cpu1, err := r.cpu()
	if err != nil {
		return nil, err
	}
	rss, err := r.peakRSSMB()
	if err != nil {
		return nil, err
	}

	res := &passResult{
		attempted: st.attempted, failed: st.failed, samples: len(st.lat),
		tailPct: tailPercent(len(st.lat)), firstErr: st.firstErr,
	}
	if res.attempted == 0 {
		res.attempted, res.failed = 1, 1 // the interval ended before any op did
	}
	lat := msAll(st.lat)
	var rate float64
	for c := range st.ops {
		if st.busy[c] > 0 {
			rate += float64(st.ops[c]) / st.busy[c].Seconds()
		}
	}
	n := float64(len(st.lat))
	res.metrics = map[string]float64{
		"setup_s":       median(setups),
		"query_p50_ms":  median(lat),
		"query_p95_ms":  tail(lat),
		"queries_per_s": rate,
		"peak_rss_mb":   rss,
	}
	if n > 0 {
		res.metrics["cpu_ms_per_query"] = ms(cpu1-cpu0) / n
		res.metrics["io_bytes_per_query"] = float64(st.ioBytes) / n
	}
	return res, nil
}
