// Command gmqld serves a federation node (Section 4.4 of the paper): it
// owns the datasets under its data directory and answers the federated
// protocol — dataset information, query compilation with result size
// estimates, remote execution, and staged result retrieval. The node has
// one catalog (formats.DirCatalog), warmed at boot by loading every
// dataset: it answers every route, holds each dataset's statistics (the
// member's stats.json, or one scan of a partial load or text export) and is
// the /debug/repo view on both listeners.
//
// Usage:
//
//	gmqld -data DIR [-addr :8844] [-name node1] [-mode stream]
//	      [-read-timeout 30s] [-write-timeout 5m] [-idle-timeout 2m]
//	      [-metrics-addr ADDR] [-slow-query 1s]
//	      [-max-concurrent N] [-max-queue N] [-queue-timeout 10s]
//	      [-query-deadline D] [-max-regions N] [-max-bytes N]
//	      [-drain-timeout 30s]
//	      [-prof-ring 32] [-prof-cpu D] [-prof-interval D]
//	      [-peers URL,URL] [-probe-interval 2s]
//
// The timeout flags bound how long one HTTP exchange may hold a connection,
// so a stalled or malicious peer cannot pin server resources forever. The
// write timeout is the effective ceiling on query execution time per request.
//
// Query lifecycle governance: -max-concurrent enables admission control (at
// most N queries execute at once; -max-queue more wait up to -queue-timeout;
// everyone else is shed with 429 + Retry-After). -query-deadline,
// -max-regions and -max-bytes are per-query budgets enforced inside the
// engine — a query over budget dies with a typed error while other queries
// keep running. A disconnected client cancels its query's workers. On
// SIGINT/SIGTERM the node drains: new queries are refused (503), in-flight
// ones get up to -drain-timeout to finish.
//
// Observability: /metrics (Prometheus text format), the /debug/queries live
// query console (active and recent queries with drill-down to their span
// trees, HTML and JSON) and /debug/pprof are mounted on the main listener by
// default; -metrics-addr moves them to a separate listener so operational
// endpoints need not be exposed to peers. The query console stays on the
// main listener either way — federation peers correlate queries by the
// X-Query-ID they sent. -slow-query logs any query slower than the given
// threshold, with its hottest operators inlined; the recent slow/killed
// records are retained in a bounded ring on /debug/slowlog.
//
// Continuous profiling: the node keeps a ring of recent pprof captures
// (-prof-ring, 0 disables), taken automatically when a slow query, budget
// kill, or load shed happens — and on a timer with -prof-interval. -prof-cpu
// adds a CPU sampling window per capture (heap snapshots only by default).
// /debug/prof lists the ring; /debug/prof/{id} downloads a capture for
// `go tool pprof`. /debug/costs exports the rolling per-operator cost model
// (ns/region, allocs/region by backend and fusion) fed by profiled queries.
// /debug/repo lists the catalog's datasets with their statistics, where they
// came from and their integrity verdicts; /debug/repo/{name} adds the
// dataset's full integrity report, naming every quarantined sample.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"genogo/internal/engine"
	"genogo/internal/federation"
	"genogo/internal/formats"
	"genogo/internal/govern"
	"genogo/internal/obs"
	"genogo/internal/resilience"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gmqld:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	n, err := setup(args, os.Stdout)
	if err != nil {
		return err
	}
	if n.metrics != nil {
		go func() {
			if err := n.metrics.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				slog.Error("metrics listener failed", "err", err)
			}
		}()
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	serveErr := make(chan error, 1)
	go func() { serveErr <- n.srv.ListenAndServe() }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: the gate refuses new queries immediately (503), then
	// http.Server.Shutdown waits for in-flight requests up to the drain
	// budget. A clean drain exits 0.
	slog.Info("shutdown signal: draining in-flight queries", "timeout", n.drainTimeout)
	if n.gate != nil {
		n.gate.BeginDrain()
	}
	if n.profStop != nil {
		n.profStop()
	}
	if n.probeStop != nil {
		n.probeStop()
	}
	sctx, cancel := context.WithTimeout(context.Background(), n.drainTimeout)
	defer cancel()
	if n.metrics != nil {
		_ = n.metrics.Shutdown(sctx)
	}
	return n.srv.Shutdown(sctx)
}

// node is a configured gmqld instance: the federation listener, the optional
// separate operational listener, and the admission gate (nil when admission
// control is off).
type node struct {
	srv          *http.Server
	metrics      *http.Server
	gate         *govern.Gate
	drainTimeout time.Duration
	// profStop halts the continuous profiler's background sampler (nil when
	// the profiler or its interval sampling is off).
	profStop func()
	// probeStop halts the peer health-probe loop (nil without -peers).
	probeStop func()
}

// setup parses flags and builds the node's http.Server without binding a
// socket, so tests can drive srv.Handler through httptest. node.metrics is
// non-nil only when -metrics-addr asks for a separate operational listener;
// otherwise /metrics and /debug/pprof share the main handler.
func setup(args []string, out io.Writer) (*node, error) {
	fs := flag.NewFlagSet("gmqld", flag.ContinueOnError)
	dataDir := fs.String("data", ".", "directory holding dataset subdirectories")
	addr := fs.String("addr", ":8844", "listen address")
	name := fs.String("name", "node", "node name")
	mode := fs.String("mode", "stream", "execution backend: serial, batch or stream")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "max time to read one request (0 disables)")
	writeTimeout := fs.Duration("write-timeout", 5*time.Minute, "max time to execute and write one response (0 disables)")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "max keep-alive idle time per connection (0 disables)")
	metricsAddr := fs.String("metrics-addr", "", "separate listen address for /metrics and /debug/pprof (default: serve them on -addr)")
	slowQuery := fs.Duration("slow-query", 0, "log queries slower than this threshold with their hottest operators (0 disables)")
	maxConcurrent := fs.Int64("max-concurrent", 0, "admission control: max concurrently executing queries (0 disables)")
	maxQueue := fs.Int("max-queue", 16, "admission control: max queries waiting for a slot before shedding")
	queueTimeout := fs.Duration("queue-timeout", 10*time.Second, "admission control: max wait in the queue before shedding (0 waits until the client gives up)")
	queryDeadline := fs.Duration("query-deadline", 0, "per-query wall-clock budget (0: bounded only by -write-timeout)")
	maxRegions := fs.Int64("max-regions", 0, "per-query budget: max regions in any operator output (0 disables)")
	maxBytes := fs.Int64("max-bytes", 0, "per-query budget: max resident bytes of operator outputs (0 disables)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight queries on shutdown")
	profRing := fs.Int("prof-ring", 32, "continuous profiler: max retained pprof captures on /debug/prof (0 disables)")
	profCPU := fs.Duration("prof-cpu", 0, "continuous profiler: CPU sampling window per capture (0: heap snapshots only)")
	profInterval := fs.Duration("prof-interval", 0, "continuous profiler: background capture interval (0: capture only on slow-query/kill/shed events)")
	peers := fs.String("peers", "", "comma-separated base URLs of federation peers to health-check (populates /debug/federation)")
	probeInterval := fs.Duration("probe-interval", federation.DefaultProbeInterval, "health-probe cadence for -peers")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cfg := engine.DefaultConfig()
	switch *mode {
	case "serial":
		cfg.Mode = engine.ModeSerial
	case "batch":
		cfg.Mode = engine.ModeBatch
	case "stream":
		cfg.Mode = engine.ModeStream
	default:
		return nil, fmt.Errorf("unknown mode %q", *mode)
	}

	// Warm the node's one catalog through the verified read path: every
	// dataset is loaded now, checksums and manifests are checked, and corrupt
	// samples are quarantined rather than served as wrong results; each
	// dataset's verdict is on /debug/repo/{name}.
	cat, err := formats.ServeRepository(*dataDir)
	if err != nil {
		return nil, err
	}
	for _, ds := range cat.Held() {
		fmt.Fprintf(out, "serving %s: %d samples, %d regions\n", ds.Name, len(ds.Samples), ds.NumRegions())
	}
	cat.WriteWarnings(out)
	srv := federation.NewCatalogServer(*name, cfg, cat)
	if *slowQuery > 0 {
		srv.SlowLog = &obs.SlowQueryLog{Threshold: *slowQuery, Logger: slog.Default()}
	}
	// Continuous profiler: on by default so a slow query or budget kill always
	// leaves a pprof capture behind on /debug/prof.
	var profStop func()
	if *profRing > 0 {
		prof := obs.Prof()
		prof.CPUWindow = *profCPU
		prof.Enable(*profRing)
		profStop = prof.Start(*profInterval)
	}
	srv.Limits = engine.Limits{
		MaxOutputRegions: *maxRegions,
		MaxResidentBytes: *maxBytes,
		Deadline:         *queryDeadline,
	}
	var gate *govern.Gate
	if *maxConcurrent > 0 {
		gate = govern.NewGate(*maxConcurrent, *maxQueue, *queueTimeout)
		srv.Gate = gate
		fmt.Fprintf(out, "admission: %d concurrent, queue %d, queue timeout %v\n",
			*maxConcurrent, *maxQueue, *queueTimeout)
	}
	// Peer membership: probe the named peers in the background and serve the
	// live view on /debug/federation (mounted by the server's handler).
	var probeStop func()
	if *peers != "" {
		var clients []*federation.Client
		for _, u := range strings.Split(*peers, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			clients = append(clients, federation.NewClient(u,
				federation.WithBreaker(&resilience.Breaker{})))
		}
		if len(clients) > 0 {
			prober := federation.NewProber(clients)
			prober.Interval = *probeInterval
			probeStop = prober.Start()
			srv.Membership = (&federation.Federator{Clients: clients, Prober: prober}).Membership
			fmt.Fprintf(out, "probing %d peer(s) every %v\n", len(clients), *probeInterval)
		}
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	// The debug surface goes on its own console: the node handler's console
	// is shadowed by this mux's /debug/ index for anything routed through it.
	debugMux := mux
	var metricsSrv *http.Server
	if *metricsAddr != "" {
		debugMux = http.NewServeMux()
		metricsSrv = &http.Server{Addr: *metricsAddr, Handler: debugMux}
		fmt.Fprintf(out, "metrics on %s\n", *metricsAddr)
	}
	c := obs.NewConsole(debugMux)
	obs.Mount(c, obs.Default())
	c.Register(srv.SlowLog.View())
	c.Register(cat.View())
	c.Register(federation.MembershipView(srv.Membership))
	fmt.Fprintf(out, "node %s listening on %s (%s backend)\n", *name, *addr, cfg.Mode)
	return &node{
		srv: &http.Server{
			Addr:         *addr,
			Handler:      mux,
			ReadTimeout:  *readTimeout,
			WriteTimeout: *writeTimeout,
			IdleTimeout:  *idleTimeout,
		},
		metrics:      metricsSrv,
		gate:         gate,
		drainTimeout: *drainTimeout,
		profStop:     profStop,
		probeStop:    probeStop,
	}, nil
}
