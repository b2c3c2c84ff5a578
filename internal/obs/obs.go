// Package obs is the dependency-free observability layer: a metrics
// registry (atomic counters, gauges and histograms with Prometheus text
// exposition), a query span model for EXPLAIN ANALYZE-style profiles, and a
// structured slow-query log.
//
// The paper's Section 4 vision — parallel GMQL execution, federated query
// processing with size estimates, an Internet of Genomes — rests on being
// able to see where a query spends its time: which operator, which backend,
// which node. Every networked subsystem (engine, resilience, federation,
// genomenet) registers its metrics against the Default registry at package
// init, so any binary that imports them can export the whole system's state
// from one /metrics endpoint.
//
// The package deliberately has no third-party dependencies: metric handles
// are plain atomics, the exposition format is written by hand, and profiling
// piggybacks on the evaluator's existing recursion.
package obs

import (
	"net/http"
	"net/http/pprof"
)

// defaultRegistry is the process-wide registry every package-level metric
// registers against.
var defaultRegistry = NewRegistry()

// Default returns the process-wide metrics registry.
func Default() *Registry { return defaultRegistry }

// Handler serves the registry in Prometheus text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}

// Mount registers the process-wide observability endpoints on a listener's
// console: /metrics serving the registry, the query console, the continuous
// profiler's capture ring (its captures downloadable from /debug/prof/{id}),
// the operator cost and estimator accuracy registries, and the /debug/pprof
// profiling handlers. Every serving binary (gmqld, genomenet host) calls
// this so operators get engine profiles, live query state, and runtime
// profiles from the same port the service answers on.
func Mount(c *Console, r *Registry) {
	c.mux.Handle("/metrics", r.Handler())
	c.list("/metrics", "Prometheus text exposition of every registered metric")
	c.Register(Queries().View())
	c.Register(Prof().View())
	c.mux.Handle("/debug/prof/", Prof().Download())
	c.Register(Costs().View())
	c.Register(Estimates().View())
	c.mux.HandleFunc("/debug/pprof/", pprof.Index)
	c.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	c.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	c.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	c.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	c.list("/debug/pprof/", "net/http/pprof runtime profiles (heap, cpu, goroutine, trace)")
}
