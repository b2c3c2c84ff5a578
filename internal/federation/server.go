// Package federation implements the federated query processing vision of
// Section 4.4 of the paper: each node owns its locally produced datasets;
// GMQL queries move from a requesting node to a remote node, are locally
// executed there, and only the (small) results travel back, with staged
// retrieval so the requester controls staging resources and communication
// load.
//
// The protocol is HTTP+JSON for control messages and binary frames of .gdmc
// images (formats.EncodeDataset) for dataset payloads, exactly the three
// interactions the paper lists: dataset information, query compilation with
// result-size estimates, and execution with controlled result transmission.
package federation

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"genogo/internal/engine"
	"genogo/internal/formats"
	"genogo/internal/gdm"
	"genogo/internal/gmql"
	"genogo/internal/govern"
	"genogo/internal/obs"
)

// DatasetInfo describes one remote dataset: the metadata a requester needs
// to locate data of interest and formalize queries against its schema.
type DatasetInfo struct {
	Name           string         `json:"name"`
	Samples        int            `json:"samples"`
	Regions        int            `json:"regions"`
	EstimatedBytes int64          `json:"estimated_bytes"`
	Schema         []SchemaField  `json:"schema"`
	MetaAttributes map[string]int `json:"meta_attributes"` // attr -> #samples carrying it
}

// SchemaField is one schema entry on the wire.
type SchemaField struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// CompileRequest asks a node to compile (not run) a query.
type CompileRequest struct {
	Script string `json:"script"`
	Var    string `json:"var"`
}

// CompileResponse reports compilation results, including the result size
// estimate the paper's protocol requires.
type CompileResponse struct {
	OK       bool     `json:"ok"`
	Error    string   `json:"error,omitempty"`
	Explain  string   `json:"explain,omitempty"`
	Estimate Estimate `json:"estimate"`
}

// QueryRequest asks a node to execute a query and stage the result.
//
// UserDataset optionally carries a private input dataset of the requester
// (Section 4.3: "it will be possible to provide user input samples to the
// services, whose privacy will be protected"): the frame encoding of a
// dataset that joins the node's catalog for this request only — it is never
// listed, stored, or visible to other requests.
type QueryRequest struct {
	Script      string `json:"script"`
	Var         string `json:"var"`
	UserDataset []byte `json:"user_dataset,omitempty"` // formats.EncodeDataset output
	// Profile asks the node to record an execution span tree and return it
	// in QueryResponse.Profile — EXPLAIN ANALYZE over the federation wire.
	Profile bool `json:"profile,omitempty"`
}

// QueryResponse describes a staged result.
type QueryResponse struct {
	OK       bool   `json:"ok"`
	Error    string `json:"error,omitempty"`
	ResultID string `json:"result_id,omitempty"`
	Samples  int    `json:"samples"`
	Regions  int    `json:"regions"`
	Bytes    int64  `json:"bytes"`
	// QueryID is the identity the node filed the execution under — the
	// request's X-Query-ID when present, otherwise minted by the node — and
	// Node names the answering node. Together they let a requester find this
	// execution in the node's /debug/queries console and slow log.
	QueryID string `json:"query_id,omitempty"`
	Node    string `json:"node,omitempty"`
	// Profile is the node-side execution span tree, present only when the
	// request asked for one.
	Profile *obs.Span `json:"profile,omitempty"`
}

// Server is one federation node.
type Server struct {
	name string
	cfg  engine.Config
	// cat is the node's one catalog: its datasets, their statistics and
	// the /debug/repo view.
	cat     *formats.DirCatalog
	mu      sync.Mutex
	staged  map[string]*formats.Frame // results, encoded once for the wire
	nextID  int
	maxStay int // max staged results kept (limited staging)

	// SlowLog, when non-nil, receives a structured record for every query
	// this node executes slower than the log's threshold. Set it before
	// serving.
	SlowLog *obs.SlowQueryLog

	// Queries is the registry node-side executions register in for the
	// /debug/queries console; nil means the process-wide obs.Queries(). Set
	// it before serving.
	Queries *obs.QueryRegistry

	// Gate, when non-nil, admission-controls /query: over-capacity requests
	// queue in the gate and are shed with 429 + Retry-After (503 while
	// draining). Set it before serving.
	Gate *govern.Gate

	// Limits are the per-query resource budgets applied to every execution.
	// The zero value disables budgets; cancellation (client disconnect) is
	// always honored.
	Limits engine.Limits

	// Membership, when non-nil, feeds this node's /debug/federation console
	// with a coordinator's membership view (gmqld wires its peer prober
	// here). Nil serves an empty membership. Set it before calling Handler.
	Membership func() MembershipSnapshot
}

// queries resolves the console registry.
func (s *Server) queries() *obs.QueryRegistry {
	if s.Queries != nil {
		return s.Queries
	}
	return obs.Queries()
}

// NewServer builds a node over datasets registered in memory.
func NewServer(name string, cfg engine.Config, datasets ...*gdm.Dataset) *Server {
	cat := &formats.DirCatalog{}
	for _, ds := range datasets {
		cat.Add(ds)
	}
	return NewCatalogServer(name, cfg, cat)
}

// NewCatalogServer builds a node serving a catalog: gmqld hands it the
// repository catalog it warmed at boot.
func NewCatalogServer(name string, cfg engine.Config, cat *formats.DirCatalog) *Server {
	return &Server{
		name: name, cfg: cfg, cat: cat,
		staged: make(map[string]*formats.Frame),
		// The paper calls for "a limited amount of staging at the sites
		// hosting the services".
		maxStay: 16,
	}
}

// AddDataset registers one more local dataset in memory. Re-registering a
// name replaces the dataset and drops its statistics.
func (s *Server) AddDataset(ds *gdm.Dataset) { s.cat.Add(ds) }

// requestCatalog is one request's view of the node: the requester's private
// dataset, if any, shadows the node catalog for this request only. It is a
// plain engine.Catalog: every dataset of a node is held in memory, so a
// pruned read could only re-read the disk.
type requestCatalog struct {
	user *gdm.Dataset
	node *formats.DirCatalog
}

// Dataset implements engine.Catalog.
func (c requestCatalog) Dataset(name string) (*gdm.Dataset, error) {
	if c.user != nil && c.user.Name == name {
		return c.user, nil
	}
	return c.node.Dataset(name)
}

// Handler returns the node's HTTP handler. Besides the federation protocol
// it registers the node's debug console: the live query console on
// /debug/queries, so an operator can inspect what a member is executing (and
// for whom — entries carry the coordinator's QueryID) straight from the
// node's own port, plus its membership view, recent pprof captures, learned
// per-operator costs, repository catalog and estimator accuracy.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/datasets", s.handleDatasets)
	mux.HandleFunc("/datasets/", s.handleDatasetStream)
	mux.HandleFunc("/compile", s.handleCompile)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/results/", s.handleResults)
	mux.HandleFunc("/health", s.handleHealth)
	c := obs.NewConsole(mux)
	c.Register(MembershipView(s.Membership))
	c.Register(s.queries().View())
	c.Register(obs.Prof().View())
	mux.Handle("/debug/prof/", obs.Prof().Download())
	c.Register(obs.Costs().View())
	c.Register(s.cat.View())
	c.Register(obs.Estimates().View())
	return mux
}

// handleHealth answers the membership prober: a cheap liveness probe that
// touches no datasets. It reports the node name and staging occupancy so a
// human probing by hand learns something too.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	staged, datasets := s.StagedCount(), len(s.cat.Held())
	writeJSON(w, http.StatusOK, map[string]any{
		"ok": true, "node": s.name, "datasets": datasets, "staged": staged,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	held := s.cat.Held()
	infos := make([]DatasetInfo, 0, len(held))
	for _, ds := range held {
		info := DatasetInfo{
			Name:           ds.Name,
			Samples:        len(ds.Samples),
			Regions:        ds.NumRegions(),
			EstimatedBytes: ds.EstimateBytes(),
			MetaAttributes: make(map[string]int),
		}
		for _, f := range ds.Schema.Fields() {
			info.Schema = append(info.Schema, SchemaField{Name: f.Name, Type: f.Type.String()})
		}
		for _, smp := range ds.Samples {
			for _, attr := range smp.Meta.Attrs() {
				info.MetaAttributes[attr]++
			}
		}
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, infos)
}

// handleDatasetStream serves GET /datasets/{name}/stream — the full-dataset
// transfer a NAIVE (non-federated) architecture needs; the federated path
// never uses it for large inputs. It is also what the Internet-of-Genomes
// crawler downloads.
func (s *Server) handleDatasetStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/datasets/")
	name := strings.TrimSuffix(rest, "/stream")
	if name == rest || name == "" {
		http.Error(w, "want /datasets/{name}/stream", http.StatusNotFound)
		return
	}
	ds, err := s.cat.Dataset(name)
	if err != nil {
		http.Error(w, "unknown dataset", http.StatusNotFound)
		return
	}
	formats.ServeDataset(w, ds)
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req CompileRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, CompileResponse{Error: err.Error()})
		return
	}
	prog, err := gmql.Parse(req.Script)
	if err != nil {
		writeJSON(w, http.StatusOK, CompileResponse{Error: err.Error()})
		return
	}
	plan := engine.Optimize(prog.Plan(req.Var))
	est := EstimatePlan(plan, s.cat.Stats)
	writeJSON(w, http.StatusOK, CompileResponse{
		OK:       true,
		Explain:  engine.Explain(plan),
		Estimate: est,
	})
}

const stagingFullMsg = "staging area full; release results first"

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, QueryResponse{Error: err.Error()})
		return
	}
	// The execution files under the requester's query identity when the
	// request carries one (trace propagation); otherwise the node mints its
	// own, so direct queries are visible in the console too.
	qid := r.Header.Get(obs.HeaderQueryID)
	if qid == "" {
		qid = obs.NewQueryID()
	}
	entry := s.queries().Begin(qid, s.name, req.Var, req.Script)
	entry.SetParentSpan(r.Header.Get(obs.HeaderParentSpan))
	fail := func(status int, msg string) {
		s.queries().Finish(entry, obs.StatusFailed, msg)
		writeJSON(w, status, QueryResponse{Error: msg, QueryID: qid, Node: s.name})
	}
	// A client that never releases must not make every later request pay for
	// a full evaluation to learn that: refuse before parsing. The check after
	// the evaluation stays for requests that race past this one.
	if s.StagedCount() >= s.maxStay {
		fail(http.StatusServiceUnavailable, stagingFullMsg)
		return
	}
	if s.Gate != nil {
		release, gerr := s.Gate.Acquire(r.Context(), 1)
		if gerr != nil {
			var serr *govern.ShedError
			reason := "shed"
			if errors.As(gerr, &serr) {
				reason = serr.Reason
			}
			s.queries().Finish(entry, obs.StatusShed, reason)
			s.SlowLog.ObserveKilled(qid, req.Var, string(obs.StatusShed), reason, 0)
			w.Header().Set("Content-Type", "application/json")
			if govern.WriteShed(w, gerr) {
				// Status and Retry-After are out; the JSON body still carries
				// the reason for protocol-level clients.
				_ = json.NewEncoder(w).Encode(QueryResponse{Error: gerr.Error(), QueryID: qid, Node: s.name})
				return
			}
			fail(http.StatusServiceUnavailable, gerr.Error())
			return
		}
		defer release()
	}
	prog, err := gmql.Parse(req.Script)
	if err != nil {
		fail(http.StatusOK, err.Error())
		return
	}
	cat := requestCatalog{node: s.cat}
	if len(req.UserDataset) > 0 {
		// The private dataset lives only in this request's catalog.
		if cat.user, err = formats.DecodeFrame(req.UserDataset); err != nil {
			fail(http.StatusOK, "user dataset: "+err.Error())
			return
		}
	}
	runner := &gmql.Runner{
		Config: s.cfg, Catalog: cat, SlowLog: s.SlowLog,
		QueryID: qid, SpanObserver: entry.SetRoot, Limits: s.Limits,
	}
	metricNodeQueries.Inc()
	// Always profiled: the span tree feeds the live console and the slow
	// log on every execution (profiling overhead is within noise, see
	// EXPERIMENTS.md); the tree goes on the wire only when asked for.
	// Evaluation is governed by the request context, so a disconnected (or
	// deadline-killed) requester cancels the engine workers instead of
	// leaving them burning CPU on an answer nobody will read.
	ds, sp, err := runner.EvalProfiledContext(r.Context(), prog, req.Var)
	if err != nil {
		if reason, ok := engine.Killed(err); ok {
			s.queries().Finish(entry, gmql.KilledStatus(reason), reason+": "+err.Error())
			writeJSON(w, http.StatusOK, QueryResponse{Error: err.Error(), QueryID: qid, Node: s.name})
			return
		}
		fail(http.StatusOK, err.Error())
		return
	}
	// The result is encoded once, here; every chunk request then serves a
	// copy of part of the frame, and the dataset itself is not kept.
	frame, err := formats.NewFrame(ds)
	if err != nil {
		fail(http.StatusOK, "result: "+err.Error())
		return
	}
	s.mu.Lock()
	if len(s.staged) >= s.maxStay {
		s.mu.Unlock()
		fail(http.StatusServiceUnavailable, stagingFullMsg)
		return
	}
	s.nextID++
	id := fmt.Sprintf("r%06d", s.nextID)
	s.staged[id] = frame
	metricStagedResults.Set(int64(len(s.staged)))
	s.mu.Unlock()
	s.queries().Finish(entry, obs.StatusDone, "")
	resp := QueryResponse{
		OK: true, ResultID: id,
		Samples: len(ds.Samples), Regions: ds.NumRegions(), Bytes: frame.Size(),
		QueryID: qid, Node: s.name,
	}
	// Close the estimator's feedback loop: every finished execution files its
	// compile-time prediction against the real result size, so /debug/estimates
	// shows how far off the estimator runs (and in which direction).
	predicted := EstimatePlan(engine.Optimize(prog.Plan(req.Var)), s.cat.Stats)
	obs.Estimates().Observe(qid, req.Var,
		map[string]int64{
			obs.EstDimSamples: int64(predicted.Samples),
			obs.EstDimRegions: int64(predicted.Regions),
			obs.EstDimBytes:   predicted.Bytes,
		},
		map[string]int64{
			obs.EstDimSamples: int64(resp.Samples),
			obs.EstDimRegions: int64(resp.Regions),
			obs.EstDimBytes:   resp.Bytes,
		})
	if req.Profile {
		resp.Profile = sp
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleResults serves staged results:
//
//	GET    /results/{id}?start=S&count=N   stream samples [S, S+N)
//	DELETE /results/{id}                   release the staging
//
// A GET copies part of the staged frame; nothing is encoded here.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/results/")
	if id == "" {
		http.Error(w, "want /results/{id}", http.StatusNotFound)
		return
	}
	s.mu.Lock()
	frame := s.staged[id]
	s.mu.Unlock()
	switch r.Method {
	case http.MethodDelete:
		s.mu.Lock()
		delete(s.staged, id)
		metricStagedResults.Set(int64(len(s.staged)))
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	case http.MethodGet:
		if frame == nil {
			http.Error(w, "unknown result", http.StatusNotFound)
			return
		}
		start, count := 0, frame.Samples()
		for _, p := range []struct {
			key string
			dst *int
		}{{"start", &start}, {"count", &count}} {
			if v := r.URL.Query().Get(p.key); v != "" {
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					http.Error(w, "bad "+p.key, http.StatusBadRequest)
					return
				}
				*p.dst = n
			}
		}
		// The frame clamps the window to its samples.
		w.Header().Set("X-Total-Samples", strconv.Itoa(frame.Samples()))
		frame.ServeRange(w, start, count)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// StagedCount reports how many results are currently staged (for tests and
// capacity monitoring).
func (s *Server) StagedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.staged)
}
