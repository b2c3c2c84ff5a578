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
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"genogo/internal/catalog"
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
	name    string
	cfg     engine.Config
	mu      sync.Mutex
	data    map[string]*gdm.Dataset
	staged  map[string]*formats.Frame // results, encoded once for the wire
	nextID  int
	maxStay int // max staged results kept (limited staging)

	// repo is the node's repository catalog: every registered dataset with
	// its zone statistics, served on /debug/repo.
	repo *catalog.Registry
	// statsMemo caches statsOf per dataset name (see Server.stats).
	statsMemo map[string]memoStats

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

// NewServer builds a node over its local datasets.
func NewServer(name string, cfg engine.Config, datasets ...*gdm.Dataset) *Server {
	s := &Server{
		name: name, cfg: cfg,
		data:   make(map[string]*gdm.Dataset),
		staged: make(map[string]*formats.Frame),
		// The paper calls for "a limited amount of staging at the sites
		// hosting the services".
		maxStay:   16,
		repo:      catalog.NewRegistry(),
		statsMemo: make(map[string]memoStats),
	}
	for _, ds := range datasets {
		s.data[ds.Name] = ds
		s.repo.Record(catalog.Info{Name: ds.Name, Source: catalog.SourceMemory, Dataset: ds})
	}
	return s
}

// AddDataset registers one more local dataset. Re-registering a name drops
// its memoized statistics and refiles it in the node catalog.
func (s *Server) AddDataset(ds *gdm.Dataset) {
	s.mu.Lock()
	s.data[ds.Name] = ds
	delete(s.statsMemo, ds.Name)
	s.mu.Unlock()
	s.repo.Record(catalog.Info{Name: ds.Name, Source: catalog.SourceMemory, Dataset: ds})
}

// Repo exposes the node's repository catalog (tests, embedding servers).
func (s *Server) Repo() *catalog.Registry { return s.repo }

// catalog implements engine.Catalog over the node's local data.
func (s *Server) catalog() engine.MapCatalog {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(engine.MapCatalog, len(s.data))
	for k, v := range s.data {
		out[k] = v
	}
	return out
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
	c.Register(s.repo.View())
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
	s.mu.Lock()
	staged, datasets := len(s.staged), len(s.data)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok": true, "node": s.name, "datasets": datasets, "staged": staged,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) infos() []DatasetInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]DatasetInfo, 0, len(s.data))
	for _, ds := range s.data {
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
		out = append(out, info)
	}
	return out
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	infos := s.infos()
	// Deterministic order for clients and tests.
	for i := 0; i < len(infos); i++ {
		for j := i + 1; j < len(infos); j++ {
			if infos[j].Name < infos[i].Name {
				infos[i], infos[j] = infos[j], infos[i]
			}
		}
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
	s.mu.Lock()
	ds := s.data[name]
	s.mu.Unlock()
	if ds == nil {
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
	est := EstimatePlan(plan, s.stats())
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
	catalog := s.catalog()
	if len(req.UserDataset) > 0 {
		// The private dataset lives only in this request's catalog copy.
		user, err := formats.DecodeDataset(bytes.NewReader(req.UserDataset))
		if err != nil {
			fail(http.StatusOK, "user dataset: "+err.Error())
			return
		}
		catalog[user.Name] = user
	}
	runner := &gmql.Runner{
		Config: s.cfg, Catalog: catalog, SlowLog: s.SlowLog,
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
	predicted := EstimatePlan(engine.Optimize(prog.Plan(req.Var)), s.stats())
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
