package federation

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"genogo/internal/engine"
	"genogo/internal/obs"
	"genogo/internal/resilience"
	"genogo/internal/synth"
)

// scrubSpans rewrites the volatile parts of a federated span snapshot —
// member base URLs (random httptest ports) and byte counts — so the rendered
// tree compares byte-for-byte across runs. Everything else (structure,
// operator details, sample/region flow, retry and breaker annotations) must
// already be deterministic.
func scrubSpans(root *obs.Span, urls map[string]string) {
	for _, sp := range root.Flatten() {
		for u, name := range urls {
			sp.Detail = strings.ReplaceAll(sp.Detail, u, name)
			if sp.Attrs["node"] == u {
				sp.Attrs["node"] = name
			}
		}
		if _, ok := sp.Attrs["bytes"]; ok {
			sp.Attrs["bytes"] = "_"
		}
	}
}

// TestTraceFederatedGoldenMergedTree runs a 3-member federated query — one
// member behind a seeded ChaosTransport that faults exactly the first
// execute attempt — and compares the rendered merged span tree, durations
// zeroed, against a golden. The tree must show coordinator planning, all
// three member fan-outs with their remote execution subtrees grafted in, the
// retry annotation on the flaky member's execute leg, chunked-download
// stages, and the final merge.
func TestTraceFederatedGoldenMergedTree(t *testing.T) {
	const perNode = 5
	_, ts1 := chaosNode(t, 1, perNode)
	_, ts2 := chaosNode(t, 2, perNode)
	_, ts3 := chaosNode(t, 3, perNode)
	// Seed 165's first draw is ~0.0006 (< 0.5: fault) and the next seven are
	// all >= 0.5 (pass): the member's first execute attempt answers 503 and
	// every later request of the query succeeds — one retry, deterministic.
	flaky := chaosClient(ts2.URL, &resilience.ChaosTransport{Seed: 165, ErrorRate: 0.5}, 3)
	fed := &Federator{
		Clients: []*Client{NewClient(ts1.URL), flaky, NewClient(ts3.URL)},
		Queries: obs.NewQueryRegistry(8),
	}
	ctx := obs.WithQueryID(context.Background(), "qgolden-1")
	ds, root, report, err := fed.QueryProfiled(ctx, chaosScript, "X", 4)
	if err != nil {
		t.Fatal(err)
	}
	if report != nil {
		t.Fatalf("report = %v", report)
	}
	if root == nil {
		t.Fatal("no merged span tree")
	}
	if len(ds.Samples) != 3*perNode {
		t.Fatalf("merged %d samples, want %d", len(ds.Samples), 3*perNode)
	}

	// Reconcile the grafted remote subtrees with the member responses: each
	// MEMBER's EXECUTE span reports what the node staged (QueryResponse
	// counts), and its grafted remote root must agree; the members must sum
	// to the merged result.
	snap := root.Snapshot()
	var memberSpans []*obs.Span
	for _, leg := range snap.Children {
		if leg.Op != "LEG" {
			continue
		}
		for _, c := range leg.Children {
			if c.Op == "MEMBER" {
				memberSpans = append(memberSpans, c)
			}
		}
	}
	if len(memberSpans) != 3 {
		t.Fatalf("tree has %d MEMBER spans, want 3", len(memberSpans))
	}
	sumSamples, sumRegions := 0, 0
	for i, m := range memberSpans {
		if len(m.Children) == 0 || m.Children[0].Op != "EXECUTE" {
			t.Fatalf("member %d first child = %+v", i, m.Children)
		}
		exec := m.Children[0]
		if len(exec.Children) != 1 {
			t.Fatalf("member %d EXECUTE has %d children, want the grafted remote tree", i, len(exec.Children))
		}
		remote := exec.Children[0]
		if !remote.Remote {
			t.Errorf("member %d grafted subtree not marked remote", i)
		}
		if remote.SamplesOut != exec.SamplesOut || remote.RegionsOut != exec.RegionsOut {
			t.Errorf("member %d: remote root out=%ds/%dr, execute reports %ds/%dr",
				i, remote.SamplesOut, remote.RegionsOut, exec.SamplesOut, exec.RegionsOut)
		}
		if m.SamplesOut != exec.SamplesOut || m.RegionsOut != exec.RegionsOut {
			t.Errorf("member %d: member out=%ds/%dr, execute out=%ds/%dr",
				i, m.SamplesOut, m.RegionsOut, exec.SamplesOut, exec.RegionsOut)
		}
		sumSamples += m.SamplesOut
		sumRegions += m.RegionsOut
	}
	if sumSamples != len(ds.Samples) {
		t.Errorf("member spans sum to %d samples, merged dataset has %d", sumSamples, len(ds.Samples))
	}
	rs := 0
	for i := range ds.Samples {
		rs += len(ds.Samples[i].Regions)
	}
	if sumRegions != rs {
		t.Errorf("member spans sum to %d regions, merged dataset has %d", sumRegions, rs)
	}
	// The flaky member's execute leg must carry the retry annotation; the
	// healthy members must not.
	if got := memberSpans[1].Children[0].Attrs["attempts"]; got != "2" {
		t.Errorf("flaky member execute attempts = %q, want 2", got)
	}
	if got := memberSpans[1].Attrs["retries"]; got != "1" {
		t.Errorf("flaky member retries = %q, want 1", got)
	}
	for _, i := range []int{0, 2} {
		if a := memberSpans[i].Children[0].Attrs["attempts"]; a != "" {
			t.Errorf("healthy member %d has attempts=%q", i, a)
		}
	}

	snap.ZeroDurations()
	scrubSpans(snap, map[string]string{ts1.URL: "node1", ts2.URL: "node2", ts3.URL: "node3"})
	got := snap.Render()
	want := `FEDERATED X (3 members)  [fed] time=0.0ms out=15s/108r
  PLAN X digest=b8b6cfbfbed5  [fed legs=3] time=0.0ms out=3s/0r
  LEG 0 x1  [fed attempts=1] time=0.0ms out=5s/28r
    MEMBER 1 node1  [fed breaker=closed bytes=_ role=primary] time=0.0ms out=5s/28r
      EXECUTE X  [fed] time=0.0ms out=5s/28r
        SELECT meta: true; region: true  [serial remote node=node1] time=0.0ms in=5s/28r out=5s/28r
          SCAN ENCODE  [serial remote] time=0.0ms out=5s/28r
      FETCH r000001  [fed] time=0.0ms in=5s/28r out=5s/28r
        CHUNK r000001 [0,4)  [fed] time=0.0ms out=4s/25r
        CHUNK r000001 [4,8)  [fed] time=0.0ms out=1s/3r
      RELEASE r000001  [fed] time=0.0ms out=0s/0r
  LEG 1 x1  [fed attempts=1] time=0.0ms out=5s/28r
    MEMBER 2 node2  [fed breaker=closed bytes=_ retries=1 role=primary] time=0.0ms out=5s/28r
      EXECUTE X  [fed attempts=2] time=0.0ms out=5s/28r
        SELECT meta: true; region: true  [serial remote node=node2] time=0.0ms in=5s/28r out=5s/28r
          SCAN ENCODE  [serial remote] time=0.0ms out=5s/28r
      FETCH r000001  [fed] time=0.0ms in=5s/28r out=5s/28r
        CHUNK r000001 [0,4)  [fed] time=0.0ms out=4s/24r
        CHUNK r000001 [4,8)  [fed] time=0.0ms out=1s/4r
      RELEASE r000001  [fed] time=0.0ms out=0s/0r
  LEG 2 x1  [fed attempts=1] time=0.0ms out=5s/52r
    MEMBER 3 node3  [fed breaker=closed bytes=_ role=primary] time=0.0ms out=5s/52r
      EXECUTE X  [fed] time=0.0ms out=5s/52r
        SELECT meta: true; region: true  [serial remote node=node3] time=0.0ms in=5s/52r out=5s/52r
          SCAN ENCODE  [serial remote] time=0.0ms out=5s/52r
      FETCH r000001  [fed] time=0.0ms in=5s/52r out=5s/52r
        CHUNK r000001 [0,4)  [fed] time=0.0ms out=4s/23r
        CHUNK r000001 [4,8)  [fed] time=0.0ms out=1s/29r
      RELEASE r000001  [fed] time=0.0ms out=0s/0r
  MERGE X (sample union)  [fed] time=0.0ms in=15s/108r out=15s/108r
`
	if got != want {
		t.Errorf("merged tree:\n%s\nwant:\n%s", got, want)
	}

	// The console entry finished as done, with the profile attached.
	e := fed.Queries.Get("qgolden-1")
	if e == nil {
		t.Fatal("coordinator registry has no entry")
	}
	if e.Status() != obs.StatusDone {
		t.Errorf("entry status = %s", e.Status())
	}
	for i, m := range e.Members() {
		if m.Stage != "done" {
			t.Errorf("member %d stage = %q", i, m.Stage)
		}
		if m.Breaker != "closed" {
			t.Errorf("member %d breaker = %q", i, m.Breaker)
		}
	}
	if e.Members()[1].Attempts != 1 {
		t.Errorf("flaky member console retries = %d, want 1", e.Members()[1].Attempts)
	}
}

// TestTraceHeaderPropagation: every request of a federated query carries
// X-Query-ID, the execute request carries the coordinator MEMBER span
// reference in X-Parent-Span, and the node files its execution under that
// identity in its own registry.
func TestTraceHeaderPropagation(t *testing.T) {
	nodeReg := obs.NewQueryRegistry(8)
	srv, _ := chaosNode(t, 7, 3)
	srv.Queries = nodeReg

	var mu sync.Mutex
	type seen struct{ path, qid, parent string }
	var requests []seen
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		requests = append(requests, seen{r.URL.Path, r.Header.Get(obs.HeaderQueryID), r.Header.Get(obs.HeaderParentSpan)})
		mu.Unlock()
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	fed := &Federator{Clients: []*Client{NewClient(ts.URL)}, Queries: obs.NewQueryRegistry(8)}
	ctx := obs.WithQueryID(context.Background(), "qhdr-1")
	if _, _, _, err := fed.QueryProfiled(ctx, chaosScript, "X", 4); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(requests) == 0 {
		t.Fatal("no requests observed")
	}
	sawExecute := false
	for _, r := range requests {
		if r.qid != "qhdr-1" {
			t.Errorf("%s carried X-Query-ID %q", r.path, r.qid)
		}
		if r.path == "/query" {
			sawExecute = true
			if r.parent != "qhdr-1/leg0/member1.1" {
				t.Errorf("execute X-Parent-Span = %q", r.parent)
			}
		}
	}
	if !sawExecute {
		t.Error("no /query request observed")
	}

	// The node filed the execution under the propagated identity.
	e := nodeReg.Get("qhdr-1")
	if e == nil {
		t.Fatal("node registry has no entry for the propagated id")
	}
	if e.ParentSpan() != "qhdr-1/leg0/member1.1" {
		t.Errorf("node entry parent span = %q", e.ParentSpan())
	}
	if e.Status() != obs.StatusDone {
		t.Errorf("node entry status = %s", e.Status())
	}
	if e.Root() == nil {
		t.Error("node entry recorded no profile")
	}
}

// TestTraceUnprofiledQueryRegistersToo: plain Query (no profile) still gets
// an identity, console entry and member states — only the span tree is
// absent.
func TestTraceUnprofiledQueryRegisters(t *testing.T) {
	_, ts := chaosNode(t, 8, 3)
	fed := &Federator{Clients: []*Client{NewClient(ts.URL)}, Queries: obs.NewQueryRegistry(8)}
	if _, _, err := fed.Query(context.Background(), chaosScript, "X", 4); err != nil {
		t.Fatal(err)
	}
	rec := fed.Queries.Recent()
	if len(rec) != 1 {
		t.Fatalf("recent = %d entries", len(rec))
	}
	e := rec[0]
	if e.Status() != obs.StatusDone {
		t.Errorf("status = %s", e.Status())
	}
	if ms := e.Members(); len(ms) != 1 || ms[0].Stage != "done" {
		t.Errorf("members = %+v", e.Members())
	}
	if e.Root() != nil {
		t.Errorf("unprofiled query recorded a span tree")
	}
}

// TestTracePartialFailureCarriesQueryID: the failure report names the query,
// its Error() text leads with it, and the console entry finishes partial.
func TestTracePartialFailureCarriesQueryID(t *testing.T) {
	_, ts1 := chaosNode(t, 9, 3)
	_, ts2 := chaosNode(t, 10, 3)
	dead := chaosClient(ts2.URL, &resilience.ChaosTransport{Seed: 9, DropRate: 1}, 0)
	fed := &Federator{
		Clients: []*Client{NewClient(ts1.URL), dead},
		Policy:  Policy{AllowPartial: true},
		Queries: obs.NewQueryRegistry(8),
	}
	ctx := obs.WithQueryID(context.Background(), "qpart-1")
	_, report, err := fed.Query(ctx, chaosScript, "X", 4)
	if err != nil {
		t.Fatal(err)
	}
	if report == nil {
		t.Fatal("no partial report")
	}
	if report.QueryID != "qpart-1" {
		t.Errorf("report query id = %q", report.QueryID)
	}
	if !strings.Contains(report.Error(), "query qpart-1") {
		t.Errorf("report error lacks the query id: %s", report.Error())
	}
	e := fed.Queries.Get("qpart-1")
	if e == nil || e.Status() != obs.StatusPartial {
		t.Fatalf("entry = %v status = %v", e, e.Status())
	}
	ms := e.Members()
	if ms[0].Stage != "done" || ms[1].Stage != "failed:execute" {
		t.Errorf("member stages = %q, %q", ms[0].Stage, ms[1].Stage)
	}
	if ms[1].Err == "" {
		t.Errorf("failed member has no error text")
	}
}

// holdHandler wraps a node handler and blocks /query requests until
// released, so a test can observe a federated query mid-flight.
type holdHandler struct {
	inner http.Handler
	gate  chan struct{}
	once  sync.Once
	began chan struct{}
}

func (h *holdHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/query" {
		h.once.Do(func() { close(h.began) })
		<-h.gate
	}
	h.inner.ServeHTTP(w, r)
}

// TestConsoleLiveFederatedQuery inspects the coordinator's /debug/queries
// console while a federated query is blocked mid-execute: the entry must be
// listed active with live member states and a snapshot-rendered profile,
// then finish and move to the recent ring once the member is released.
func TestConsoleLiveFederatedQuery(t *testing.T) {
	srv, _ := chaosNode(t, 11, 3)
	hold := &holdHandler{inner: srv.Handler(), gate: make(chan struct{}), began: make(chan struct{})}
	ts := httptest.NewServer(hold)
	t.Cleanup(ts.Close)

	reg := obs.NewQueryRegistry(8)
	fed := &Federator{Clients: []*Client{NewClient(ts.URL)}, Queries: reg}
	mux := http.NewServeMux()
	obs.NewConsole(mux).Register(reg.View())
	console := httptest.NewServer(mux)
	t.Cleanup(console.Close)

	ctx := obs.WithQueryID(context.Background(), "qlive-1")
	done := make(chan error, 1)
	go func() {
		_, _, _, err := fed.QueryProfiled(ctx, chaosScript, "X", 4)
		done <- err
	}()

	select {
	case <-hold.began:
	case <-time.After(10 * time.Second):
		t.Fatal("query never reached the member")
	}

	// Mid-flight: the console lists the query as running, with the member
	// still in its execute stage, and the drill-down renders the (partial)
	// merged tree — the PLAN span is finished, the MEMBER span is not.
	resp, err := http.Get(console.URL + "/debug/queries/qlive-1?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Status   obs.QueryStatus   `json:"status"`
		Members  []obs.MemberState `json:"members"`
		Rendered string            `json:"rendered"`
		Progress obs.Progress      `json:"progress"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.Status != obs.StatusRunning {
		t.Errorf("mid-flight status = %s", out.Status)
	}
	if len(out.Members) != 1 || out.Members[0].Stage != "execute" {
		t.Errorf("mid-flight members = %+v", out.Members)
	}
	if !strings.Contains(out.Rendered, "FEDERATED X (1 members)") {
		t.Errorf("mid-flight rendered tree:\n%s", out.Rendered)
	}
	if out.Progress.SpansSeen < 2 || out.Progress.SpansDone < 1 {
		t.Errorf("mid-flight progress = %+v", out.Progress)
	}

	close(hold.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Finished: moved to the recent ring, done, member done.
	resp2, err := http.Get(console.URL + "/debug/queries/qlive-1?format=json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if out.Status != obs.StatusDone {
		t.Errorf("final status = %s", out.Status)
	}
	if out.Members[0].Stage != "done" {
		t.Errorf("final member stage = %q", out.Members[0].Stage)
	}
	if len(reg.Active()) != 0 {
		t.Errorf("finished query still active")
	}
}

// benchFederator builds a 3-member federation over httptest nodes.
func benchFederator(b *testing.B) *Federator {
	b.Helper()
	var clients []*Client
	for i := 0; i < 3; i++ {
		g := synth.New(int64(70 + i))
		srv := NewServer("n", engine.Config{Mode: engine.ModeSerial, MetaFirst: true},
			g.Encode(synth.EncodeOptions{Samples: 8, MeanPeaks: 16}))
		ts := httptest.NewServer(srv.Handler())
		b.Cleanup(ts.Close)
		clients = append(clients, NewClient(ts.URL))
	}
	return &Federator{Clients: clients, Queries: obs.NewQueryRegistry(8)}
}

// BenchmarkFederatedQuery and BenchmarkFederatedQueryProfiled measure what
// the merged span tree costs on top of a full federated round trip
// (execute + chunked fetch + release per member, over loopback HTTP).
func BenchmarkFederatedQuery(b *testing.B) {
	fed := benchFederator(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fed.Query(context.Background(), chaosScript, "X", 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFederatedQueryProfiled(b *testing.B) {
	fed := benchFederator(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := fed.QueryProfiled(context.Background(), chaosScript, "X", 4); err != nil {
			b.Fatal(err)
		}
	}
}
