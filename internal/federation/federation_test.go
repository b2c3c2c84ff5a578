package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"genogo/internal/engine"
	"genogo/internal/gdm"
	"genogo/internal/obs"
	"genogo/internal/synth"
)

// newNode spins up a test node holding a synthetic ENCODE slice plus the
// shared annotations.
func newNode(t *testing.T, name string, seed int64, samples int) (*Server, *httptest.Server) {
	t.Helper()
	g := synth.New(seed)
	enc := g.Encode(synth.EncodeOptions{Samples: samples, MeanPeaks: 30})
	anns := g.Annotations(g.Genes(50))
	srv := NewServer(name, engine.Config{Mode: engine.ModeSerial}, enc, anns)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

const fedScript = `
PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
RESULT = MAP(peak_count AS COUNT) PROMS PEAKS;
MATERIALIZE RESULT;
`

func TestListDatasets(t *testing.T) {
	_, ts := newNode(t, "node1", 1, 20)
	c := NewClient(ts.URL)
	infos, err := c.ListDatasets(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("datasets = %d", len(infos))
	}
	if infos[0].Name != "ANNOTATIONS" || infos[1].Name != "ENCODE" {
		t.Errorf("order = %s,%s", infos[0].Name, infos[1].Name)
	}
	enc := infos[1]
	if enc.Samples != 20 || enc.Regions == 0 || enc.EstimatedBytes == 0 {
		t.Errorf("ENCODE info = %+v", enc)
	}
	if enc.MetaAttributes["dataType"] != 20 {
		t.Errorf("dataType coverage = %d", enc.MetaAttributes["dataType"])
	}
	if len(enc.Schema) != 2 || enc.Schema[0].Name != "p_value" {
		t.Errorf("schema = %v", enc.Schema)
	}
	if c.BytesReceived == 0 {
		t.Error("traffic accounting broken")
	}
}

func TestCompileWithEstimate(t *testing.T) {
	_, ts := newNode(t, "node1", 2, 30)
	c := NewClient(ts.URL)
	resp, err := c.Compile(context.Background(), fedScript, "RESULT")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("compile failed: %s", resp.Error)
	}
	if !strings.Contains(resp.Explain, "MAP") {
		t.Errorf("explain = %q", resp.Explain)
	}
	if resp.Estimate.Samples <= 0 || resp.Estimate.Regions <= 0 || resp.Estimate.Bytes <= 0 {
		t.Errorf("estimate = %+v", resp.Estimate)
	}
	// Broken script: compile error travels back, not an HTTP failure.
	bad, err := c.Compile(context.Background(), "X = FROB() Y;", "X")
	if err != nil {
		t.Fatal(err)
	}
	if bad.OK || bad.Error == "" {
		t.Errorf("bad compile = %+v", bad)
	}
}

func TestExecuteAndStagedRetrieval(t *testing.T) {
	srv, ts := newNode(t, "node1", 3, 25)
	c := NewClient(ts.URL)
	qr, err := c.Execute(context.Background(), fedScript, "RESULT")
	if err != nil {
		t.Fatal(err)
	}
	if qr.ResultID == "" || qr.Samples == 0 || qr.Regions == 0 {
		t.Fatalf("query response = %+v", qr)
	}
	if srv.StagedCount() != 1 {
		t.Errorf("staged = %d", srv.StagedCount())
	}
	// Retrieve in chunks of 3 samples.
	ds, err := c.FetchAll(context.Background(), qr.ResultID, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Samples) != qr.Samples || ds.NumRegions() != qr.Regions {
		t.Errorf("fetched %d samples / %d regions, staged %d / %d",
			len(ds.Samples), ds.NumRegions(), qr.Samples, qr.Regions)
	}
	if err := c.Release(context.Background(), qr.ResultID); err != nil {
		t.Fatal(err)
	}
	if srv.StagedCount() != 0 {
		t.Error("release did not free staging")
	}
	// Fetching a released result fails.
	if _, _, err := c.FetchChunk(context.Background(), qr.ResultID, 0, 1); err == nil {
		t.Error("fetch after release succeeded")
	}
}

func TestChunkBoundaries(t *testing.T) {
	_, ts := newNode(t, "node1", 4, 10)
	c := NewClient(ts.URL)
	qr, err := c.Execute(context.Background(), `X = SELECT() ENCODE; MATERIALIZE X;`, "X")
	if err != nil {
		t.Fatal(err)
	}
	chunk, total, err := c.FetchChunk(context.Background(), qr.ResultID, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	if total != 10 || len(chunk.Samples) != 2 {
		t.Errorf("tail chunk = %d of %d", len(chunk.Samples), total)
	}
	beyond, _, err := c.FetchChunk(context.Background(), qr.ResultID, 99, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(beyond.Samples) != 0 {
		t.Error("chunk beyond end non-empty")
	}
}

func TestStagingLimit(t *testing.T) {
	srv, ts := newNode(t, "node1", 5, 5)
	srv.maxStay = 2
	c := NewClient(ts.URL)
	q1, err := c.Execute(context.Background(), `X = SELECT() ENCODE; MATERIALIZE X;`, "X")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(context.Background(), `X = SELECT() ENCODE; MATERIALIZE X;`, "X"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(context.Background(), `X = SELECT() ENCODE; MATERIALIZE X;`, "X"); err == nil {
		t.Error("staging limit not enforced")
	}
	// Releasing frees a slot.
	if err := c.Release(context.Background(), q1.ResultID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(context.Background(), `X = SELECT() ENCODE; MATERIALIZE X;`, "X"); err != nil {
		t.Errorf("slot not freed: %v", err)
	}
}

// TestStagingFullRejectsBeforeEvaluation: with the staging area full, /query
// answers 503 without entering the engine (the Stall hook runs before every
// engine work item), so an unreleased backlog cannot burn evaluations.
func TestStagingFullRejectsBeforeEvaluation(t *testing.T) {
	srv, ts := newNode(t, "node1", 5, 5)
	srv.maxStay = 1
	c := NewClient(ts.URL)
	staged, err := c.Execute(context.Background(), fedScript, "RESULT")
	if err != nil {
		t.Fatal(err)
	}
	var entered atomic.Int64
	srv.cfg.Stall = func(<-chan struct{}) { entered.Add(1) }
	body, _ := json.Marshal(QueryRequest{Script: fedScript, Var: "RESULT"})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}
	if n := entered.Load(); n != 0 {
		t.Errorf("engine ran %d work items for a request the staging area could not hold", n)
	}
	if err := c.Release(context.Background(), staged.ResultID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(context.Background(), fedScript, "RESULT"); err != nil {
		t.Fatalf("after release: %v", err)
	}
	if entered.Load() == 0 {
		t.Error("Stall hook never ran: the test cannot tell whether the engine was entered")
	}
}

func TestRemoteQueryError(t *testing.T) {
	_, ts := newNode(t, "node1", 6, 5)
	c := NewClient(ts.URL)
	if _, err := c.Execute(context.Background(), `X = SELECT() NO_SUCH; MATERIALIZE X;`, "X"); err == nil {
		t.Error("remote error not surfaced")
	}
	if _, err := c.Execute(context.Background(), `garbage`, "X"); err == nil {
		t.Error("parse error not surfaced")
	}
}

func TestFederatedVsNaiveEquivalenceAndTraffic(t *testing.T) {
	_, ts1 := newNode(t, "node1", 7, 15)
	_, ts2 := newNode(t, "node2", 8, 15)

	fed := &Federator{Clients: []*Client{NewClient(ts1.URL), NewClient(ts2.URL)}}
	fedResult, partial, err := fed.Query(context.Background(), fedScript, "RESULT", 4)
	if err != nil {
		t.Fatal(err)
	}
	if partial != nil {
		t.Fatalf("healthy members reported failures: %v", partial)
	}
	fedBytes := fed.BytesMoved()

	naive := &Federator{Clients: []*Client{NewClient(ts1.URL), NewClient(ts2.URL)}}
	naiveResult, err := naive.QueryNaive(context.Background(), fedScript, "RESULT",
		[]string{"ANNOTATIONS", "ENCODE"},
		engine.Config{Mode: engine.ModeSerial})
	if err != nil {
		t.Fatal(err)
	}
	naiveBytes := naive.BytesMoved()

	if len(fedResult.Samples) != len(naiveResult.Samples) {
		t.Errorf("architectures disagree: %d vs %d samples",
			len(fedResult.Samples), len(naiveResult.Samples))
	}
	if fedResult.NumRegions() != naiveResult.NumRegions() {
		t.Errorf("architectures disagree: %d vs %d regions",
			fedResult.NumRegions(), naiveResult.NumRegions())
	}
	t.Logf("federated moved %d bytes, naive moved %d bytes", fedBytes, naiveBytes)
	if fedBytes <= 0 || naiveBytes <= 0 {
		t.Fatal("traffic accounting broken")
	}
	// The paper's claim: queries are short texts; shipping them beats
	// shipping the data. The MAP result here is not tiny (it scales with
	// promoters x samples), but input shipping must still dominate the
	// naive bill given the non-selected RnaSeq/DnaseSeq samples travel too.
	if naiveBytes <= fedBytes/2 {
		t.Errorf("expected naive to move far more data: naive=%d federated=%d", naiveBytes, fedBytes)
	}
}

func TestDownloadDatasetRoundTrip(t *testing.T) {
	srv, ts := newNode(t, "node1", 9, 8)
	_ = srv
	c := NewClient(ts.URL)
	ds, err := c.DownloadDataset(context.Background(), "ENCODE")
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Samples) != 8 {
		t.Errorf("samples = %d", len(ds.Samples))
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DownloadDataset(context.Background(), "NOPE"); err == nil {
		t.Error("unknown dataset download succeeded")
	}
}

func TestEstimatePlanShapes(t *testing.T) {
	g := synth.New(10)
	enc := g.Encode(synth.EncodeOptions{Samples: 40, MeanPeaks: 30})
	anns := g.Annotations(g.Genes(60))
	stats := computedStats(enc, anns)
	scan := &engine.Scan{Dataset: "ENCODE"}
	full := EstimatePlan(scan, stats)
	if full.Samples != 40 || full.Regions != enc.NumRegions() {
		t.Errorf("scan estimate = %+v", full)
	}
	sel := EstimatePlan(&engine.SelectOp{Input: scan, Meta: nil, Region: nil}, stats)
	if sel.Regions != full.Regions {
		t.Errorf("trivial select changed estimate: %+v", sel)
	}
	mapEst := EstimatePlan(&engine.MapOp{
		Ref: &engine.Scan{Dataset: "ANNOTATIONS"}, Exp: scan,
	}, stats)
	// 2 annotation samples x 40 experiment samples = 80 output samples.
	if mapEst.Samples != 80 {
		t.Errorf("map estimate samples = %d", mapEst.Samples)
	}
	unknown := EstimatePlan(&engine.Scan{Dataset: "NOPE"}, stats)
	if unknown.Samples != 0 || unknown.Regions != 0 {
		t.Errorf("unknown scan estimate = %+v", unknown)
	}
	union := EstimatePlan(&engine.UnionOp{Left: scan, Right: scan}, stats)
	if union.Samples != 80 {
		t.Errorf("union estimate = %+v", union)
	}
	top := EstimatePlan(&engine.OrderOp{Input: scan,
		Args: engine.OrderArgs{Keys: []engine.OrderKey{{Attr: "x"}}, Top: 5}}, stats)
	if top.Samples != 5 {
		t.Errorf("top estimate = %+v", top)
	}
}

func TestEstimateWithinOrderOfMagnitude(t *testing.T) {
	// The estimator's contract: size staging within ~an order of magnitude.
	g := synth.New(11)
	enc := g.Encode(synth.EncodeOptions{Samples: 20, MeanPeaks: 40})
	anns := g.Annotations(g.Genes(80))
	srv := NewServer("n", engine.Config{Mode: engine.ModeSerial}, enc, anns)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	comp, err := c.Compile(context.Background(), fedScript, "RESULT")
	if err != nil || !comp.OK {
		t.Fatalf("compile: %v %s", err, comp.Error)
	}
	qr, err := c.Execute(context.Background(), fedScript, "RESULT")
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(comp.Estimate.Regions) / float64(qr.Regions)
	if ratio < 0.05 || ratio > 20 {
		t.Errorf("estimate %d vs actual %d regions (ratio %.2f)",
			comp.Estimate.Regions, qr.Regions, ratio)
	}
}

// TestEstimateBytesAreFrameBytes: /debug/estimates compares EstimatePlan's
// Bytes with QueryResponse.Bytes, the size of the staged frame, which is what
// a fetch of the whole result moves. On the headline MAP the byte prediction
// must be off by no more than the region prediction is, give or take a
// factor of sqrt(2) for the frame-size model.
func TestEstimateBytesAreFrameBytes(t *testing.T) {
	_, ts := newNode(t, "node1", 11, 20)
	c := NewClient(ts.URL)
	qr, err := c.Execute(context.Background(), fedScript, "RESULT")
	if err != nil {
		t.Fatal(err)
	}
	before := c.Bytes()
	if _, _, err := c.FetchChunk(context.Background(), qr.ResultID, 0, qr.Samples); err != nil {
		t.Fatal(err)
	}
	if moved := c.Bytes() - before; moved != qr.Bytes {
		t.Errorf("fetching the whole result moved %d bytes, QueryResponse.Bytes says %d", moved, qr.Bytes)
	}
	var obsv *obs.EstimateObs
	for _, o := range obs.Estimates().Report().Recent {
		if o.Query == qr.QueryID {
			obsv = &o
			break
		}
	}
	if obsv == nil {
		t.Fatalf("no /debug/estimates observation for query %s", qr.QueryID)
	}
	if got := obsv.Actual[obs.EstDimBytes]; got != qr.Bytes {
		t.Errorf("observed bytes %d, staged frame %d", got, qr.Bytes)
	}
	bytesErr := math.Abs(obsv.Log2Err[obs.EstDimBytes])
	regionsErr := math.Abs(obsv.Log2Err[obs.EstDimRegions])
	if bytesErr > regionsErr+0.5 {
		t.Errorf("bytes predicted %d for %d (log2 error %.2f), regions %d for %d (log2 error %.2f)",
			obsv.Predicted[obs.EstDimBytes], qr.Bytes, bytesErr,
			obsv.Predicted[obs.EstDimRegions], qr.Regions, regionsErr)
	}
}

func TestUserDatasetPrivacy(t *testing.T) {
	srv, ts := newNode(t, "node1", 12, 10)
	c := NewClient(ts.URL)

	// A private user dataset: regions of interest the requester does not
	// want stored at the node.
	user := gdm.NewDataset("MY_REGIONS", gdm.MustSchema())
	us := gdm.NewSample("mine")
	us.Meta.Add("owner", "requester")
	us.AddRegion(gdm.NewRegion("chr1", 0, 2_400_000, gdm.StrandNone))
	user.MustAdd(us)

	script := `
PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
HITS = MAP(n AS COUNT) MY_REGIONS PEAKS;
MATERIALIZE HITS;
`
	qr, err := c.ExecuteWithUserData(context.Background(), script, "HITS", user)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Samples == 0 {
		t.Fatal("query over user dataset returned nothing")
	}
	ds, err := c.FetchAll(context.Background(), qr.ResultID, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ds.Schema.Index("n"); !ok {
		t.Errorf("schema = %s", ds.Schema)
	}
	if err := c.Release(context.Background(), qr.ResultID); err != nil {
		t.Fatal(err)
	}

	// Privacy: the user dataset never appears in the node's catalog.
	infos, err := c.ListDatasets(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if info.Name == "MY_REGIONS" {
			t.Error("private user dataset leaked into the catalog")
		}
	}
	// And a later query cannot see it.
	if _, err := c.Execute(context.Background(), `X = SELECT() MY_REGIONS; MATERIALIZE X;`, "X"); err == nil {
		t.Error("private user dataset persisted across requests")
	}
	_ = srv
}

func TestUserDatasetCorrupt(t *testing.T) {
	_, ts := newNode(t, "node1", 13, 4)
	c := NewClient(ts.URL)
	var out QueryResponse
	err := c.postJSON(context.Background(), "/query", QueryRequest{
		Script: `X = SELECT() ENCODE; MATERIALIZE X;`, Var: "X",
		UserDataset: []byte("GARBAGE"),
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if out.OK || !strings.Contains(out.Error, "user dataset") {
		t.Errorf("corrupt user dataset accepted: %+v", out)
	}
}

// TestResultsWindowOverflow: start+count past the int range used to wrap
// negative, slip under the clamp and panic in the slice expression, dropping
// the connection. Every window is clamped to the staged samples instead.
func TestResultsWindowOverflow(t *testing.T) {
	_, ts := newNode(t, "node1", 14, 5)
	c := NewClient(ts.URL)
	qr, err := c.Execute(context.Background(), `X = SELECT() ENCODE; MATERIALIZE X;`, "X")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct{ start, count, want int }{
		{1, math.MaxInt, qr.Samples - 1},
		{math.MaxInt, math.MaxInt, 0},
		{qr.Samples, 1, 0},
		{0, math.MaxInt, qr.Samples},
	} {
		chunk, total, err := c.FetchChunk(context.Background(), qr.ResultID, w.start, w.count)
		if err != nil {
			t.Fatalf("window start=%d count=%d: %v", w.start, w.count, err)
		}
		if len(chunk.Samples) != w.want || total != qr.Samples {
			t.Errorf("window start=%d count=%d: %d samples of %d, want %d of %d",
				w.start, w.count, len(chunk.Samples), total, w.want, qr.Samples)
		}
	}
}

// TestResultEncodeFailureFailsQuery: a result the frame encoder refuses (a
// region narrower than the schema) fails POST /query with a typed error
// naming the arity mismatch, and stages nothing; the full-dataset stream of
// the same data answers 500 with the reason before any body byte.
func TestResultEncodeFailureFailsQuery(t *testing.T) {
	srv, ts := newNode(t, "node1", 15, 3)
	bad := gdm.NewDataset("BAD", gdm.MustSchema(gdm.Field{Name: "n", Type: gdm.KindInt}))
	s := gdm.NewSample("s")
	s.AddRegion(gdm.NewRegion("chr1", 1, 2, gdm.StrandNone)) // no value for n
	bad.Samples = append(bad.Samples, s)
	srv.AddDataset(bad)
	before := srv.StagedCount()
	qr, err := NewClient(ts.URL).Execute(context.Background(), `X = SELECT() BAD; MATERIALIZE X;`, "X")
	if err == nil || qr.OK || qr.ResultID != "" || !strings.Contains(qr.Error, "encode") || !strings.Contains(qr.Error, "attributes") {
		t.Errorf("query of an unencodable result: %+v, %v; want a failure naming the arity mismatch", qr, err)
	}
	if n := srv.StagedCount(); n != before {
		t.Errorf("staged %d results after a failed encode, had %d", n, before)
	}
	resp, err := http.Get(ts.URL + "/datasets/BAD/stream")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "attributes") {
		t.Errorf("GET /datasets/BAD/stream: status %d body %q, want 500 naming the arity mismatch", resp.StatusCode, body)
	}
}
