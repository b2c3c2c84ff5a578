package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"genogo/internal/engine"
	"genogo/internal/govern"
	"genogo/internal/obs"
	"genogo/internal/resilience"
	"genogo/internal/synth"
)

// newGovernedNode builds a node whose engine stalls on the given Staller
// (deterministic "stuck operator"), with its own console registry so the
// test can observe query lifecycle states.
func newGovernedNode(t *testing.T, staller *resilience.Staller) (*Server, *httptest.Server) {
	t.Helper()
	g := synth.New(55)
	enc := g.Encode(synth.EncodeOptions{Samples: 6, MeanPeaks: 10})
	anns := g.Annotations(g.Genes(20))
	cfg := engine.Config{Mode: engine.ModeStream, Workers: 3}
	if staller != nil {
		cfg.Stall = staller.Hook
	}
	srv := NewServer("gov-node", cfg, enc, anns)
	srv.Queries = obs.NewQueryRegistry(16)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postQuery sends a raw /query request so the test can inspect HTTP status
// and headers the Client abstracts away.
func postQuery(ctx context.Context, url string) (*http.Response, error) {
	body, _ := json.Marshal(QueryRequest{Script: fedScript, Var: "RESULT"})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return http.DefaultClient.Do(req)
}

// waitStatus polls the registry until some entry reaches the wanted status.
func waitStatus(t *testing.T, reg *obs.QueryRegistry, want obs.QueryStatus, timeout time.Duration) *obs.QueryEntry {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, e := range reg.Recent() {
			if e.Status() == want {
				return e
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no query reached status %q within %v", want, timeout)
	return nil
}

// TestFederationAdmissionShed: with the single execution slot held by a stuck
// query and no queue, the next /query request is shed with 429 + Retry-After
// and a shed entry appears in the console; once the slot frees, queries are
// admitted again.
func TestFederationAdmissionShed(t *testing.T) {
	staller := &resilience.Staller{}
	srv, ts := newGovernedNode(t, staller)
	srv.Gate = govern.NewGate(1, 0, 50*time.Millisecond)

	firstDone := make(chan error, 1)
	go func() {
		resp, err := postQuery(context.Background(), ts.URL)
		if err == nil {
			resp.Body.Close()
		}
		firstDone <- err
	}()
	if !staller.WaitStalled(1, 5*time.Second) {
		t.Fatal("first query never reached the stalled operator")
	}

	resp, err := postQuery(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatalf("shed body is not JSON: %v", err)
	}
	if qr.OK || qr.Error == "" {
		t.Errorf("shed body = %+v, want an error", qr)
	}
	shed := waitStatus(t, srv.Queries, obs.StatusShed, time.Second)
	if !strings.Contains(shed.Err(), govern.ReasonQueueFull) {
		t.Errorf("shed entry reason = %q, want %q", shed.Err(), govern.ReasonQueueFull)
	}

	staller.Release()
	if err := <-firstDone; err != nil {
		t.Fatalf("first query: %v", err)
	}
	if srv.Gate.InFlight() != 0 {
		t.Errorf("in-flight = %d after completion, want 0", srv.Gate.InFlight())
	}

	// The freed slot admits again.
	resp2, err := postQuery(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("post-release status = %d, want 200", resp2.StatusCode)
	}
}

// TestFederationClientDisconnectCancelsQuery: dropping the HTTP request
// mid-execution propagates into the engine — workers stuck in an operator
// unwind, and the console files the query as canceled.
func TestFederationClientDisconnectCancelsQuery(t *testing.T) {
	staller := &resilience.Staller{}
	srv, ts := newGovernedNode(t, staller)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		resp, err := postQuery(ctx, ts.URL)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	if !staller.WaitStalled(1, 5*time.Second) {
		t.Fatal("query never reached the stalled operator")
	}
	cancel()
	if err := <-done; err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("client err = %v, want context.Canceled", err)
	}
	e := waitStatus(t, srv.Queries, obs.StatusCanceled, 5*time.Second)
	if !strings.Contains(e.Err(), "canceled") {
		t.Errorf("canceled entry err = %q", e.Err())
	}
}

// TestFederationBudgetKillInBand: a budget kill is a query-level error, not a
// transport failure — HTTP 200 with the error in-band and a failed console
// entry, exactly like a compile error, so other queries are unaffected.
func TestFederationBudgetKillInBand(t *testing.T) {
	srv, ts := newGovernedNode(t, nil)
	srv.Limits = engine.Limits{MaxOutputRegions: 1}

	resp, err := postQuery(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (in-band error)", resp.StatusCode)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.OK || !strings.Contains(qr.Error, "budget") {
		t.Errorf("response = %+v, want a budget error", qr)
	}
	e := waitStatus(t, srv.Queries, obs.StatusFailed, time.Second)
	if !strings.Contains(e.Err(), "budget") {
		t.Errorf("entry err = %q, want budget reason", e.Err())
	}
}

// TestFederationFetchCancel: cancellation during the staged-retrieval FETCH
// leg surfaces promptly as a context error on the client.
func TestFederationFetchCancel(t *testing.T) {
	_, ts := newGovernedNode(t, nil)
	c := NewClient(ts.URL)
	qr, err := c.Execute(context.Background(), fedScript, "RESULT")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.FetchAll(ctx, qr.ResultID, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("FetchAll err = %v, want context.Canceled", err)
	}
}
