package federation

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"genogo/internal/engine"
	"genogo/internal/resilience"
	"genogo/internal/synth"
)

const chaosScript = `X = SELECT() ENCODE; MATERIALIZE X;`

// chaosNode builds a node whose transport is wrapped in a seeded
// ChaosTransport, returning the server (for staging assertions), the test
// server, and the chaos transport.
func chaosNode(t *testing.T, seed int64, samples int) (*Server, *httptest.Server) {
	t.Helper()
	g := synth.New(seed)
	srv := NewServer("n", engine.Config{Mode: engine.ModeSerial},
		g.Encode(synth.EncodeOptions{Samples: samples, MeanPeaks: 8}))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func chaosClient(url string, chaos *resilience.ChaosTransport, retries int) *Client {
	opts := []Option{WithTransport(chaos)}
	if retries > 0 {
		opts = append(opts, WithRetrier(&resilience.Retrier{
			MaxAttempts: retries,
			BaseDelay:   time.Millisecond,
			MaxDelay:    5 * time.Millisecond,
		}))
	}
	return NewClient(url, opts...)
}

// TestPartialResultsUnderChaos: one member is completely down; the partial
// policy must return the healthy members' merged results and a report
// naming exactly the dead member.
func TestPartialResultsUnderChaos(t *testing.T) {
	const perNode = 5
	_, ts1 := chaosNode(t, 1, perNode)
	_, ts2 := chaosNode(t, 2, perNode)
	_, ts3 := chaosNode(t, 3, perNode)
	dead := chaosClient(ts2.URL, &resilience.ChaosTransport{Seed: 9, DropRate: 1}, 0)
	fed := &Federator{
		Clients: []*Client{NewClient(ts1.URL), dead, NewClient(ts3.URL)},
		Policy:  Policy{AllowPartial: true},
	}
	ds, report, err := fed.Query(context.Background(), chaosScript, "X", 4)
	if err != nil {
		t.Fatal(err)
	}
	if report == nil || len(report.Failed) != 1 {
		t.Fatalf("report = %+v", report)
	}
	if report.Failed[0].Node != ts2.URL || report.Failed[0].Stage != "execute" {
		t.Errorf("failure = %+v", report.Failed[0])
	}
	if len(ds.Samples) != 2*perNode {
		t.Errorf("merged %d samples from healthy members, want %d", len(ds.Samples), 2*perNode)
	}
}

// TestPartialResultsTransientFaults: every member sits behind a 30% fault
// rate with no retries. Whatever subset fails, the merged result must hold
// exactly the successful members' samples and the report exactly the rest.
func TestPartialResultsTransientFaults(t *testing.T) {
	const perNode, nodes = 4, 4
	var clients []*Client
	urls := make([]string, nodes)
	for i := 0; i < nodes; i++ {
		_, ts := chaosNode(t, int64(10+i), perNode)
		urls[i] = ts.URL
		clients = append(clients, chaosClient(ts.URL,
			&resilience.ChaosTransport{Seed: int64(100 + i), ErrorRate: 0.2, DropRate: 0.1}, 0))
	}
	fed := &Federator{Clients: clients, Policy: Policy{AllowPartial: true}}
	ds, report, err := fed.Query(context.Background(), chaosScript, "X", 2)
	if err != nil {
		t.Fatal(err)
	}
	failed := map[string]bool{}
	if report != nil {
		for _, nf := range report.Failed {
			if failed[nf.Node] {
				t.Errorf("node %s reported twice", nf.Node)
			}
			failed[nf.Node] = true
			found := false
			for _, u := range urls {
				if u == nf.Node {
					found = true
				}
			}
			if !found {
				t.Errorf("report names unknown node %s", nf.Node)
			}
		}
	}
	healthy := nodes - len(failed)
	if healthy == 0 {
		t.Skip("all members failed under this seed; nothing to merge")
	}
	if len(ds.Samples) != healthy*perNode {
		t.Errorf("merged %d samples, want %d (healthy=%d)", len(ds.Samples), healthy*perNode, healthy)
	}
}

// TestRetriesDefeatLowFaultRate: with retries enabled and a <=10% transient
// fault rate, queries succeed fully — no partial report at all.
func TestRetriesDefeatLowFaultRate(t *testing.T) {
	const perNode, nodes = 4, 3
	var clients []*Client
	for i := 0; i < nodes; i++ {
		_, ts := chaosNode(t, int64(20+i), perNode)
		clients = append(clients, chaosClient(ts.URL,
			&resilience.ChaosTransport{Seed: int64(200 + i), ErrorRate: 0.05, DropRate: 0.05}, 5))
	}
	fed := &Federator{Clients: clients, Policy: Policy{AllowPartial: true}}
	ds, report, err := fed.Query(context.Background(), chaosScript, "X", 2)
	if err != nil {
		t.Fatal(err)
	}
	if report != nil {
		t.Fatalf("retries did not absorb the faults: %v", report)
	}
	if len(ds.Samples) != nodes*perNode {
		t.Errorf("samples = %d, want %d", len(ds.Samples), nodes*perNode)
	}
}

// TestStrictPolicyAbortsButReleases: under the strict (default) policy a
// member failure aborts the query — but results already staged at healthy
// members must still be released.
func TestStrictPolicyAbortsButReleases(t *testing.T) {
	srv1, ts1 := chaosNode(t, 30, 4)
	_, ts2 := chaosNode(t, 31, 4)
	dead := chaosClient(ts2.URL, &resilience.ChaosTransport{Seed: 5, DropRate: 1}, 0)
	fed := &Federator{Clients: []*Client{NewClient(ts1.URL), dead}}
	_, report, err := fed.Query(context.Background(), chaosScript, "X", 4)
	if err == nil {
		t.Fatal("strict policy swallowed a member failure")
	}
	if report == nil || len(report.Failed) != 1 || report.Failed[0].Node != ts2.URL {
		t.Fatalf("report = %+v", report)
	}
	if n := srv1.StagedCount(); n != 0 {
		t.Errorf("healthy member leaked %d staged results", n)
	}
}

// getSaboteur fails GET requests under prefix with a 500, leaving other
// methods (in particular DELETE /results/... releases) untouched.
type getSaboteur struct {
	inner   http.Handler
	trigger string
}

func (g *getSaboteur) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, g.trigger) {
		http.Error(w, "injected failure", http.StatusInternalServerError)
		return
	}
	g.inner.ServeHTTP(w, r)
}

// TestFetchFailureReleasesStaging: when execution stages a result but the
// fetch path keeps failing, the staged result must be released on the
// failure path — the leak TestStagingLimit's cap makes fatal.
func TestFetchFailureReleasesStaging(t *testing.T) {
	g := synth.New(40)
	srv := NewServer("n", engine.Config{Mode: engine.ModeSerial},
		g.Encode(synth.EncodeOptions{Samples: 4, MeanPeaks: 8}))
	srv.maxStay = 2
	ts := httptest.NewServer(&getSaboteur{inner: srv.Handler(), trigger: "/results/"})
	t.Cleanup(ts.Close)
	fed := &Federator{Clients: []*Client{NewClient(ts.URL)}, Policy: Policy{AllowPartial: true}}
	// Run more failing queries than the staging cap; without the release
	// the third query would die with "staging area full" at execute.
	for i := 0; i < 5; i++ {
		_, report, err := fed.Query(context.Background(), chaosScript, "X", 4)
		if err == nil {
			t.Fatalf("query %d: fetch failure produced no error (report=%v)", i, report)
		}
		if report == nil || report.Failed[0].Stage != "fetch" {
			t.Fatalf("query %d: failure not at fetch stage: %+v", i, report)
		}
		if n := srv.StagedCount(); n != 0 {
			t.Fatalf("query %d leaked %d staged results", i, n)
		}
	}
}

// TestHungNodeBoundedByDeadline: a member with injected latency far beyond
// the query deadline cannot stall Federator.Query — the healthy members'
// results come back about when the deadline fires.
func TestHungNodeBoundedByDeadline(t *testing.T) {
	const perNode = 3
	_, ts1 := chaosNode(t, 50, perNode)
	_, ts2 := chaosNode(t, 51, perNode)
	hung := chaosClient(ts2.URL, &resilience.ChaosTransport{
		Seed: 1, LatencyRate: 1, Latency: 30 * time.Second,
	}, 0)
	fed := &Federator{
		Clients: []*Client{NewClient(ts1.URL), hung},
		Policy:  Policy{AllowPartial: true, Deadline: 300 * time.Millisecond},
	}
	start := time.Now()
	ds, report, err := fed.Query(context.Background(), chaosScript, "X", 4)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline did not bound the query: took %v", elapsed)
	}
	if len(ds.Samples) != perNode {
		t.Errorf("samples = %d, want %d from the healthy member", len(ds.Samples), perNode)
	}
	if report == nil || len(report.Failed) != 1 || report.Failed[0].Node != ts2.URL {
		t.Fatalf("report = %+v", report)
	}
	if !errors.Is(report.Failed[0].Err, context.DeadlineExceeded) {
		t.Errorf("hung node error = %v", report.Failed[0].Err)
	}
}

// TestQuorumPolicy: quorum below the success count passes, above it fails.
func TestQuorumPolicy(t *testing.T) {
	_, ts1 := chaosNode(t, 60, 3)
	_, ts2 := chaosNode(t, 61, 3)
	dead := func() *Client {
		return chaosClient(ts2.URL, &resilience.ChaosTransport{Seed: 3, DropRate: 1}, 0)
	}
	met := &Federator{
		Clients: []*Client{NewClient(ts1.URL), dead()},
		Policy:  Policy{AllowPartial: true, Quorum: 1},
	}
	if _, _, err := met.Query(context.Background(), chaosScript, "X", 4); err != nil {
		t.Fatalf("quorum 1 of 2 failed: %v", err)
	}
	missed := &Federator{
		Clients: []*Client{NewClient(ts1.URL), dead()},
		Policy:  Policy{AllowPartial: true, Quorum: 2},
	}
	ds, report, err := missed.Query(context.Background(), chaosScript, "X", 4)
	if err == nil || ds != nil {
		t.Fatalf("quorum 2 of 2 passed with a dead member (report=%v)", report)
	}
	var pf *PartialFailure
	if !errors.As(err, &pf) {
		t.Errorf("quorum error does not carry the report: %v", err)
	}
}

// TestBreakerFailsFast: after the breaker trips, requests stop reaching
// the endpoint entirely.
func TestBreakerFailsFast(t *testing.T) {
	hits := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, WithBreaker(&resilience.Breaker{FailureThreshold: 3, Cooldown: time.Hour}))
	for i := 0; i < 3; i++ {
		if _, err := c.ListDatasets(context.Background()); err == nil {
			t.Fatal("500 swallowed")
		}
	}
	if hits != 3 {
		t.Fatalf("server hits before trip = %d", hits)
	}
	_, err := c.ListDatasets(context.Background())
	if !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("tripped breaker error = %v", err)
	}
	if hits != 3 {
		t.Fatalf("open breaker let a request through (hits=%d)", hits)
	}
}
