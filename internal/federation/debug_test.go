package federation

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"genogo/internal/engine"
	"genogo/internal/obs"
	"genogo/internal/synth"
)

// TestNodeDebugEndpoints: every federation node serves the pprof-capture
// ring and the operator cost registry on its protocol port.
func TestNodeDebugEndpoints(t *testing.T) {
	g := synth.New(42)
	srv := NewServer("node", engine.Config{Mode: engine.ModeSerial},
		g.Encode(synth.EncodeOptions{Samples: 2, MeanPeaks: 10}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{"/debug/prof", "/debug/costs"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s content-type = %q", path, ct)
		}
		if len(body) == 0 {
			t.Errorf("%s returned empty body", path)
		}
	}
}

// TestFederationConsole: the /debug/federation membership console renders the
// probed member table, breaker positions, and the placement map — as HTML, as
// JSON, and listed on the /debug/ discovery index.
func TestFederationConsole(t *testing.T) {
	rc := newReplCluster(t, [][]string{{"A", "B"}, {"A", "B"}})
	rc.outages[1].Kill()
	p := NewProber(rc.clients)
	p.Interval = time.Hour
	p.ProbeAll(context.Background())
	fed := &Federator{
		Clients: rc.clients,
		Placement: NewPlacement().
			Register("ENCODE@A", 0, 1).
			Register("ENCODE@B", 1),
		Prober: p,
		Hedge:  HedgePolicy{Enabled: true},
	}
	mux := http.NewServeMux()
	obs.NewConsole(mux).Register(MembershipView(fed.Membership))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	get := func(path, accept string) (int, string) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, html := get("/debug/federation", "text/html")
	if code != http.StatusOK {
		t.Fatalf("console status = %d", code)
	}
	for _, want := range []string{
		rc.urls[0], rc.urls[1], "ENCODE@A", "ENCODE@B",
		">up<", ">suspect<", "<th>hedging</th><td>true</td>", "<th>placement</th>",
		"<th>latency_ms</th>", "<th>breaker</th>", ">closed<",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("console HTML missing %q", want)
		}
	}

	code, body := get("/debug/federation", "")
	if code != http.StatusOK {
		t.Fatalf("console JSON status = %d", code)
	}
	var snap MembershipSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("console JSON: %v\n%s", err, body)
	}
	if len(snap.Members) != 2 || !snap.Hedging || len(snap.Placement) != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Members[0].State != 0 || snap.Members[0].StateName != "up" {
		t.Errorf("member 0 = %+v, want state up", snap.Members[0])
	}
	if snap.Members[1].StateName != "suspect" {
		t.Errorf("member 1 = %+v, want state suspect", snap.Members[1])
	}
	if snap.Members[0].Breaker != "closed" {
		t.Errorf("member 0 breaker = %q", snap.Members[0].Breaker)
	}
	if snap.Placement[0].Replicas != 2 || len(snap.Placement[0].Members) != 2 {
		t.Errorf("placement row 0 = %+v", snap.Placement[0])
	}

	if _, index := get("/debug/", "text/html"); !strings.Contains(index, `href="/debug/federation"`) {
		t.Error("/debug/ index does not link the federation console")
	}

	// A process coordinating no federation serves the empty view.
	solo := http.NewServeMux()
	obs.NewConsole(solo).Register(MembershipView(nil))
	sts := httptest.NewServer(solo)
	defer sts.Close()
	resp, err := http.Get(sts.URL + "/debug/federation")
	if err != nil {
		t.Fatal(err)
	}
	var empty MembershipSnapshot
	err = json.NewDecoder(resp.Body).Decode(&empty)
	resp.Body.Close()
	if err != nil || len(empty.Members) != 0 || len(empty.Placement) != 0 || empty.Hedging {
		t.Errorf("standalone view = %+v (%v)", empty, err)
	}
}

// TestServerHealthEndpoint: federation nodes answer the prober's GET /health
// with their identity and catalog size.
func TestServerHealthEndpoint(t *testing.T) {
	g := synth.New(42)
	srv := NewServer("node-h", engine.Config{Mode: engine.ModeSerial},
		g.Encode(synth.EncodeOptions{Samples: 2, MeanPeaks: 10}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/health status = %d", resp.StatusCode)
	}
	var h struct {
		OK       bool   `json:"ok"`
		Node     string `json:"node"`
		Datasets int    `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Node != "node-h" || h.Datasets != 1 {
		t.Errorf("health = %+v", h)
	}
	if resp, err := http.Post(ts.URL+"/health", "text/plain", nil); err == nil {
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Error("POST /health should not be accepted")
		}
	}
}

// TestServerHandlerCollectable: a server whose Handler was built is freed
// once the server and its handler are dropped — the handler's debug index
// lives with its mux, so nothing process-wide pins the server, its datasets
// or its staged frames.
func TestServerHandlerCollectable(t *testing.T) {
	const servers = 5
	g := synth.New(42)
	ds := g.Encode(synth.EncodeOptions{Samples: 2, MeanPeaks: 10})
	var collected atomic.Int32
	build := func(i int) {
		srv := NewServer(fmt.Sprintf("node-%d", i), engine.Config{Mode: engine.ModeSerial}, ds)
		_ = srv.Handler()
		runtime.SetFinalizer(srv, func(*Server) { collected.Add(1) })
	}
	for i := 0; i < servers; i++ {
		build(i)
	}
	for i := 0; i < 50 && collected.Load() < servers; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got != servers {
		t.Fatalf("%d of %d dropped servers collected", got, servers)
	}
}
