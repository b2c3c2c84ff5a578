package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"genogo/internal/federation"
	"genogo/internal/formats"
	"genogo/internal/synth"
)

func writeRepo(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	g := synth.New(5)
	if err := formats.WriteDatasetColumnar(filepath.Join(dir, "ENCODE"),
		g.Encode(synth.EncodeOptions{Samples: 6, MeanPeaks: 20})); err != nil {
		t.Fatal(err)
	}
	if err := formats.WriteDatasetColumnar(filepath.Join(dir, "ANNOTATIONS"),
		g.Annotations(g.Genes(20))); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestSetupServesFederationProtocol(t *testing.T) {
	dir := writeRepo(t)
	var out bytes.Buffer
	n, err := setup([]string{"-data", dir, "-addr", ":9999", "-mode", "serial",
		"-read-timeout", "10s", "-write-timeout", "20s"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	srv := n.srv
	if n.metrics != nil {
		t.Errorf("no -metrics-addr given, but a separate metrics server was built")
	}
	if srv.Addr != ":9999" {
		t.Errorf("addr = %q", srv.Addr)
	}
	if srv.ReadTimeout != 10*time.Second || srv.WriteTimeout != 20*time.Second {
		t.Errorf("timeouts = %v/%v", srv.ReadTimeout, srv.WriteTimeout)
	}
	if !strings.Contains(out.String(), "serving ENCODE") {
		t.Errorf("output = %q", out.String())
	}
	ts := httptest.NewServer(srv.Handler)
	defer ts.Close()
	c := federation.NewClient(ts.URL)
	infos, err := c.ListDatasets(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("datasets = %d", len(infos))
	}
	qr, err := c.Execute(context.Background(), `X = SELECT(dataType == 'ChipSeq') ENCODE; MATERIALIZE X;`, "X")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.FetchAll(context.Background(), qr.ResultID, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Samples) != qr.Samples {
		t.Errorf("fetched %d samples, staged %d", len(ds.Samples), qr.Samples)
	}
}

func TestSetupErrors(t *testing.T) {
	var out bytes.Buffer
	if _, err := setup([]string{"-data", t.TempDir()}, &out); err == nil {
		t.Error("empty data dir accepted")
	}
	if _, err := setup([]string{"-data", writeRepo(t), "-mode", "quantum"}, &out); err == nil {
		t.Error("bad mode accepted")
	}
	if _, err := setup([]string{"-data", filepath.Join(t.TempDir(), "missing")}, &out); err == nil {
		t.Error("missing dir accepted")
	}
}

// TestMetricsEndpointOnMainAddr checks the default wiring: /metrics shares
// the federation listener and advertises the acceptance-required families,
// and a query moves the node-query counter. With -metrics-addr the
// operational endpoints move to the second server and vanish from the main
// handler.
func TestMetricsEndpointOnMainAddr(t *testing.T) {
	dir := writeRepo(t)
	var out bytes.Buffer
	n, err := setup([]string{"-data", dir, "-mode", "serial", "-slow-query", "1ns"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n.metrics != nil {
		t.Fatal("unexpected separate metrics server")
	}
	ts := httptest.NewServer(n.srv.Handler)
	defer ts.Close()

	c := federation.NewClient(ts.URL)
	if _, err := c.Execute(context.Background(),
		`X = SELECT(dataType == 'ChipSeq') ENCODE; MATERIALIZE X;`, "X"); err != nil {
		t.Fatal(err)
	}
	body := fetchMetrics(t, ts.URL+"/metrics")
	for _, want := range []string{
		"genogo_engine_queries_total",
		"genogo_resilience_breaker_transitions_total",
		"genogo_federation_member_latency_seconds",
		"genogo_federation_node_queries_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	n2, err := setup([]string{"-data", dir, "-metrics-addr", ":9105"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n2.metrics == nil || n2.metrics.Addr != ":9105" {
		t.Fatalf("metrics server = %+v, want listener on :9105", n2.metrics)
	}
	ts2 := httptest.NewServer(n2.srv.Handler)
	defer ts2.Close()
	resp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("main handler still serves /metrics despite -metrics-addr")
	}
	mts := httptest.NewServer(n2.metrics.Handler)
	defer mts.Close()
	if body := fetchMetrics(t, mts.URL+"/metrics"); !strings.Contains(body, "genogo_engine_queries_total") {
		t.Error("separate metrics handler missing engine families")
	}
}

func fetchMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestConsoleEndpointOnMainAddr: after a query executes, the node's
// /debug/queries console lists it (JSON view) and drills down to the profile.
func TestConsoleEndpointOnMainAddr(t *testing.T) {
	dir := writeRepo(t)
	var out bytes.Buffer
	n, err := setup([]string{"-data", dir, "-mode", "serial"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(n.srv.Handler)
	defer ts.Close()

	c := federation.NewClient(ts.URL)
	qr, err := c.Execute(context.Background(),
		`X = SELECT(dataType == 'ChipSeq') ENCODE; MATERIALIZE X;`, "X")
	if err != nil {
		t.Fatal(err)
	}
	if qr.QueryID == "" {
		t.Fatal("node minted no query id")
	}
	resp, err := http.Get(ts.URL + "/debug/queries/" + qr.QueryID + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("console status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{qr.QueryID, `"status": "done"`, `"rendered"`, "SCAN ENCODE"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("console entry missing %q:\n%s", want, body)
		}
	}
}

// TestPeersMembershipConsole: with -peers, the node probes its peers in the
// background and serves the live membership view on /debug/federation; a dead
// peer walks down to suspect/down while live ones stay up.
func TestPeersMembershipConsole(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	}))
	defer peer.Close()
	deadPeer := httptest.NewServer(http.HandlerFunc(nil))
	deadURL := deadPeer.URL
	deadPeer.Close() // connection refused from the first probe

	dir := writeRepo(t)
	var out bytes.Buffer
	n, err := setup([]string{"-data", dir, "-mode", "serial",
		"-peers", peer.URL + ", " + deadURL, "-probe-interval", "10ms"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer n.probeStop()
	if n.probeStop == nil {
		t.Fatal("no probe loop started despite -peers")
	}
	if !strings.Contains(out.String(), "probing 2 peer(s)") {
		t.Errorf("output = %q", out.String())
	}
	ts := httptest.NewServer(n.srv.Handler)
	defer ts.Close()

	// Wait for the dead peer to reach "down" (3 consecutive failed probes).
	deadline := time.Now().Add(5 * time.Second)
	for {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/debug/federation", nil)
		req.Header.Set("Accept", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var snap federation.MembershipSnapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Members) != 2 {
			t.Fatalf("members = %+v", snap.Members)
		}
		if snap.Members[0].StateName == "up" && snap.Members[1].StateName == "down" {
			if snap.Members[1].Failures < 3 || snap.Members[1].Err == "" {
				t.Errorf("down peer record = %+v", snap.Members[1])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("membership never converged: %+v", snap.Members)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The browser page shows the same members.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/debug/federation", nil)
	req.Header.Set("Accept", "text/html")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{">" + peer.URL + "<", ">" + deadURL + "<", ">up<", ">down<", "<th>breaker</th>"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("HTML console missing %q", want)
		}
	}

	// Without -peers the node serves an empty membership, and no probe loop
	// runs.
	n2, err := setup([]string{"-data", dir, "-mode", "serial"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n2.probeStop != nil {
		t.Error("probe loop started without -peers")
	}
	ts2 := httptest.NewServer(n2.srv.Handler)
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/debug/federation")
	if err != nil {
		t.Fatal(err)
	}
	var solo federation.MembershipSnapshot
	err = json.NewDecoder(resp.Body).Decode(&solo)
	resp.Body.Close()
	if err != nil || len(solo.Members) != 0 {
		t.Errorf("membership without -peers = %+v (%v)", solo, err)
	}
}
