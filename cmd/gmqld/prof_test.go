package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"genogo/internal/federation"
	"genogo/internal/obs"
)

// TestSlowQueryLeavesProfCapture is the end-to-end acceptance path: a query
// crossing the slow threshold must leave a downloadable pprof capture on
// /debug/prof, a retained record on /debug/slowlog, and per-operator cost
// rows on /debug/costs — all on the same listener the node serves queries on.
func TestSlowQueryLeavesProfCapture(t *testing.T) {
	dir := writeRepo(t)
	var out bytes.Buffer
	n, err := setup([]string{"-data", dir, "-mode", "serial",
		"-slow-query", "1ns", "-prof-ring", "8"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	obs.Prof().MinGap = 0 // other tests may have tripped the rate limit
	ts := httptest.NewServer(n.srv.Handler)
	defer ts.Close()

	c := federation.NewClient(ts.URL)
	if _, err := c.Execute(context.Background(),
		`X = SELECT(dataType == 'ChipSeq') ENCODE; MATERIALIZE X;`, "X"); err != nil {
		t.Fatal(err)
	}

	// The slow-query event must have captured a heap profile.
	resp, err := http.Get(ts.URL + "/debug/prof")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Enabled  bool          `json:"enabled"`
		Captures []obs.Capture `json:"captures"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if !listing.Enabled {
		t.Fatal("profiler not enabled on gmqld")
	}
	var slow *obs.Capture
	for i := range listing.Captures {
		if listing.Captures[i].Trigger == "slow_query" {
			slow = &listing.Captures[i]
			break
		}
	}
	if slow == nil {
		t.Fatalf("no slow_query capture in ring: %+v", listing.Captures)
	}
	if slow.QueryID == "" {
		t.Errorf("capture not tagged with the query id")
	}

	// And the capture must download as a valid gzipped pprof profile.
	dl, err := http.Get(ts.URL + "/debug/prof/" + strconv.Itoa(slow.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Body.Close()
	if dl.StatusCode != http.StatusOK {
		t.Fatalf("download status = %d", dl.StatusCode)
	}
	zr, err := gzip.NewReader(dl.Body)
	if err != nil {
		t.Fatalf("capture is not gzipped pprof: %v", err)
	}
	if raw, err := io.ReadAll(zr); err != nil || len(raw) == 0 {
		t.Fatalf("capture body unreadable: %d bytes, %v", len(raw), err)
	}

	// The retained slow-query record is on /debug/slowlog...
	var recs []obs.SlowRecord
	getJSON(t, ts.URL+"/debug/slowlog", &recs)
	found := false
	for _, r := range recs {
		if r.Status == "slow" && r.QueryID == slow.QueryID {
			found = true
		}
	}
	if !found {
		t.Errorf("no slowlog record for query %s: %+v", slow.QueryID, recs)
	}

	// ...and the profiled query fed the operator cost registry.
	var costs []obs.OpCost
	getJSON(t, ts.URL+"/debug/costs", &costs)
	ops := map[string]bool{}
	for _, c := range costs {
		ops[c.Op] = true
		if c.Spans <= 0 {
			t.Errorf("cost row with no spans: %+v", c)
		}
	}
	if !ops["SCAN"] || !ops["SELECT"] {
		t.Errorf("cost registry missing SCAN/SELECT rows: %+v", costs)
	}
}

// TestBudgetKillProfCapture: a budget kill leaves exactly one budget_kill
// capture on /debug/prof, tagged with the killed query's ID, whether or not
// the slow-query log is enabled.
func TestBudgetKillProfCapture(t *testing.T) {
	for _, slowLog := range []bool{false, true} {
		t.Run(fmt.Sprintf("slowlog=%v", slowLog), func(t *testing.T) {
			args := []string{"-data", writeRepo(t), "-mode", "serial", "-max-regions", "1", "-prof-ring", "32"}
			if slowLog {
				args = append(args, "-slow-query", "1h")
			}
			n, err := setup(args, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			obs.Prof().MinGap = 0 // Enable restores the 10s default
			ts := httptest.NewServer(n.srv.Handler)
			defer ts.Close()
			last := 0
			for _, c := range obs.Prof().ListCaptures() {
				last = max(last, c.ID)
			}
			qr, err := federation.NewClient(ts.URL).Execute(context.Background(),
				`X = SELECT(dataType == 'ChipSeq') ENCODE; MATERIALIZE X;`, "X")
			if err == nil || !strings.Contains(qr.Error, "budget") || qr.QueryID == "" {
				t.Fatalf("query not killed by its budget: %+v, %v", qr, err)
			}
			var kills []obs.Capture
			for _, c := range obs.Prof().ListCaptures() {
				if c.ID > last && c.Trigger == "budget_kill" {
					kills = append(kills, c)
				}
			}
			if len(kills) != 1 || kills[0].QueryID != qr.QueryID {
				t.Errorf("budget_kill captures = %+v, want one for query %s", kills, qr.QueryID)
			}
		})
	}
}

// TestQueryConsoleShowsAttribution asserts /debug/queries carries the
// per-query CPU/alloc attribution for a profiled query.
func TestQueryConsoleShowsAttribution(t *testing.T) {
	dir := writeRepo(t)
	var out bytes.Buffer
	n, err := setup([]string{"-data", dir, "-mode", "serial", "-slow-query", "1ns"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(n.srv.Handler)
	defer ts.Close()

	c := federation.NewClient(ts.URL)
	if _, err := c.Execute(context.Background(),
		`Y = SELECT(dataType == 'ChipSeq') ENCODE; MATERIALIZE Y;`, "Y"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/debug/queries?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "cpu_ms") {
		t.Errorf("console JSON has no cpu attribution: %s", body)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}
