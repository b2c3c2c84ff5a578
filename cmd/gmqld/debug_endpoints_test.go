package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"genogo/internal/federation"
)

// debugRow is one registered debug endpoint of the console contract.
type debugRow struct {
	path string
	// key is a drill-down key that exists ("" when the view has none); the
	// list page must link to it.
	key string
	// html lists values the browser page must show, already escaped.
	html []string
}

// contractScript's region predicate carries a "<" and quotes, so every page
// that shows the operator detail proves it escapes.
const contractScript = `X = SELECT(dataType == 'ChipSeq'; region: p_value < 0.5) ENCODE; MATERIALIZE X;`

// The /debug/ index of each listener, as the console has always listed it.
var (
	fullIndex = []string{"/debug/", "/debug/costs", "/debug/estimates", "/debug/federation",
		"/debug/pprof/", "/debug/prof", "/debug/queries", "/debug/repo", "/debug/slowlog",
		"/metrics"}
	nodeIndex = []string{"/debug/", "/debug/costs", "/debug/estimates", "/debug/federation",
		"/debug/prof", "/debug/queries", "/debug/repo"}
)

// TestDebugEndpointsContentTypes is the console contract over every debug
// endpoint, on both listener layouts (one listener, and -metrics-addr
// splitting the debug surface off): a plain GET is JSON, a browser Accept
// header gets the HTML page with escaped values and drill-down links,
// ?format=json overrides it, non-GET is 405, an unknown key is 404, and each
// listener's index lists exactly its endpoints.
func TestDebugEndpointsContentTypes(t *testing.T) {
	for _, split := range []bool{false, true} {
		t.Run(fmt.Sprintf("split=%v", split), func(t *testing.T) {
			dir := writeRepo(t)
			args := []string{"-data", dir, "-mode", "stream", "-slow-query", "1ns"}
			if split {
				args = append(args, "-metrics-addr", "127.0.0.1:0")
			}
			var out bytes.Buffer
			n, err := setup(args, &out)
			if err != nil {
				t.Fatal(err)
			}
			main := httptest.NewServer(n.srv.Handler)
			defer main.Close()
			debug := main
			if split {
				debug = httptest.NewServer(n.metrics.Handler)
				defer debug.Close()
			}
			qr, err := federation.NewClient(main.URL).Execute(context.Background(), contractScript, "X")
			if err != nil {
				t.Fatal(err)
			}
			escaped := "dataType == &#39;ChipSeq&#39;; region: p_value &lt; 0.5"
			rows := []debugRow{
				{path: "/debug/", html: []string{`href="/debug/queries"`, `href="/debug/repo"`}},
				{path: "/debug/queries", key: qr.QueryID, html: []string{"<th>active</th>", ">done<", escaped}},
				{path: "/debug/repo", key: "ENCODE", html: []string{">ANNOTATIONS<", "<th>chroms</th>", "<th>samples_loaded</th>"}},
				{path: "/debug/federation", html: []string{"<th>hedging</th><td>false</td>"}},
				{path: "/debug/prof", html: []string{"<th>captures</th>"}},
				{path: "/debug/costs", html: []string{">SELECT<", "<th>ns_per_region</th>"}},
				{path: "/debug/estimates", html: []string{">regions<"}},
				{path: "/debug/slowlog", html: []string{">" + qr.QueryID + "<", escaped}},
			}
			checkConsole(t, debug.URL, rows, fullIndex)
			if split {
				// The node's own console answers on the query listener.
				checkConsole(t, main.URL, rows[:7], nodeIndex)
			}
			checkPlain(t, debug.URL)
		})
	}
}

func checkConsole(t *testing.T, base string, rows []debugRow, index []string) {
	t.Helper()
	for _, r := range rows {
		paths := []string{r.path}
		if r.key != "" {
			paths = append(paths, r.path+"/"+r.key)
		}
		for _, p := range paths {
			if code, ct, body := fetch(t, http.MethodGet, base+p, ""); code != http.StatusOK || ct != "application/json" || !json.Valid(body) {
				t.Errorf("GET %s = %d %q, want JSON", p, code, ct)
			}
			if code, ct, _ := fetch(t, http.MethodGet, base+p+"?format=json", "text/html"); code != http.StatusOK || ct != "application/json" {
				t.Errorf("GET %s?format=json = %d %q, want JSON", p, code, ct)
			}
			if code, _, _ := fetch(t, http.MethodPost, base+p, ""); code != http.StatusMethodNotAllowed {
				t.Errorf("POST %s = %d, want 405", p, code)
			}
		}
		code, ct, page := fetch(t, http.MethodGet, base+r.path, "text/html,application/xhtml+xml,*/*;q=0.8")
		if code != http.StatusOK || ct != "text/html; charset=utf-8" {
			t.Errorf("browser GET %s = %d %q, want HTML", r.path, code, ct)
		}
		if r.key != "" {
			_, _, detail := fetch(t, http.MethodGet, base+r.path+"/"+r.key, "text/html")
			page = append(page, detail...)
			if link := `href="` + r.path + "/" + r.key + `"`; !strings.Contains(string(page), link) {
				t.Errorf("%s page has no drill-down link %s", r.path, link)
			}
		}
		for _, want := range r.html {
			if !strings.Contains(string(page), want) {
				t.Errorf("%s pages missing %q", r.path, want)
			}
		}
		if strings.Contains(string(page), "p_value < 0.5") {
			t.Errorf("%s pages leak an unescaped value", r.path)
		}
		if code, _, _ := fetch(t, http.MethodGet, base+strings.TrimSuffix(r.path, "/")+"/999999", ""); code != http.StatusNotFound {
			t.Errorf("GET %s/999999 = %d, want 404", r.path, code)
		}
	}
	_, _, body := fetch(t, http.MethodGet, base+"/debug/", "")
	var eps []struct {
		Path string `json:"path"`
	}
	if err := json.Unmarshal(body, &eps); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ep := range eps {
		got = append(got, ep.Path)
	}
	if strings.Join(got, " ") != strings.Join(index, " ") {
		t.Errorf("index on %s = %v, want %v", base, got, index)
	}
}

// checkPlain covers the plain handlers the index lists next to the views.
func checkPlain(t *testing.T, base string) {
	t.Helper()
	code, ct, body := fetch(t, http.MethodGet, base+"/metrics", "text/html")
	if code != http.StatusOK || ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics = %d %q", code, ct)
	}
	for _, m := range []string{"genogo_build_info{", "genogo_uptime_seconds"} {
		if !strings.Contains(string(body), m) {
			t.Errorf("/metrics missing %s", m)
		}
	}
	if code, _, _ := fetch(t, http.MethodPost, base+"/metrics", ""); code != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d, want 405", code)
	}
	if code, _, _ := fetch(t, http.MethodGet, base+"/debug/pprof/", ""); code != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d", code)
	}
	if code, _, _ := fetch(t, http.MethodGet, base+"/debug/prof/999999", ""); code != http.StatusNotFound {
		t.Errorf("/debug/prof/999999 = %d, want 404", code)
	}
}

// fetch sends one request, returning status, content type and body.
func fetch(t *testing.T, method, url, accept string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// TestRepoConsoleAndIndex: the daemon serves the repository catalog for its
// loaded datasets on /debug/repo, and the /debug/ index page lists the
// mounted debug surface.
func TestRepoConsoleAndIndex(t *testing.T) {
	dir := writeRepo(t)
	var out bytes.Buffer
	n, err := setup([]string{"-data", dir, "-mode", "serial"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(n.srv.Handler)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/repo?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Datasets []struct {
			Name   string `json:"name"`
			Source string `json:"source"`
		} `json:"datasets"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, d := range listing.Datasets {
		got[d.Name] = d.Source
	}
	for _, name := range []string{"ENCODE", "ANNOTATIONS"} {
		if got[name] != "manifest" {
			t.Errorf("%s source = %q, want manifest (sources: %v)", name, got[name], got)
		}
	}

	// The per-dataset drill-down resolves by name.
	resp, err = http.Get(ts.URL + "/debug/repo/ENCODE?format=json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "chroms") {
		t.Errorf("detail status = %d body = %.120s", resp.StatusCode, body)
	}

	// The index names every mounted endpoint.
	resp, err = http.Get(ts.URL + "/debug/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, p := range []string{"/debug/repo", "/debug/estimates", "/debug/queries",
		"/debug/costs", "/metrics"} {
		if !strings.Contains(string(body), p) {
			t.Errorf("/debug/ index missing %s", p)
		}
	}
}

// TestDebugEndpointsConcurrentScrapes hammers every debug endpoint while
// queries execute — the race detector proves snapshot stability mid-query.
func TestDebugEndpointsConcurrentScrapes(t *testing.T) {
	dir := writeRepo(t)
	var out bytes.Buffer
	n, err := setup([]string{"-data", dir, "-mode", "stream", "-slow-query", "1ns"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(n.srv.Handler)
	defer ts.Close()

	paths := []string{"/metrics", "/debug/prof", "/debug/costs",
		"/debug/slowlog", "/debug/queries?format=json", "/debug/repo?format=json",
		"/debug/estimates", "/debug/"}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, p := range paths {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + p)
				if err != nil {
					t.Errorf("GET %s: %v", p, err)
					return
				}
				if _, err := io.ReadAll(resp.Body); err != nil {
					t.Errorf("read %s: %v", p, err)
				}
				resp.Body.Close()
			}
		}(p)
	}
	// Queries run while the scrapers hammer the debug surface.
	c := federation.NewClient(ts.URL)
	for i := 0; i < 5; i++ {
		if _, err := c.Execute(context.Background(),
			`Z = SELECT(dataType == 'ChipSeq') ENCODE; MATERIALIZE Z;`, "Z"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
