package catalog

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"genogo/internal/obs"
)

// getHTML GETs url the way a browser does (Accept lists text/html).
func getHTML(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("Accept", "text/html,application/xhtml+xml,*/*;q=0.8")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(raw)
}

func newConsoleServer(t *testing.T) (*httptest.Server, *Registry) {
	t.Helper()
	r := NewRegistry()
	ds := testDataset(t, "beds",
		testSample("s1", map[string]string{"cell": "HeLa"},
			[3]any{"chr1", 0, 100}, [3]any{"chr2", 50, 500}))
	r.Record(Info{Name: "beds", Digest: ds.ContentDigest(), Source: SourceMemory,
		Integrity: "verified", Dataset: ds})
	mux := http.NewServeMux()
	obs.NewConsole(mux).Register(r.View())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, r
}

func TestRepoConsoleList(t *testing.T) {
	srv, _ := newConsoleServer(t)
	resp, body := getHTML(t, srv.URL+"/debug/repo")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("Content-Type = %q", ct)
	}
	for _, want := range []string{`href="/debug/repo/beds"`, ">beds<", ">verified<", ">2<"} {
		if !strings.Contains(body, want) {
			t.Fatalf("list HTML missing %q:\n%s", want, body)
		}
	}
}

func TestRepoConsoleListJSON(t *testing.T) {
	srv, _ := newConsoleServer(t)
	resp, err := http.Get(srv.URL + "/debug/repo?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var doc struct {
		Datasets []DatasetSummary `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Datasets) != 1 || doc.Datasets[0].Name != "beds" || doc.Datasets[0].Regions != 2 {
		t.Fatalf("JSON list = %+v", doc.Datasets)
	}
}

func TestRepoConsoleDetail(t *testing.T) {
	srv, _ := newConsoleServer(t)
	_, body := getHTML(t, srv.URL+"/debug/repo/beds")
	for _, want := range []string{">chr1<", ">chr2<", ">500<", ">s1<"} {
		if !strings.Contains(body, want) {
			t.Fatalf("detail HTML missing %q:\n%s", want, body)
		}
	}

	resp2, err := http.Get(srv.URL + "/debug/repo/beds?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var d DatasetDetail
	if err := json.NewDecoder(resp2.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if len(d.Chroms) != 2 || d.Chroms[1].MaxStop != 500 {
		t.Fatalf("JSON detail = %+v", d.Chroms)
	}
}

func TestRepoConsoleErrors(t *testing.T) {
	srv, _ := newConsoleServer(t)
	resp, err := http.Get(srv.URL + "/debug/repo/unknown")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset: status %d", resp.StatusCode)
	}
	resp2, err := http.Post(srv.URL+"/debug/repo", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST: status %d, want 405", resp2.StatusCode)
	}
}
