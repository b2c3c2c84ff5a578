package catalog_test

// The repository catalog a node serves is formats.DirCatalog; these tests
// pin which source its statistics come from and its /debug/repo console.
// They live in this package's external test package so they sit beside the
// statistics types they check (formats imports catalog, not the reverse).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"genogo/internal/catalog"
	"genogo/internal/formats"
	"genogo/internal/gdm"
	"genogo/internal/obs"
)

// dataset builds a one-sample dataset with one region per chromosome
// window given as {chrom, start, stop}.
func dataset(name, sample string, regions ...[3]any) *gdm.Dataset {
	ds := gdm.NewDataset(name, gdm.MustSchema(gdm.Field{Name: "score", Type: gdm.KindFloat}))
	s := gdm.NewSample(sample)
	s.Meta.Add("cell", "HeLa")
	for _, r := range regions {
		s.AddRegion(gdm.NewRegion(r[0].(string), int64(r[1].(int)), int64(r[2].(int)),
			gdm.StrandNone), gdm.Float(1))
	}
	s.SortRegions()
	ds.MustAdd(s)
	return ds
}

// member writes ds as a repository member under root.
func member(t *testing.T, root string, ds *gdm.Dataset) string {
	t.Helper()
	dir := filepath.Join(root, ds.Name)
	if err := formats.WriteDatasetColumnar(dir, ds); err != nil {
		t.Fatal(err)
	}
	return dir
}

// hold loads name into c, so its statistics are the catalog's to resolve.
func hold(t *testing.T, c *formats.DirCatalog, name string) {
	t.Helper()
	if _, err := c.Dataset(name); err != nil {
		t.Fatal(err)
	}
}

// rows is the /debug/repo listing as JSON clients read it.
func rows(t *testing.T, c *formats.DirCatalog) []formats.DatasetSummary {
	t.Helper()
	raw, err := json.Marshal(c.View().List())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Datasets []formats.DatasetSummary `json:"datasets"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Datasets
}

// sign appends the integrity footer a member's text files carry.
func sign(payload []byte) ([]byte, uint32) {
	sum := crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli))
	return fmt.Appendf(payload, "#gdmsum\tcrc32c:%08x\tbytes:%d\n", sum, len(payload)), sum
}

// unsign strips a signed file's footer line.
func unsign(data []byte) []byte {
	return data[:bytes.LastIndexByte(data[:len(data)-1], '\n')+1]
}

// rewriteBlock edits a member's stats.json and re-signs it, with a manifest
// entry vouching for the new bytes: the file verifies, only its content is
// wrong.
func rewriteBlock(t *testing.T, dir string, edit func(*catalog.DatasetStats)) {
	t.Helper()
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return unsign(data)
	}
	var st catalog.DatasetStats
	if err := json.Unmarshal(read(formats.StatsName), &st); err != nil {
		t.Fatal(err)
	}
	edit(&st)
	payload, err := json.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}
	block, sum := sign(append(payload, '\n'))
	var man map[string]any
	if err := json.Unmarshal(read(formats.ManifestName), &man); err != nil {
		t.Fatal(err)
	}
	man["files"].(map[string]any)[formats.StatsName] = formats.FileInfo{Size: int64(len(block)), CRC32C: fmt.Sprintf("%08x", sum)}
	manPayload, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	manifest, _ := sign(append(manPayload, '\n'))
	for name, data := range map[string][]byte{formats.StatsName: block, formats.ManifestName: manifest} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRepoRecordManifestStats: a complete load of a member adopts its
// stats.json without a scan.
func TestRepoRecordManifestStats(t *testing.T) {
	root := t.TempDir()
	ds := dataset("beds", "s", [3]any{"chr1", 0, 100})
	member(t, root, ds)
	c := formats.NewDirCatalog(root)
	hold(t, c, "beds")

	before := formats.LazyScans()
	got, ok := c.Stats("beds")
	if !ok || got.Digest != ds.ContentDigest() {
		t.Fatalf("Stats = %+v ok=%v, want the member's block", got, ok)
	}
	if formats.LazyScans() != before {
		t.Fatal("usable manifest block must not trigger a scan")
	}
	rs := rows(t, c)
	if len(rs) != 1 || rs[0].Name != "beds" || rs[0].Regions != 1 ||
		rs[0].Source != formats.SourceManifest || rs[0].Integrity != "verified" {
		t.Fatalf("rows = %+v", rs)
	}
}

// TestRepoLazyScanExactlyOnce: a held text export is scanned on its first
// Stats and never again, the listing included.
func TestRepoLazyScanExactlyOnce(t *testing.T) {
	root := t.TempDir()
	ds := dataset("legacy", "s", [3]any{"chr1", 5, 50})
	if err := formats.WriteDataset(filepath.Join(root, "legacy"), ds); err != nil {
		t.Fatal(err)
	}
	c := formats.NewDirCatalog(root)
	hold(t, c, "legacy")

	before := formats.LazyScans()
	st, ok := c.Stats("legacy")
	if !ok || st == nil {
		t.Fatal("lazy scan produced no stats")
	}
	if formats.LazyScans() != before+1 {
		t.Fatalf("LazyScans = %d, want %d", formats.LazyScans(), before+1)
	}
	if st.Digest != ds.ContentDigest() {
		t.Fatalf("scan digest = %q", st.Digest)
	}
	// Second access, and the list view, must reuse the cached scan.
	if st2, _ := c.Stats("legacy"); st2 != st {
		t.Fatal("second Stats call rescanned")
	}
	if rs := rows(t, c); len(rs) != 1 || rs[0].Source != formats.SourceScan || rs[0].Integrity != "unverified" {
		t.Fatalf("rows = %+v", rs)
	}
	if formats.LazyScans() != before+1 {
		t.Fatalf("LazyScans after reuse = %d, want %d", formats.LazyScans(), before+1)
	}
}

// TestRepoStaleOnDigestChange: re-adding a name drops its statistics; the
// next read computes the new dataset's.
func TestRepoStaleOnDigestChange(t *testing.T) {
	c := &formats.DirCatalog{}
	c.Add(dataset("d", "s", [3]any{"chr1", 0, 10}))
	if _, ok := c.Stats("d"); !ok {
		t.Fatal("first scan failed")
	}

	// The dataset grows: same name, new content.
	ds2 := dataset("d", "s", [3]any{"chr1", 0, 10})
	s2 := gdm.NewSample("s2")
	s2.AddRegion(gdm.NewRegion("chr2", 0, 10, gdm.StrandNone), gdm.Float(1))
	ds2.MustAdd(s2)
	c.Add(ds2)

	rs := rows(t, c)
	if len(rs) != 1 {
		t.Fatalf("rows = %+v", rs)
	}
	if rs[0].Samples != 2 || rs[0].Source != formats.SourceMemory {
		t.Fatalf("rescan missed the new sample: %+v", rs[0])
	}
	if rs[0].Digest != ds2.ContentDigest() {
		t.Fatalf("digest = %q, want new digest", rs[0].Digest)
	}
}

// TestRepoStaleManifestBlockRescans: a stats.json that verifies but
// describes other content is not adopted; the held dataset is scanned once.
func TestRepoStaleManifestBlockRescans(t *testing.T) {
	root := t.TempDir()
	ds := dataset("d", "s", [3]any{"chr1", 0, 10})
	dir := member(t, root, ds)
	c := formats.NewDirCatalog(root)
	// A rewrite that edits nothing still verifies: only the edit below can
	// make the block unusable.
	rewriteBlock(t, dir, func(*catalog.DatasetStats) {})
	if _, ok := c.Stats("d"); !ok {
		t.Fatal("re-signed block does not verify")
	}
	rewriteBlock(t, dir, func(st *catalog.DatasetStats) { st.Digest = "sha256:someone-elses-digest" })
	hold(t, c, "d")

	before := formats.LazyScans()
	st, ok := c.Stats("d")
	if !ok || st.Digest != ds.ContentDigest() {
		t.Fatalf("Stats = %+v ok=%v: stale block adopted as-is", st, ok)
	}
	if formats.LazyScans() != before+1 {
		t.Fatal("stale block must trigger exactly one rescan")
	}
	if rs := rows(t, c); rs[0].Source != formats.SourceScan || rs[0].Integrity != "verified" {
		t.Fatalf("rows = %+v", rs)
	}
}

// TestRepoFutureVersionRescans: a block of a newer stats version is not
// adopted; the held dataset is scanned into this build's version.
func TestRepoFutureVersionRescans(t *testing.T) {
	root := t.TempDir()
	dir := member(t, root, dataset("d", "s", [3]any{"chr1", 0, 10}))
	rewriteBlock(t, dir, func(st *catalog.DatasetStats) { st.Version = catalog.StatsVersion + 1 })
	c := formats.NewDirCatalog(root)
	if _, ok := c.Stats("d"); ok {
		t.Fatal("future-version block served before the load")
	}
	hold(t, c, "d")
	st, ok := c.Stats("d")
	if !ok || st.Version != catalog.StatsVersion {
		t.Fatalf("Stats = %+v ok=%v, want a rescan at version %d", st, ok, catalog.StatsVersion)
	}
}

func TestRepoDetail(t *testing.T) {
	c := &formats.DirCatalog{}
	c.Add(dataset("d", "a", [3]any{"chr1", 0, 100}, [3]any{"chr2", 10, 30}))
	v, ok := c.View().Drill("d")
	if !ok {
		t.Fatal("Detail missing")
	}
	d := v.(formats.DatasetDetail)
	if len(d.Chroms) != 2 || d.Chroms[0].Chrom != "chr1" {
		t.Fatalf("Detail chroms = %+v", d.Chroms)
	}
	if d.Stats == nil || len(d.Stats.Samples) != 1 {
		t.Fatalf("Detail stats = %+v", d.Stats)
	}
	if _, ok := c.View().Drill("nope"); ok {
		t.Fatal("unknown dataset reported present")
	}
}

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

func newConsoleServer(t *testing.T) *httptest.Server {
	t.Helper()
	root := t.TempDir()
	member(t, root, dataset("beds", "s1", [3]any{"chr1", 0, 100}, [3]any{"chr2", 50, 500}))
	c := formats.NewDirCatalog(root)
	hold(t, c, "beds")
	mux := http.NewServeMux()
	obs.NewConsole(mux).Register(c.View())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestRepoConsoleList(t *testing.T) {
	srv := newConsoleServer(t)
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
	srv := newConsoleServer(t)
	resp, err := http.Get(srv.URL + "/debug/repo?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var doc struct {
		Datasets []formats.DatasetSummary `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Datasets) != 1 || doc.Datasets[0].Name != "beds" || doc.Datasets[0].Regions != 2 {
		t.Fatalf("JSON list = %+v", doc.Datasets)
	}
}

func TestRepoConsoleDetail(t *testing.T) {
	srv := newConsoleServer(t)
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
	var d formats.DatasetDetail
	if err := json.NewDecoder(resp2.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if len(d.Chroms) != 2 || d.Chroms[1].MaxStop != 500 {
		t.Fatalf("JSON detail = %+v", d.Chroms)
	}
}

func TestRepoConsoleErrors(t *testing.T) {
	srv := newConsoleServer(t)
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
