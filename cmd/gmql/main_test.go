package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"genogo/internal/engine"
	"genogo/internal/formats"
	"genogo/internal/gdm"
	"genogo/internal/gmql"
	"genogo/internal/obs"
	"genogo/internal/synth"
)

// writeRepo materializes a small synthetic repository on disk.
func writeRepo(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	g := synth.New(3)
	enc := g.Encode(synth.EncodeOptions{Samples: 12, MeanPeaks: 40})
	anns := g.Annotations(g.Genes(50))
	if err := formats.WriteDatasetColumnar(filepath.Join(dir, "ENCODE"), enc); err != nil {
		t.Fatal(err)
	}
	if err := formats.WriteDatasetColumnar(filepath.Join(dir, "ANNOTATIONS"), anns); err != nil {
		t.Fatal(err)
	}
	return dir
}

func writeScript(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "query.gmql")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const cliScript = `
PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
RESULT = MAP(peak_count AS COUNT) PROMS PEAKS;
MATERIALIZE RESULT INTO result;
`

// TestEndToEndDiskRoundTrip is the full-system integration test: synthetic
// repository on disk -> CLI -> materialized results on disk -> reload.
func TestEndToEndDiskRoundTrip(t *testing.T) {
	data := writeRepo(t)
	outDir := filepath.Join(t.TempDir(), "results")
	script := writeScript(t, cliScript)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-data", data, "-out", outDir, script}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "RESULT:") {
		t.Errorf("output = %q", out.String())
	}
	ds, err := formats.ReadDataset(filepath.Join(outDir, "result"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ds.Samples) == 0 || ds.NumRegions() == 0 {
		t.Errorf("empty result: %s", ds)
	}
	if _, ok := ds.Schema.Index("peak_count"); !ok {
		t.Errorf("schema = %s", ds.Schema)
	}
	// MAP cardinality law on disk: every sample carries all promoters.
	proms := 50
	for _, s := range ds.Samples {
		if len(s.Regions) != proms {
			t.Errorf("sample %s regions = %d, want %d", s.ID, len(s.Regions), proms)
		}
	}
}

func TestCLIModes(t *testing.T) {
	data := writeRepo(t)
	script := writeScript(t, cliScript)
	var counts []int
	for _, mode := range []string{"serial", "batch", "stream"} {
		outDir := filepath.Join(t.TempDir(), mode)
		var out bytes.Buffer
		if err := run(context.Background(), []string{"-data", data, "-out", outDir, "-mode", mode, script}, &out); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		ds, err := formats.ReadDataset(filepath.Join(outDir, "result"))
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, ds.NumRegions())
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Errorf("modes disagree on disk: %v", counts)
	}
}

// TestCLIColumnar runs the same script against a repository of members and
// against text exports of the same datasets: the member result (the default
// -format) must decode to exactly what the export pipeline (-format native)
// produces.
func TestCLIColumnar(t *testing.T) {
	g := synth.New(3)
	enc := g.Encode(synth.EncodeOptions{Samples: 12, MeanPeaks: 40})
	anns := g.Annotations(g.Genes(50))

	textData, colData := t.TempDir(), t.TempDir()
	if err := formats.WriteDataset(filepath.Join(textData, "ENCODE"), enc); err != nil {
		t.Fatal(err)
	}
	if err := formats.WriteDataset(filepath.Join(textData, "ANNOTATIONS"), anns); err != nil {
		t.Fatal(err)
	}
	if err := formats.WriteDatasetColumnar(filepath.Join(colData, "ENCODE"), enc); err != nil {
		t.Fatal(err)
	}
	if err := formats.WriteDatasetColumnar(filepath.Join(colData, "ANNOTATIONS"), anns); err != nil {
		t.Fatal(err)
	}
	script := writeScript(t, cliScript)

	textOut := filepath.Join(t.TempDir(), "results")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-data", textData, "-out", textOut, "-format", "native", script}, &out); err != nil {
		t.Fatal(err)
	}
	colOut := filepath.Join(t.TempDir(), "results")
	if err := run(context.Background(), []string{"-data", colData, "-out", colOut, script}, &out); err != nil {
		t.Fatal(err)
	}

	want, err := formats.ReadDataset(filepath.Join(textOut, "result"))
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := formats.OpenDataset(filepath.Join(colOut, "result"), formats.IntegrityPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Errorf("materialized result report = %+v, want a verified member", rep)
	}
	if a, b := want.ContentDigest(), got.ContentDigest(); a != b {
		t.Errorf("text and columnar pipelines disagree: %s != %s", a, b)
	}
}

func TestCLIExplain(t *testing.T) {
	data := writeRepo(t)
	script := writeScript(t, cliScript)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-data", data, "-explain", "RESULT", script}, &out); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"MAP", "SELECT", "SCAN ENCODE"} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("explain missing %q:\n%s", frag, out.String())
		}
	}
}

// TestMetricsCLIProfile runs the CLI with -profile and checks the rendered
// span tree is internally consistent: the root operator's out= counts equal
// the materialized result written to disk.
func TestMetricsCLIProfile(t *testing.T) {
	data := writeRepo(t)
	outDir := filepath.Join(t.TempDir(), "results")
	script := writeScript(t, cliScript)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-data", data, "-out", outDir, "-mode", "serial", "-profile", script}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "profile of RESULT:") {
		t.Fatalf("no profile section:\n%s", text)
	}
	ds, err := formats.ReadDataset(filepath.Join(outDir, "result"))
	if err != nil {
		t.Fatal(err)
	}
	rootOut := fmt.Sprintf("out=%ds/%dr", len(ds.Samples), ds.NumRegions())
	profile := text[strings.Index(text, "profile of RESULT:"):]
	rootLine, _, _ := strings.Cut(profile[strings.Index(profile, "\n")+1:], "\n")
	if !strings.Contains(rootLine, "MAP") || !strings.Contains(rootLine, rootOut) {
		t.Errorf("root span %q does not carry %q", rootLine, rootOut)
	}
	for _, frag := range []string{"SELECT", "SCAN ENCODE", "SCAN ANNOTATIONS", "[serial]", "time="} {
		if !strings.Contains(profile, frag) {
			t.Errorf("profile missing %q:\n%s", frag, profile)
		}
	}
}

func TestCLIErrors(t *testing.T) {
	data := writeRepo(t)
	script := writeScript(t, cliScript)
	var out bytes.Buffer
	cases := [][]string{
		{},                           // no script
		{"-mode", "quantum", script}, // bad mode
		{"-data", filepath.Join(t.TempDir(), "empty"), script},   // no datasets
		{"-data", data, filepath.Join(t.TempDir(), "nope.gmql")}, // missing script
	}
	// An empty-but-existing data dir.
	empty := filepath.Join(t.TempDir(), "empty2")
	if err := os.MkdirAll(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	cases = append(cases, []string{"-data", empty, script})
	for _, args := range cases {
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
	// Bad script contents.
	bad := writeScript(t, "X = FROB() Y;")
	if err := run(context.Background(), []string{"-data", data, bad}, &out); err == nil {
		t.Error("bad script accepted")
	}
}

func TestParseConfig(t *testing.T) {
	cfg, err := parseConfig("batch", 7, 1000)
	if err != nil || cfg.Workers != 7 || cfg.BinWidth != 1000 {
		t.Errorf("cfg = %+v, %v", cfg, err)
	}
	if _, err := parseConfig("nope", 0, 0); err == nil {
		t.Error("bad mode accepted")
	}
}

func TestCLIBEDExport(t *testing.T) {
	data := writeRepo(t)
	outDir := filepath.Join(t.TempDir(), "bedout")
	script := writeScript(t, `X = SELECT(dataType == 'ChipSeq') ENCODE; MATERIALIZE X INTO x;`)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-data", data, "-out", outDir, "-format", "bed", script}, &out); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(outDir, "x"))
	if err != nil {
		t.Fatal(err)
	}
	beds, metas := 0, 0
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".bed.meta"):
			metas++
		case strings.HasSuffix(e.Name(), ".bed"):
			beds++
		}
	}
	if beds == 0 || beds != metas {
		t.Fatalf("beds=%d metas=%d", beds, metas)
	}
	// The exported BED round-trips through the importer.
	var bedFile string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".bed") && !strings.HasSuffix(e.Name(), ".meta") {
			bedFile = filepath.Join(outDir, "x", e.Name())
			break
		}
	}
	s, _, err := formats.ImportSample(bedFile, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Regions) == 0 {
		t.Error("exported BED empty")
	}
	if !s.Meta.Has("dataType") {
		t.Error("sidecar metadata not exported")
	}
	// Unknown format rejected.
	if err := run(context.Background(), []string{"-data", data, "-format", "tsv", script}, &out); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestTraceCLIProfileQueryID: -profile prints the run's query id, the same
// identity the query console and slow log would use.
func TestTraceCLIProfileQueryID(t *testing.T) {
	data := writeRepo(t)
	script := writeScript(t, cliScript)
	var out bytes.Buffer
	args := []string{"-data", data, "-out", filepath.Join(t.TempDir(), "r"), "-mode", "serial", "-profile", script}
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatal(err)
	}
	line, _, _ := strings.Cut(out.String(), "\n")
	if !strings.HasPrefix(line, "query id: q") {
		t.Errorf("first line = %q, want a query id", line)
	}
}

// TestTraceCLIProfileJSON: -profile-json emits only a JSON document with the
// query id and one span tree per materialized variable.
func TestTraceCLIProfileJSON(t *testing.T) {
	data := writeRepo(t)
	outDir := filepath.Join(t.TempDir(), "results")
	script := writeScript(t, cliScript)
	var out bytes.Buffer
	args := []string{"-data", data, "-out", outDir, "-mode", "serial", "-profile-json", script}
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		QueryID  string `json:"query_id"`
		Profiles []struct {
			Var     string    `json:"var"`
			Target  string    `json:"target"`
			Profile *obs.Span `json:"profile"`
		} `json:"profiles"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not a single JSON document: %v\n%s", err, out.String())
	}
	if !strings.HasPrefix(doc.QueryID, "q") {
		t.Errorf("query_id = %q", doc.QueryID)
	}
	if len(doc.Profiles) != 1 || doc.Profiles[0].Var != "RESULT" || doc.Profiles[0].Target != "result" {
		t.Fatalf("profiles = %+v", doc.Profiles)
	}
	root := doc.Profiles[0].Profile
	if root == nil || root.Op != "MAP" || root.DurationNS <= 0 {
		t.Errorf("profile root = %+v", root)
	}
	// The datasets were still materialized.
	ds, err := formats.ReadDataset(filepath.Join(outDir, "result"))
	if err != nil {
		t.Fatal(err)
	}
	if root.SamplesOut != len(ds.Samples) || root.RegionsOut != ds.NumRegions() {
		t.Errorf("span out = %ds/%dr, dataset = %ds/%dr",
			root.SamplesOut, root.RegionsOut, len(ds.Samples), ds.NumRegions())
	}
}

// TestGovernExitPaths: governance kills exit distinctly from generic
// failures, and -profile-json still emits machine-readable output saying why
// the run died.
func TestGovernExitPaths(t *testing.T) {
	data := writeRepo(t)

	t.Run("budget kill exits 4", func(t *testing.T) {
		outDir := filepath.Join(t.TempDir(), "results")
		script := writeScript(t, cliScript)
		var out bytes.Buffer
		err := run(context.Background(), []string{"-data", data, "-out", outDir, "-max-regions", "1", script}, &out)
		if err == nil {
			t.Fatal("budget-killed run succeeded")
		}
		if code := exitCode(err); code != 4 {
			t.Errorf("exitCode(%v) = %d, want 4", err, code)
		}
	})

	t.Run("canceled context exits 3", func(t *testing.T) {
		outDir := filepath.Join(t.TempDir(), "results")
		script := writeScript(t, cliScript)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var out bytes.Buffer
		err := run(ctx, []string{"-data", data, "-out", outDir, script}, &out)
		if err == nil {
			t.Fatal("canceled run succeeded")
		}
		if code := exitCode(err); code != 3 {
			t.Errorf("exitCode(%v) = %d, want 3", err, code)
		}
	})

	t.Run("profile-json reports the kill", func(t *testing.T) {
		outDir := filepath.Join(t.TempDir(), "results")
		script := writeScript(t, cliScript)
		var out bytes.Buffer
		err := run(context.Background(), []string{"-data", data, "-out", outDir,
			"-profile-json", "-max-regions", "1", script}, &out)
		if err == nil {
			t.Fatal("budget-killed run succeeded")
		}
		var report struct {
			QueryID string `json:"query_id"`
			Status  string `json:"status"`
			Reason  string `json:"reason"`
			Error   string `json:"error"`
		}
		if jerr := json.Unmarshal(out.Bytes(), &report); jerr != nil {
			t.Fatalf("kill report is not JSON: %v\n%s", jerr, out.String())
		}
		if report.Reason != "budget" || report.QueryID == "" || report.Error == "" {
			t.Errorf("kill report = %+v, want reason=budget with id and error", report)
		}
	})

	t.Run("generic failure exits 1", func(t *testing.T) {
		if code := exitCode(fmt.Errorf("boom")); code != 1 {
			t.Errorf("exitCode(generic) = %d, want 1", code)
		}
	})
}

// lazyRepo writes the lazy-catalog tests' repository and returns its root
// and the cell of the first ENCODE sample, which the scripts select on.
func lazyRepo(t *testing.T) (string, *gdm.Dataset, string) {
	t.Helper()
	dir := t.TempDir()
	g := synth.New(5)
	enc := g.Encode(synth.EncodeOptions{Samples: 12, MeanPeaks: 40})
	for _, ds := range []*gdm.Dataset{enc, g.Annotations(g.Genes(50))} {
		if err := formats.WriteDatasetColumnar(filepath.Join(dir, ds.Name), ds); err != nil {
			t.Fatal(err)
		}
	}
	return dir, enc, enc.Samples[0].Meta.First("cell")
}

// eagerDigests runs a script the way gmql did before it opened datasets
// lazily — every dataset loaded up front into an in-memory catalog — and
// returns each MATERIALIZE target's content digest.
func eagerDigests(t *testing.T, data, script, mode string) map[string]string {
	t.Helper()
	dss, _, err := formats.LoadRepository(data, formats.IntegrityPolicy{AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	cat := engine.MapCatalog{}
	for _, ds := range dss {
		cat[ds.Name] = ds
	}
	cfg, err := parseConfig(mode, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := gmql.Parse(script)
	if err != nil {
		t.Fatal(err)
	}
	results, err := (&gmql.Runner{Config: cfg, Catalog: cat}).Materialize(prog)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, r := range results {
		out[r.Target] = r.Dataset.ContentDigest()
	}
	return out
}

// lazyRun runs the CLI and returns its output and each MATERIALIZE target's
// content digest, read back strictly.
func lazyRun(t *testing.T, data, script, mode string, targets map[string]string) (string, map[string]string) {
	t.Helper()
	outDir := filepath.Join(t.TempDir(), "results")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-data", data, "-out", outDir, "-mode", mode, writeScript(t, script)}, &out); err != nil {
		t.Fatalf("%s: %v\n%s", mode, err, out.String())
	}
	got := map[string]string{}
	for target := range targets {
		ds, _, err := formats.OpenDataset(filepath.Join(outDir, target), formats.IntegrityPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		got[target] = ds.ContentDigest()
	}
	return out.String(), got
}

// TestLazyCatalogEquivalence: the CLI opens datasets on first use and reads
// scans under SELECT, MAP and JOIN pruned — by metadata and by zone window —
// yet every MATERIALIZE output in every mode is the one the eager in-memory
// load computes. The image of a sample every SELECT of a script rejects by
// metadata is never opened: bit-flipped, the run still succeeds, byte-
// identical and without a warning.
func TestLazyCatalogEquivalence(t *testing.T) {
	data, enc, cell := lazyRepo(t)
	script := fmt.Sprintf(`
P = SELECT(annType == 'promoter') ANNOTATIONS;
MC = SELECT(dataType == 'ChipSeq' AND cell == '%[1]s'; region: chr == 'chr1') ENCODE;
M = SELECT(cell == '%[1]s') ENCODE;
SJ = SELECT(dataType == 'ChipSeq'; semijoin: cell IN M) ENCODE;
E = SELECT(dataType == 'ChipSeq') ENCODE;
MP = MAP(peak_count AS COUNT) P E;
J = JOIN(DLE(10000); output: CAT) P E;
H = HISTOGRAM(2, ANY) E;
U = UNION() M MC;
MATERIALIZE MC INTO mc;
MATERIALIZE M INTO m;
MATERIALIZE SJ INTO sj;
MATERIALIZE MP INTO mp;
MATERIALIZE J INTO j;
MATERIALIZE H INTO h;
MATERIALIZE U INTO u;
`, cell)
	selects := fmt.Sprintf(`
MC = SELECT(dataType == 'ChipSeq' AND cell == '%[1]s'; region: chr == 'chr1') ENCODE;
M = SELECT(cell == '%[1]s') ENCODE;
MATERIALIZE MC INTO mc;
MATERIALIZE M INTO m;
`, cell)
	modes := []string{"serial", "batch", "stream"}
	for _, mode := range modes {
		want := eagerDigests(t, data, script, mode)
		if len(want) != 7 {
			t.Fatalf("eager run materialized %d targets, want 7", len(want))
		}
		_, got := lazyRun(t, data, script, mode, want)
		for target, digest := range want {
			if got[target] != digest {
				t.Errorf("%s %s: lazy digest %s, eager %s", mode, target, gdm.ShortDigest(got[target]), gdm.ShortDigest(digest))
			}
		}
	}

	wantSelects := eagerDigests(t, data, selects, "serial")
	var rejected string
	for _, s := range enc.Samples {
		if s.Meta.First("cell") != cell {
			rejected = s.ID
			break
		}
	}
	if rejected == "" {
		t.Fatal("every sample has the selected cell")
	}
	path := filepath.Join(data, "ENCODE", rejected+".gdmc")
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-1] ^= 0x01
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range modes {
		out, got := lazyRun(t, data, selects, mode, wantSelects)
		if strings.Contains(out, "WARNING") {
			t.Errorf("%s: a run that never opens the damaged image warned:\n%s", mode, out)
		}
		for target, digest := range wantSelects {
			if got[target] != digest {
				t.Errorf("%s %s over a damaged unread image: digest %s, want %s", mode, target, gdm.ShortDigest(got[target]), gdm.ShortDigest(digest))
			}
		}
	}
}

// TestLazyCatalogWarnings: damage a run reads is skipped and reported in one
// WARNING after the run; damage in a dataset the run never opens is not.
func TestLazyCatalogWarnings(t *testing.T) {
	data, enc, cell := lazyRepo(t)
	var kept string
	for _, s := range enc.Samples {
		if s.Meta.First("cell") == cell {
			kept = s.ID
		}
	}
	for _, path := range []string{
		filepath.Join(data, "ENCODE", kept+".gdmc"),
		filepath.Join(data, "ANNOTATIONS", "genes.gdm.meta"),
	} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)-1] ^= 0x01
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	script := writeScript(t, fmt.Sprintf("M = SELECT(cell == '%s') ENCODE; MATERIALIZE M INTO m;", cell))
	if err := run(context.Background(), []string{"-data", data, "-out", filepath.Join(t.TempDir(), "r"), script}, &out); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "WARNING"); n != 1 ||
		!strings.Contains(out.String(), "WARNING: ENCODE loaded partially: 1 corrupt sample(s) skipped") {
		t.Errorf("want one WARNING, for ENCODE:\n%s", out.String())
	}
}
