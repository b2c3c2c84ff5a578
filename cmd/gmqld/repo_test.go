package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"genogo/internal/catalog"
	"genogo/internal/engine"
	"genogo/internal/federation"
	"genogo/internal/formats"
	"genogo/internal/gmql"
	"genogo/internal/synth"
)

// repoListing is /debug/repo's JSON.
type repoListing struct {
	Datasets []formats.DatasetSummary `json:"datasets"`
}

// TestRepoOneViewPerNode: with -metrics-addr splitting the debug surface
// off, the query listener and the metrics listener serve the node's one
// catalog: the same /debug/repo rows, members filed from their manifests
// with their directories.
func TestRepoOneViewPerNode(t *testing.T) {
	dir := writeRepo(t)
	var out bytes.Buffer
	n, err := setup([]string{"-data", dir, "-mode", "serial", "-metrics-addr", "127.0.0.1:0"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	main := httptest.NewServer(n.srv.Handler)
	defer main.Close()
	debug := httptest.NewServer(n.metrics.Handler)
	defer debug.Close()

	var onMain, onDebug repoListing
	getJSON(t, main.URL+"/debug/repo?format=json", &onMain)
	getJSON(t, debug.URL+"/debug/repo?format=json", &onDebug)
	if !reflect.DeepEqual(onMain, onDebug) {
		t.Fatalf("two views of one node:\nquery listener   %+v\nmetrics listener %+v", onMain, onDebug)
	}
	if len(onMain.Datasets) != 2 {
		t.Fatalf("rows = %+v, want ANNOTATIONS and ENCODE", onMain.Datasets)
	}
	for _, row := range onMain.Datasets {
		if row.Source != formats.SourceManifest || row.Dir != filepath.Join(dir, row.Name) || row.Integrity != "verified" {
			t.Errorf("%s: source %q dir %q integrity %q, want a verified manifest row in %s",
				row.Name, row.Source, row.Dir, row.Integrity, filepath.Join(dir, row.Name))
		}
	}
	// The served catalog drives the genogo_repo_* gauges; a catalog of
	// registered datasets (a federation.Server built in memory) does not.
	samples := onMain.Datasets[0].Samples + onMain.Datasets[1].Samples
	gauges := []string{"genogo_repo_datasets 2\n", fmt.Sprintf("genogo_repo_samples %d\n", samples)}
	other := httptest.NewServer(federation.NewServer("mem", engine.Config{Mode: engine.ModeSerial},
		synth.New(9).Encode(synth.EncodeOptions{Samples: 3, MeanPeaks: 5})).Handler())
	defer other.Close()
	getJSON(t, other.URL+"/debug/repo?format=json", &repoListing{})
	metrics := fetchMetrics(t, debug.URL+"/metrics")
	for _, g := range gauges {
		if !strings.Contains(metrics, g) {
			t.Errorf("/metrics lacks %q", g)
		}
	}
	var detailMain, detailDebug formats.DatasetDetail
	getJSON(t, main.URL+"/debug/repo/ENCODE?format=json", &detailMain)
	getJSON(t, debug.URL+"/debug/repo/ENCODE?format=json", &detailDebug)
	if !reflect.DeepEqual(detailMain, detailDebug) || detailMain.Stats == nil {
		t.Errorf("ENCODE drill-down differs between listeners")
	}
}

// TestRepoStatsSource: a node's statistics describe what it loaded. For a
// verified member, a member with one quarantined sample and a text export,
// /compile's estimate equals the estimator over a scan of the served
// dataset — a partial load must not use the full dataset's stats.json — and
// /debug/repo names where each dataset's statistics came from.
func TestRepoStatsSource(t *testing.T) {
	dir := t.TempDir()
	g := synth.New(8)
	write := func(name string, member bool) {
		ds := g.Encode(synth.EncodeOptions{Samples: 5, MeanPeaks: 25})
		ds.Name = name
		w := formats.WriteDataset
		if member {
			w = formats.WriteDatasetColumnar
		}
		if err := w(filepath.Join(dir, name), ds); err != nil {
			t.Fatal(err)
		}
	}
	write("VERIFIED", true)
	write("PARTIAL", true)
	write("EXPORT", false)
	images, err := filepath.Glob(filepath.Join(dir, "PARTIAL", "*.gdmc"))
	if err != nil || len(images) == 0 {
		t.Fatalf("no sample images: %v", err)
	}
	data, err := os.ReadFile(images[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(images[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	n, err := setup([]string{"-data", dir, "-mode", "serial"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"WARNING: PARTIAL loaded partially: 1 sample(s) quarantined (see /debug/repo/PARTIAL)",
		"WARNING: EXPORT has no manifest; loaded unverified (gmqlfsck -rebuild converts it into a member)",
	} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("boot output lacks %q:\n%s", line, out.String())
		}
	}
	ts := httptest.NewServer(n.srv.Handler)
	defer ts.Close()
	c := federation.NewClient(ts.URL)

	var listing repoListing
	getJSON(t, ts.URL+"/debug/repo?format=json", &listing)
	rows := map[string]formats.DatasetSummary{}
	for _, row := range listing.Datasets {
		rows[row.Name] = row
	}
	for _, tc := range []struct{ name, source, integrity string }{
		{"VERIFIED", formats.SourceManifest, "verified"},
		{"PARTIAL", formats.SourceScan, "partial"},
		{"EXPORT", formats.SourceScan, "unverified"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			row := rows[tc.name]
			if row.Source != tc.source || row.Integrity != tc.integrity {
				t.Errorf("/debug/repo row = %+v, want source %s integrity %s", row, tc.source, tc.integrity)
			}
			served, err := c.DownloadDataset(context.Background(), tc.name)
			if err != nil {
				t.Fatal(err)
			}
			if row.Samples != len(served.Samples) || row.Regions != served.NumRegions() {
				t.Errorf("row counts %d samples %d regions, served %d and %d",
					row.Samples, row.Regions, len(served.Samples), served.NumRegions())
			}
			scanned := catalog.Compute(served)
			stats := func(name string) (*catalog.DatasetStats, bool) { return scanned, name == tc.name }
			for _, script := range []string{
				"X = SELECT(dataType == 'ChipSeq') " + tc.name + "; MATERIALIZE X;",
				"X = SELECT(; region: chr == 'chr1') " + tc.name + "; MATERIALIZE X;",
			} {
				cr, err := c.Compile(context.Background(), script, "X")
				if err != nil || !cr.OK {
					t.Fatalf("compile: %v %+v", err, cr)
				}
				prog, err := gmql.Parse(script)
				if err != nil {
					t.Fatal(err)
				}
				if want := federation.EstimatePlan(engine.Optimize(prog.Plan("X")), stats); cr.Estimate != want {
					t.Errorf("%s: /compile estimate %+v, want %+v from a scan of the served dataset", script, cr.Estimate, want)
				}
			}
		})
	}
}
