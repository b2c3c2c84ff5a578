package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"genogo/internal/formats"
	"genogo/internal/synth"
)

func writeRepo(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	g := synth.New(6)
	if err := formats.WriteDatasetColumnar(filepath.Join(dir, "CHIP"),
		g.Encode(synth.EncodeOptions{Samples: 5, MeanPeaks: 10})); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestHostAndCrawlEndToEnd(t *testing.T) {
	dir := writeRepo(t)
	var out bytes.Buffer
	handler, addr, err := setupHost([]string{"-data", dir, "-addr", ":7777", "-name", "lab"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if addr != ":7777" || !strings.Contains(out.String(), "publishing") {
		t.Errorf("addr=%q out=%q", addr, out.String())
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()

	var crawlOut bytes.Buffer
	err = run([]string{"crawl", "-hosts", ts.URL, "-bodies", "1",
		"-query", "ChipSeq"}, &crawlOut)
	if err != nil {
		t.Fatal(err)
	}
	text := crawlOut.String()
	if !strings.Contains(text, "indexed 1 datasets") {
		t.Errorf("crawl output = %q", text)
	}
	if !strings.Contains(text, "hits for \"ChipSeq\"") {
		t.Errorf("no hits reported: %q", text)
	}
	// Cached body marked with '*'.
	if !strings.Contains(text, "* ") {
		t.Errorf("no in-repo marker: %q", text)
	}
}

func TestOntologicalCrawlQuery(t *testing.T) {
	dir := writeRepo(t)
	var out bytes.Buffer
	handler, _, err := setupHost([]string{"-data", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	var crawlOut bytes.Buffer
	if err := run([]string{"crawl", "-hosts", ts.URL, "-query", "sequencing assay", "-ontological"}, &crawlOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(crawlOut.String(), "ontological=true") {
		t.Errorf("output = %q", crawlOut.String())
	}
}

func TestCLIErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Error("missing subcommand accepted")
	}
	if err := run([]string{"dance"}, &out); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"crawl"}, &out); err == nil {
		t.Error("crawl without hosts accepted")
	}
	if err := run([]string{"crawl", "-hosts", "http://127.0.0.1:1"}, &out); err == nil {
		t.Error("unreachable host accepted")
	}
	if _, _, err := setupHost([]string{"-data", t.TempDir()}, &out); err == nil {
		t.Error("empty data dir accepted")
	}
	if _, _, err := setupHost([]string{"-data", filepath.Join(t.TempDir(), "nope")}, &out); err == nil {
		t.Error("missing data dir accepted")
	}
}

// TestRepoHostView: the host serves its one warmed catalog on /debug/repo:
// the published member, filed from its manifest with its directory.
func TestRepoHostView(t *testing.T) {
	dir := writeRepo(t)
	var out bytes.Buffer
	handler, _, err := setupHost([]string{"-data", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/repo?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Datasets []formats.DatasetSummary `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Datasets) != 1 {
		t.Fatalf("rows = %+v, want CHIP", listing.Datasets)
	}
	row := listing.Datasets[0]
	if row.Name != "CHIP" || row.Source != formats.SourceManifest || row.Dir != filepath.Join(dir, "CHIP") ||
		row.Integrity != "verified" || row.Samples != 5 {
		t.Errorf("row = %+v, want the verified CHIP member from its manifest", row)
	}
}
