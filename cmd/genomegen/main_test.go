package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"genogo/internal/formats"
)

func TestGenomegenSubcommands(t *testing.T) {
	cases := []struct {
		args     []string
		datasets []string
	}{
		{[]string{"encode", "-samples", "5", "-peaks", "10"}, []string{"ENCODE"}},
		{[]string{"annotations", "-genes", "20"}, []string{"ANNOTATIONS"}},
		{[]string{"ctcf", "-loops", "10"}, []string{"CTCF_LOOPS", "MARKS", "PROMOTERS"}},
		{[]string{"replication", "-genes", "20"}, []string{"EXPRESSION", "BREAKS", "MUTATIONS", "REPLICATION_TIMING"}},
		{[]string{"fig2"}, []string{"PEAKS"}},
	}
	for _, c := range cases {
		out := t.TempDir()
		args := append([]string{"-seed", "9", "-out", out}, c.args...)
		if err := run(args); err != nil {
			t.Fatalf("run(%v): %v", c.args, err)
		}
		for _, name := range c.datasets {
			ds, err := formats.ReadDataset(filepath.Join(out, name))
			if err != nil {
				t.Fatalf("%v: reading %s: %v", c.args, name, err)
			}
			if err := ds.Validate(); err != nil {
				t.Fatalf("%v: %s invalid: %v", c.args, name, err)
			}
		}
	}
}

func TestGenomegenDeterministicAcrossRuns(t *testing.T) {
	read := func() string {
		out := t.TempDir()
		if err := run([]string{"-seed", "42", "-out", out, "encode", "-samples", "3", "-peaks", "5"}); err != nil {
			t.Fatal(err)
		}
		ds, err := formats.ReadDataset(filepath.Join(out, "ENCODE"))
		if err != nil {
			t.Fatal(err)
		}
		return ds.String() + fmt.Sprint(ds.Samples[0].Regions[0], ds.Samples[0].Row(0))
	}
	if read() != read() {
		t.Error("same seed produced different data")
	}
}

func TestGenomegenErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing subcommand accepted")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
}

func TestGenomegenImport(t *testing.T) {
	dir := t.TempDir()
	bed := filepath.Join(dir, "x.bed")
	if err := os.WriteFile(bed, []byte("chr1\t1\t2\tp\t5\t+\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if err := run([]string{"-out", out, "import", "-name", "MINE", bed}); err != nil {
		t.Fatal(err)
	}
	ds, err := formats.ReadDataset(filepath.Join(out, "MINE"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Samples) != 1 || ds.NumRegions() != 1 {
		t.Errorf("imported = %s", ds)
	}
	if err := run([]string{"-out", out, "import"}); err == nil {
		t.Error("import without files accepted")
	}
}
