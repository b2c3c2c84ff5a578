package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"genogo/internal/difftest"
)

func TestRunSmallCampaign(t *testing.T) {
	report := filepath.Join(t.TempDir(), "report.json")
	var out bytes.Buffer
	err := run(context.Background(), []string{"-seeds", "12", "-jobs", "2", "-report", report}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "agreed:") {
		t.Fatalf("summary missing agreed line:\n%s", out.String())
	}

	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatalf("read report: %v", err)
	}
	var rep difftest.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Seeds != 12 {
		t.Fatalf("report seeds = %d, want 12", rep.Seeds)
	}
	if rep.Agreed+rep.OracleErrors+len(rep.Diverged) != rep.Seeds {
		t.Fatalf("report does not account for all cases: %+v", rep)
	}
	if len(rep.Diverged) != 0 {
		t.Fatalf("unexpected divergences in smoke campaign: %+v", rep.Diverged)
	}
	if len(rep.OpCoverage) == 0 {
		t.Fatal("report has no operator coverage")
	}
	if !rep.CatalogUnchanged || !strings.Contains(out.String(), "catalog_unchanged: true") {
		t.Fatalf("catalog_unchanged not reported true: %+v\n%s", rep.CatalogUnchanged, out.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-seeds", "0"}, &out); err == nil {
		t.Fatal("want error for -seeds 0")
	}
	if err := run(context.Background(), []string{"positional"}, &out); err == nil {
		t.Fatal("want error for positional arguments")
	}
}

// TestRunInterrupted: a canceled context cuts the campaign short and the
// distinct interrupted error (exit 3 in main) comes back, with the report
// noting how far it got.
func TestRunInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	report := filepath.Join(t.TempDir(), "report.json")
	err := run(ctx, []string{"-seeds", "50", "-jobs", "2", "-report", report}, &out)
	if !errors.Is(err, errInterrupted) {
		t.Fatalf("err = %v, want errInterrupted", err)
	}
	data, rerr := os.ReadFile(report)
	if rerr != nil {
		t.Fatal(rerr)
	}
	var rep struct {
		Canceled  bool `json:"canceled"`
		Completed int  `json:"completed"`
	}
	if jerr := json.Unmarshal(data, &rep); jerr != nil {
		t.Fatal(jerr)
	}
	if !rep.Canceled {
		t.Errorf("report.canceled = false, want true")
	}
	if rep.Completed >= 50 {
		t.Errorf("report.completed = %d, want < 50 for a pre-canceled campaign", rep.Completed)
	}
	if !strings.Contains(out.String(), "interrupted") {
		t.Errorf("output does not mention the interrupt: %q", out.String())
	}
}
