package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json, which the driver
// reads, equal to the tables the benchmark reports from.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.Name, w.Why)
		}
	}
	check := func(kind string, file, table []metricDef) {
		if len(file) != len(table) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark has %d", kind, len(file), len(table))
		}
		for i := range table {
			if file[i] != table[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, file[i], table[i])
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	if bf.RunSeconds != int(fullTimed/time.Second) {
		t.Errorf("run_seconds is %d, a full run times %v", bf.RunSeconds, fullTimed)
	}
}

// TestQuickSmoke runs every workload for about a second, untraced and
// traced, against the real binaries, and checks that the report names
// exactly the workloads and metrics of BENCHMARK.json, each with a unit.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the gmqld and gmql binaries")
	}
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	outFile := filepath.Join(work, "report.json")
	var stdout bytes.Buffer
	start := time.Now()
	err = run(context.Background(), []string{"-quick", "-seed", "7", "-work", work, "-out", outFile}, &stdout, "..")
	t.Logf("quick run took %v", time.Since(start).Round(time.Millisecond))
	if err != nil {
		t.Fatalf("quick run: %v\n%s", err, stdout.String())
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.FixtureDigest == "" {
		t.Error("report has no fixture_digest")
	}
	if len(rep.Workloads) != len(bf.Workloads) {
		t.Errorf("report has %d workloads, BENCHMARK.json %d", len(rep.Workloads), len(bf.Workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range bf.Workloads {
		wr := rep.Workloads[w.Name]
		if wr == nil {
			t.Errorf("report misses workload %s", w.Name)
			continue
		}
		if wr.FailedFrac != 0 {
			t.Errorf("%s: failed_frac %g\n%s", w.Name, wr.FailedFrac, stdout.String())
		}
		check := func(kind string, got map[string]*metricReport, want []metricDef) {
			if len(got) != len(want) {
				t.Errorf("%s %s: report has %d metrics, BENCHMARK.json %d", w.Name, kind, len(got), len(want))
			}
			for _, d := range want {
				m := got[d.Name]
				switch {
				case !name.MatchString(d.Name):
					t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.Name)
				case m == nil:
					t.Errorf("%s %s: report misses %s", w.Name, kind, d.Name)
				case m.Unit == "" || m.Unit != d.Unit:
					t.Errorf("%s %s: unit %q, want %q", w.Name, d.Name, m.Unit, d.Unit)
				case len(m.Values) == 0:
					t.Errorf("%s %s: no value", w.Name, d.Name)
				}
			}
		}
		check("end_to_end", wr.EndToEnd, bf.EndToEnd)
		check("per_layer", wr.PerLayer, bf.PerLayer)
		for _, d := range bf.EndToEnd {
			if m := wr.EndToEnd[d.Name]; m != nil && m.Median <= 0 {
				t.Errorf("%s %s is %g: end-to-end metrics are never 0", w.Name, d.Name, m.Median)
			}
		}
		if _, err := os.Stat(filepath.Join("out", "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
	}
	// Nothing of the run may outlive it: scratch repositories are gone.
	if left, _ := filepath.Glob(filepath.Join(work, "tmp", "*")); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

func TestTailRank(t *testing.T) {
	for _, c := range []struct {
		n, rank int
	}{
		{0, 0},
		{1, 1}, {10, 5}, {20, 10}, // too few for any tail: the median
		{21, 11}, {50, 40}, {100, 90}, // ten samples beyond the rank
		{199, 189},
		{200, 190},              // the first count at which p95 has ten beyond
		{400, 380}, {1000, 950}, // p95 from here on
	} {
		if got := tailRank(c.n); got != c.rank {
			t.Errorf("tailRank(%d) = %d, want %d", c.n, got, c.rank)
		}
		if c.n > 20 && c.n-tailRank(c.n) < 10 {
			t.Errorf("tailRank(%d) leaves %d samples beyond", c.n, c.n-tailRank(c.n))
		}
	}
	lat := make([]float64, 200)
	for i := range lat {
		lat[i] = float64(200 - i) // unsorted on purpose
	}
	if got := tail(lat); got != 190 {
		t.Errorf("tail of 1..200 = %g, want 190", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
	if q1, q3 := quartiles([]float64{1, 3}); q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles of two = %g, %g, want 0.5, 3.5", q1, q3)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %g, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},     // sequential child
		{Name: "b", Start: 50, End: 70, Parent: 0},     // sequential child
		{Name: "a1", Start: 15, End: 25, Parent: 1},    // grandchild
		{Name: "leg0", Start: 0, End: 60, Parent: 5},   // parallel children
		{Name: "fan", Start: 0, End: 100, Parent: -1},  // of this span,
		{Name: "leg1", Start: 30, End: 90, Parent: 5},  // overlapping by 30
		{Name: "late", Start: 95, End: 120, Parent: 5}, // clipped at the parent's end
	}
	want := []time.Duration{50, 20, 20, 10, 60, 5, 60, 25}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestCompareReports(t *testing.T) {
	dir := t.TempDir()
	write := func(name, digest string, p50 []float64, failed float64) string {
		rep := report{FixtureDigest: digest, Workloads: map[string]*workloadReport{}}
		for _, w := range workloads {
			wr := &workloadReport{EndToEnd: map[string]*metricReport{}, FailedFrac: failed}
			for _, d := range endToEnd {
				wr.EndToEnd[d.Name] = &metricReport{Unit: d.Unit, Values: []float64{100, 100, 100}}
			}
			wr.EndToEnd["query_p50_ms"].Values = p50
			rep.Workloads[w.Name] = wr
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	benchmark := filepath.Join("..", "BENCHMARK.json")
	base := write("a.json", "d1", []float64{100, 101, 102}, 0)
	for _, c := range []struct {
		name    string
		other   string
		wantErr bool
		wantOut string
	}{
		{"same", write("same.json", "d1", []float64{100, 101, 102}, 0), false, "0 breach(es), 0 unresolved"},
		{"slower", write("slow.json", "d1", []float64{130, 131, 132}, 0), true, "breach"},
		{"noisy", write("noisy.json", "d1", []float64{60, 100, 140}, 0), false, "unresolved"},
		{"other inputs", write("digest.json", "d2", []float64{100, 101, 102}, 0), true, ""},
		{"failed ops", write("failed.json", "d1", []float64{100, 101, 102}, 0.5), true, "failed_frac"},
	} {
		var out bytes.Buffer
		err := compareReports(&out, benchmark, base, c.other)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: error %v, want error %v\n%s", c.name, err, c.wantErr, out.String())
		}
		if !bytes.Contains(out.Bytes(), []byte(c.wantOut)) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.wantOut, out.String())
		}
	}
}
