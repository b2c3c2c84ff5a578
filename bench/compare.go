package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkFile is BENCHMARK.json, the contract the driver reads.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// loadReports pools the values of every report file the pattern matches:
// ten alternating parent/change pairs are ten files a side.
func loadReports(pattern string) (*report, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no report matches %s", pattern)
	}
	var pooled *report
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if pooled == nil {
			pooled = &r
			continue
		}
		if r.FixtureDigest != pooled.FixtureDigest {
			return nil, fmt.Errorf("%s has fixture_digest %s, %s has %s: not comparable",
				p, r.FixtureDigest, paths[0], pooled.FixtureDigest)
		}
		for name, wr := range r.Workloads {
			into := pooled.Workloads[name]
			if into == nil {
				pooled.Workloads[name] = wr
				continue
			}
			if wr.FailedFrac > into.FailedFrac {
				into.FailedFrac = wr.FailedFrac // one failing report fails the side
			}
			for metric, m := range wr.EndToEnd {
				if dst := into.EndToEnd[metric]; dst != nil {
					dst.Values = append(dst.Values, m.Values...)
				}
			}
		}
	}
	return pooled, nil
}

// compareReports prints, per workload and end-to-end metric, how much worse
// side B's median is than side A's, against the metric's bound. A pairing
// whose own quartile spread exceeds the bound on either side is unresolved:
// the inputs cannot show a change that small. It returns an error when any
// pairing breaches its bound or a workload failed operations.
func compareReports(out io.Writer, benchmarkPath, patternA, patternB string) error {
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		return err
	}
	a, err := loadReports(patternA)
	if err != nil {
		return err
	}
	b, err := loadReports(patternB)
	if err != nil {
		return err
	}
	if a.FixtureDigest != b.FixtureDigest {
		return fmt.Errorf("fixture_digest differs (%s vs %s): the two sides did not run the same inputs", a.FixtureDigest, b.FixtureDigest)
	}
	breaches, unresolved := 0, 0
	fmt.Fprintf(out, "%-11s %-20s %14s %14s %9s %6s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "worse by", "bound", "A spread", "B spread", "verdict")
	for _, w := range bf.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			return fmt.Errorf("workload %s is missing from a report", w.Name)
		}
		if wa.FailedFrac > 0 || wb.FailedFrac > 0 {
			fmt.Fprintf(out, "%-11s failed_frac %g vs %g: breach\n", w.Name, wa.FailedFrac, wb.FailedFrac)
			breaches++
		}
		for _, d := range bf.EndToEnd {
			ma, mb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if ma == nil || mb == nil || len(ma.Values) == 0 || len(mb.Values) == 0 {
				return fmt.Errorf("%s %s is missing from a report", w.Name, d.Name)
			}
			medA, medB := median(ma.Values), median(mb.Values)
			worse := (medB - medA) / medA
			if d.Better == "higher" {
				worse = (medA - medB) / medA
			}
			spA, spB := spread(ma.Values), spread(mb.Values)
			verdict := "ok"
			switch {
			case spA > d.Bound || spB > d.Bound:
				verdict = "unresolved"
				unresolved++
			case worse > d.Bound:
				verdict = "breach"
				breaches++
			}
			fmt.Fprintf(out, "%-11s %-20s %14.4f %14.4f %+8.2f%% %5.0f%% %7.2f%% %7.2f%%  %s\n",
				w.Name, d.Name, medA, medB, 100*worse, 100*d.Bound, 100*spA, 100*spB, verdict)
		}
	}
	fmt.Fprintf(out, "%d breach(es), %d unresolved; ratios are shares of side A's median\n", breaches, unresolved)
	if breaches > 0 {
		return fmt.Errorf("%d pairing(s) worse than their bound", breaches)
	}
	return nil
}
