// Command bench is the repository's benchmark: it builds the real gmqld and
// gmql binaries, generates fixtures from a seed, stores them as an on-disk
// repository in the .gdmc layout, and measures four workloads end to end
// (tracing off) and layer by layer (a separate traced pass). README.md in
// this directory is the catalogue of workloads and metrics.
//
// Usage:
//
//	go run ./bench -seed N [-runs R] [-out FILE] [-quick]
//	go run ./bench -compare A.json B.json
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// The first form runs every workload, untraced then traced, and prints every
// metric by name with its unit. The second compares two result files against
// the bounds in BENCHMARK.json. The third is the driver's contract: one
// workload, one pass, one JSON object on the last line of standard output.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, ".")
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// The measuring intervals of a full run. The driver's --seconds replaces the
// timed interval; the warm-up stays.
const (
	fullWarm  = 3 * time.Second
	fullTimed = 26 * time.Second
)

// run is main without the process: root is the module root, so that the
// smoke test can call it from the package directory.
func run(ctx context.Context, args []string, out io.Writer, root string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload and print the driver's JSON line")
	seed := fs.Int64("seed", 1, "fixture seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 0, "timed seconds per pass (0: the full run's 26)")
	trace := fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	runs := fs.Int("runs", 1, "full run: untraced repetitions per workload, each adding a value per metric")
	outFile := fs.String("out", "", "full run: write the JSON report here")
	quick := fs.Bool("quick", false, "smoke run: quarter-size fixtures, one second per pass")
	compare := fs.Bool("compare", false, "compare two report files (or globs of them): bench -compare A B")
	work := fs.String("work", ".bench_build", "directory for build outputs and scratch files, relative to the module root")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare wants two report files, have %d", fs.NArg())
		}
		return compareReports(out, filepath.Join(root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return fmt.Errorf("run from the module root: %w", err)
	}

	s := &settings{
		root: root, seed: *seed, warm: fullWarm, timed: fullTimed, setupReps: 5, scale: 1,
		traceDir: filepath.Join(root, "bench", "out"), kids: &children{},
	}
	s.work = *work
	if !filepath.IsAbs(s.work) {
		s.work = filepath.Join(root, s.work)
	}
	if *seconds > 0 {
		s.timed = time.Duration(*seconds) * time.Second
	}
	if *quick {
		s.warm, s.timed, s.setupReps, s.scale = 200*time.Millisecond, time.Second, 1, 4
	}
	bin := filepath.Join(s.work, "bin")
	s.gmqld, s.gmql = filepath.Join(bin, "gmqld"), filepath.Join(bin, "gmql")
	tmp := filepath.Join(s.work, "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	// Every exit path, an interrupt included, stops the children and
	// removes the scratch repositories and result directories. Nothing is
	// deleted earlier: see batchRig.
	defer func() {
		s.kids.stopAll()
		if err := os.RemoveAll(tmp); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}()
	if err := buildBinaries(ctx, root, bin); err != nil {
		return err
	}

	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		return s.driverRun(ctx, out, w, tmp, *trace == 1)
	}
	return s.fullRun(ctx, out, tmp, *runs, *outFile)
}

// generate builds a workload's fixtures and reports how long that took.
func (s *settings) generate(w workloadDef) (*fixtures, float64, error) {
	start := time.Now()
	f, err := newFixtures(w.Name, s.seed, s.scale)
	return f, ms(time.Since(start)), err
}

// driverLine is the one JSON object the driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverRun is one pass over one workload, reported as the driver expects.
func (s *settings) driverRun(ctx context.Context, out io.Writer, w workloadDef, tmp string, traced bool) error {
	f, genMS, err := s.generate(w)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "workload %s seed %d fixture_digest %s\n", w.Name, s.seed, f.digest)
	defs := endToEnd
	var res *passResult
	if traced {
		defs = perLayer
		res, err = s.tracedPass(ctx, w, f, tmp, genMS)
	} else {
		res, err = s.runEndToEnd(ctx, w, f, tmp)
	}
	if err != nil {
		return err
	}
	if !traced {
		fmt.Fprintf(out, "%d timed ops; query_p95_ms is the %.1fth percentile\n", res.samples, res.tailPct)
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if res.firstErr != nil {
		fmt.Fprintln(out, "first failure:", res.firstErr)
	}
	line := driverLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]driverValue)}
	for _, d := range defs {
		line.Metrics[d.Name] = driverValue{Value: res.metrics[d.Name], Unit: d.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(data))
	return err
}

// report is the JSON file a full run writes and -compare reads.
type report struct {
	Seed          int64                      `json:"seed"`
	FixtureDigest string                     `json:"fixture_digest"`
	Runs          int                        `json:"runs"`
	Workloads     map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Why           string                   `json:"why"`
	Clients       int                      `json:"clients"`
	FixtureDigest string                   `json:"fixture_digest"`
	Samples       int                      `json:"samples"`      // timed ops of the last run
	TailPercent   float64                  `json:"tail_percent"` // what query_p95_ms reports at that count
	FailedFrac    float64                  `json:"failed_frac"`
	EndToEnd      map[string]*metricReport `json:"end_to_end"`
	PerLayer      map[string]*metricReport `json:"per_layer"`
}

type metricReport struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Values []float64 `json:"values"`
}

// fullRun measures every workload, untraced runs first and the traced pass
// after, prints the tables and writes the report. A workload that fails to
// run reports failed_frac 1 and does not stop the others.
func (s *settings) fullRun(ctx context.Context, out io.Writer, tmp string, runs int, outFile string) error {
	rep := &report{Seed: s.seed, Runs: runs, Workloads: make(map[string]*workloadReport)}
	var digests string
	for _, w := range workloads {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		f, genMS, err := s.generate(w)
		if err != nil {
			return err
		}
		digests += f.digest
		wr := &workloadReport{Why: w.Why, Clients: w.clients, FixtureDigest: f.digest,
			EndToEnd: make(map[string]*metricReport), PerLayer: make(map[string]*metricReport)}
		rep.Workloads[w.Name] = wr
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = &metricReport{Unit: d.Unit}
		}
		for _, d := range perLayer {
			wr.PerLayer[d.Name] = &metricReport{Unit: d.Unit}
		}
		attempted, failed := 0, 0
		fail := func(stage string, err error) {
			fmt.Fprintf(out, "%s: %s failed: %v\n", w.Name, stage, err)
			attempted, failed = attempted+1, failed+1
		}
		for i := 0; i < runs; i++ {
			wtmp := filepath.Join(tmp, fmt.Sprintf("%s-%d", w.Name, i))
			res, err := s.runEndToEnd(ctx, w, f, wtmp)
			if err != nil {
				fail("untraced run", err)
				continue
			}
			if res.firstErr != nil {
				fmt.Fprintf(out, "%s: first failure: %v\n", w.Name, res.firstErr)
			}
			attempted, failed = attempted+res.attempted, failed+res.failed
			wr.Samples, wr.TailPercent = res.samples, res.tailPct
			for name, v := range res.metrics {
				wr.EndToEnd[name].Values = append(wr.EndToEnd[name].Values, v)
			}
		}
		wtmp := filepath.Join(tmp, w.Name+"-traced")
		res, err := s.tracedPass(ctx, w, f, wtmp, genMS)
		if err != nil {
			fail("traced pass", err)
		} else {
			if res.firstErr != nil {
				fmt.Fprintf(out, "%s: first failure: %v\n", w.Name, res.firstErr)
			}
			attempted, failed = attempted+res.attempted, failed+res.failed
			for name, v := range res.metrics {
				wr.PerLayer[name].Values = []float64{v}
			}
		}
		wr.FailedFrac = float64(failed) / float64(attempted)
		for _, m := range wr.EndToEnd {
			m.Median = median(m.Values)
		}
		for _, m := range wr.PerLayer {
			m.Median = median(m.Values)
		}
		printWorkload(out, w, wr)
	}
	sum := sha256.Sum256([]byte(digests))
	rep.FixtureDigest = hex.EncodeToString(sum[:])[:16]
	fmt.Fprintf(out, "fixture_digest %s (seed %d)\n", rep.FixtureDigest, s.seed)
	if outFile == "" {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(outFile, append(data, '\n'), 0o644)
}

// printWorkload prints every metric of one workload by name with its unit.
func printWorkload(out io.Writer, w workloadDef, wr *workloadReport) {
	fmt.Fprintf(out, "\n== %s: %s\n", w.Name, w.Why)
	fmt.Fprintf(out, "   %d closed-loop client(s), %d timed ops, query_p95_ms is the %.1fth percentile, failed_frac %g\n",
		w.clients, wr.Samples, wr.TailPercent, wr.FailedFrac)
	for _, d := range endToEnd {
		m := wr.EndToEnd[d.Name]
		fmt.Fprintf(out, "   %-34s %14.4f %-5s (bound %.2f, %d run(s))\n", d.Name, m.Median, d.Unit, d.Bound, len(m.Values))
	}
	for _, d := range perLayer {
		fmt.Fprintf(out, "   %-34s %14.4f %s\n", d.Name, wr.PerLayer[d.Name].Median, d.Unit)
	}
}
