// Command gmql runs GenoMetric Query Language scripts against a repository
// of GDM datasets on disk.
//
// Usage:
//
//	gmql -data DIR [-out DIR] [-mode stream|batch|serial] [-workers N]
//	     [-format columnar|native|bed] [-explain VAR] [-profile]
//	     [-profile-json] [-query-deadline D] [-max-regions N] [-max-bytes N]
//	     SCRIPT.gmql
//
// Every subdirectory of -data holding a manifest.json (a repository member)
// or a schema.txt (a text export, imported unverified) is a dataset named
// after the subdirectory. A dataset is opened on first use, and only as far
// as the script needs it: a SELECT reads the metadata of every sample but the
// regions only of the samples its metadata predicate keeps, and SELECT, MAP
// and JOIN skip the partitions their zone windows prove irrelevant. Damaged
// samples the run touches are skipped, and after the run a WARNING names each
// dataset that was read partially or unverified; damage in what the run did
// not read goes unreported — gmqlfsck is the scanner. Results of MATERIALIZE
// statements are written under -out as repository members; -format native
// exports them in the GDM text layout instead, -format bed as BED6 files.
//
// Query lifecycle governance: -query-deadline, -max-regions and -max-bytes
// are per-query budgets enforced inside the engine; Ctrl-C (SIGINT) and
// SIGTERM cancel the running query's workers before the process exits. The
// exit code tells the outcomes apart: 1 is a generic failure, 3 a canceled or
// deadline-exceeded query, 4 a budget kill.
//
// -explain prints the logical plan of one variable without executing.
// -profile executes normally and additionally prints an EXPLAIN ANALYZE
// style span tree per materialized variable: one line per operator with
// wall time, worker count and sample/region flow. The run is tagged with a
// QueryID — the same identity the query console and slow log use — printed
// alongside the profile. -profile-json emits the whole profile (query_id
// plus the span tree per materialized variable) as JSON on stdout instead,
// for tools that post-process traces.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"genogo/internal/engine"
	"genogo/internal/formats"
	"genogo/internal/gdm"
	"genogo/internal/gmql"
	"genogo/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gmql:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode distinguishes governance kills so shell scripts and the
// differential harness can tell an interrupted query from a genuinely wrong
// one: 1 generic failure, 3 canceled or deadline-exceeded, 4 budget-killed.
func exitCode(err error) int {
	reason, ok := engine.Killed(err)
	switch {
	case !ok:
		return 1
	case reason == "budget":
		return 4
	default:
		return 3
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gmql", flag.ContinueOnError)
	dataDir := fs.String("data", ".", "directory holding dataset subdirectories")
	outDir := fs.String("out", "results", "directory for materialized results")
	mode := fs.String("mode", "stream", "execution backend: serial, batch or stream")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	explain := fs.String("explain", "", "print the plan of VAR instead of executing")
	profile := fs.Bool("profile", false, "print an EXPLAIN ANALYZE span tree per materialized variable")
	profileJSON := fs.Bool("profile-json", false, "emit the profile (query_id + span tree per variable) as JSON instead of text")
	format := fs.String("format", "columnar", "result format: columnar (a repository member: manifest-verified .gdmc images), native (the GDM text layout, an export) or bed (one BED6 file per sample)")
	queryDeadline := fs.Duration("query-deadline", 0, "per-query wall-clock budget (0 disables)")
	maxRegions := fs.Int64("max-regions", 0, "per-query budget: max regions in any operator output (0 disables)")
	maxBytes := fs.Int64("max-bytes", 0, "per-query budget: max resident bytes of operator outputs (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("want exactly one script file, have %d args", fs.NArg())
	}
	m, err := engine.ParseMode(*mode)
	if err != nil {
		return err
	}
	cfg := engine.Config{Mode: m, Workers: *workers}

	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	prog, err := gmql.Parse(string(src))
	if err != nil {
		return err
	}
	catalog := &formats.DirCatalog{Root: *dataDir, Policy: formats.IntegrityPolicy{AllowPartial: true}}
	if names, err := catalog.Names(); err != nil {
		return err
	} else if len(names) == 0 {
		return fmt.Errorf("no datasets found under %s", *dataDir)
	}
	runner := &gmql.Runner{Config: cfg, Catalog: catalog,
		Limits: engine.Limits{
			MaxOutputRegions: *maxRegions,
			MaxResidentBytes: *maxBytes,
			Deadline:         *queryDeadline,
		}}

	if *explain != "" {
		fmt.Fprintln(out, runner.Explain(prog, *explain))
		return nil
	}
	profiled := *profile || *profileJSON
	if profiled {
		// The same identity the query console, slow log and federation
		// headers use, so a CLI profile correlates with server-side records.
		runner.QueryID = obs.NewQueryID()
	}
	start := time.Now()
	var (
		results []gmql.Result
		spans   []*obs.Span
	)
	if profiled {
		results, spans, err = runner.MaterializeProfiledContext(ctx, prog)
	} else {
		results, err = runner.MaterializeContext(ctx, prog)
	}
	// Corrupt samples the run touched were skipped and left in place: the
	// interactive CLI does not rearrange a repository it may not own (gmqld
	// and gmqlfsck do the quarantining).
	catalog.WriteWarnings(out)
	if err != nil {
		// A governance kill with -profile-json still emits machine-readable
		// output — tools post-processing traces see why the run died rather
		// than a bare non-zero exit.
		if reason, ok := engine.Killed(err); ok && *profileJSON {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			_ = enc.Encode(struct {
				QueryID string `json:"query_id"`
				Status  string `json:"status"`
				Reason  string `json:"reason"`
				Error   string `json:"error"`
			}{runner.QueryID, string(gmql.KilledStatus(reason)), reason, err.Error()})
		}
		return err
	}
	if *profile && !*profileJSON {
		fmt.Fprintf(out, "query id: %s\n", runner.QueryID)
	}
	type varProfile struct {
		Var     string    `json:"var"`
		Target  string    `json:"target"`
		Profile *obs.Span `json:"profile"`
	}
	profiles := make([]varProfile, 0, len(results))
	for i, r := range results {
		dir := filepath.Join(*outDir, r.Target)
		switch *format {
		case "columnar":
			if err := formats.WriteDatasetColumnar(dir, r.Dataset); err != nil {
				return err
			}
		case "native":
			if err := formats.WriteDataset(dir, r.Dataset); err != nil {
				return err
			}
		case "bed":
			if err := writeBEDDataset(dir, r.Dataset); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
		var sp *obs.Span
		if i < len(spans) {
			sp = spans[i]
		}
		if *profileJSON {
			profiles = append(profiles, varProfile{Var: r.Var, Target: r.Target, Profile: sp})
			continue
		}
		fmt.Fprintf(out, "%s: %d samples, %d regions -> %s\n",
			r.Var, len(r.Dataset.Samples), r.Dataset.NumRegions(), dir)
		if *profile && sp != nil {
			fmt.Fprintf(out, "profile of %s:\n%s", r.Var, sp.Render())
		}
	}
	if *profileJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			QueryID  string       `json:"query_id"`
			Profiles []varProfile `json:"profiles"`
		}{runner.QueryID, profiles})
	}
	fmt.Fprintf(out, "done in %v (%s backend, %d workers)\n",
		time.Since(start).Round(time.Millisecond), cfg.Mode, cfg.Workers)
	return nil
}

// writeBEDDataset exports a dataset as one BED6 file plus one .meta file per
// sample — the interchange path for downstream tools (genome browsers,
// bedtools) that read neither a member nor the GDM text layout.
func writeBEDDataset(dir string, ds *gdm.Dataset) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range ds.Samples {
		f, err := os.Create(filepath.Join(dir, s.ID+".bed"))
		if err != nil {
			return err
		}
		if err := formats.WriteBED(f, s, ds.Schema); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		mf, err := os.Create(filepath.Join(dir, s.ID+".bed.meta"))
		if err != nil {
			return err
		}
		if err := formats.WriteMeta(mf, s.Meta); err != nil {
			mf.Close()
			return err
		}
		if err := mf.Close(); err != nil {
			return err
		}
	}
	return nil
}
