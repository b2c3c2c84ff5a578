// Command gmqldiff runs a differential fuzzing campaign over the GMQL
// engine: generated scripts execute under every scheduling mode (serial,
// batch and fused stream, each × workers) and the outputs are compared against
// the serial oracle. Divergences come with minimized reproducers.
//
// Usage:
//
//	gmqldiff [-seeds N] [-start S] [-dataset-seed D] [-report FILE]
//	         [-federation] [-storage] [-jobs N] [-tolerance T]
//
// -federation adds the configs federation, federation/2 and federation/3:
// a Federator over 1, 2 and 3 in-process nodes holding the catalog split by
// sample, on every -federation-every'th case. -storage adds the columnar/*
// configs, the catalog read back from repository members.
//
// The exit status is nonzero when any case diverges, or when the catalog the
// cases share read-only does not end with the content it started with, so CI
// can gate on it; the -report JSON artifact carries the full evidence either
// way. Exit codes: 1 divergence, changed catalog or setup failure, 3 campaign
// interrupted (SIGINT/SIGTERM) — the report still covers every case that
// completed before the interrupt.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"genogo/internal/difftest"
)

// errInterrupted marks a campaign cut short by a signal; main exits 3 so CI
// and scripts can tell an aborted run from a diverging one.
var errInterrupted = errors.New("campaign interrupted before completing every seed")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gmqldiff:", err)
		if errors.Is(err, errInterrupted) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gmqldiff", flag.ContinueOnError)
	seeds := fs.Int("seeds", 200, "number of generated scripts")
	start := fs.Int64("start", 1, "first generator seed")
	dsSeed := fs.Int64("dataset-seed", 1, "seed for the synthetic input catalog")
	report := fs.String("report", "", "write the JSON campaign report to this file")
	federation := fs.Bool("federation", false, "sample the federation axis: a Federator over 1, 2 and 3 nodes (configs federation, federation/2, federation/3)")
	storage := fs.Bool("storage", false, "add the storage axis (the catalog read back from repository members, pruned and unpruned)")
	fedEvery := fs.Int("federation-every", 10, "run the federation axis on every Nth case")
	jobs := fs.Int("jobs", 4, "campaign parallelism")
	tolerance := fs.Float64("tolerance", difftest.DefaultTolerance, "absolute/relative float comparison tolerance")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *seeds <= 0 {
		return fmt.Errorf("-seeds must be positive, got %d", *seeds)
	}

	rep := difftest.RunCampaign(difftest.CampaignOptions{
		Context:         ctx,
		Start:           *start,
		Seeds:           *seeds,
		DatasetSeed:     *dsSeed,
		Tolerance:       *tolerance,
		Federation:      *federation,
		FederationEvery: *fedEvery,
		Storage:         *storage,
		Jobs:            *jobs,
	})

	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	if rep.Canceled {
		fmt.Fprintf(out, "campaign interrupted: %d of %d cases completed\n", rep.Completed, rep.Seeds)
	}
	fmt.Fprintf(out, "campaign: %d cases (seeds %d..%d), dataset seed %d\n",
		rep.Seeds, rep.Start, rep.Start+int64(rep.Seeds)-1, rep.DatasetSeed)
	fmt.Fprintf(out, "configs:  %v\n", rep.Configs)
	fmt.Fprintf(out, "agreed:   %d   oracle errors: %d   diverged: %d   catalog_unchanged: %t\n",
		rep.Agreed, rep.OracleErrors, len(rep.Diverged), rep.CatalogUnchanged)
	ops := make([]string, 0, len(rep.OpCoverage))
	for op := range rep.OpCoverage {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	fmt.Fprintf(out, "coverage:")
	for _, op := range ops {
		fmt.Fprintf(out, " %s=%d", op, rep.OpCoverage[op])
	}
	fmt.Fprintln(out)

	for _, cr := range rep.Diverged {
		fmt.Fprintf(out, "\nDIVERGENCE seed=%d\n", cr.Seed)
		if cr.Minimized != "" {
			fmt.Fprintf(out, "minimized reproducer:\n%s\n", cr.Minimized)
		} else {
			fmt.Fprintf(out, "script:\n%s\n", cr.Script)
		}
		for _, res := range cr.Results {
			if res.Diverged() {
				fmt.Fprintf(out, "config %s: err=%q diff=%s\n", res.Config, res.Err, res.Diff)
			}
		}
	}
	if len(rep.Diverged) > 0 {
		return fmt.Errorf("%d of %d cases diverged", len(rep.Diverged), rep.Seeds)
	}
	if !rep.CatalogUnchanged {
		return errors.New("the shared input catalog changed during the campaign: a dataset was written through shared storage")
	}
	if rep.Canceled {
		return errInterrupted
	}
	return nil
}
