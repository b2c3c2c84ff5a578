// Command genomegen writes synthetic genomic datasets to disk as repository
// members, standing in for the public repositories (ENCODE, TCGA,
// annotation databases) the paper queries.
//
// Usage:
//
//	genomegen [-seed N] [-out DIR] encode      [-samples N] [-peaks M]
//	genomegen [-seed N] [-out DIR] annotations [-genes N]
//	genomegen [-seed N] [-out DIR] ctcf        [-loops N]
//	genomegen [-seed N] [-out DIR] replication [-genes N]
//	genomegen [-seed N] [-out DIR] fig2
//	genomegen [-out DIR] import [-name DS] FILE.bed FILE.narrowPeak ...
//
// -metrics dumps the process metrics registry (datasets and regions written)
// in Prometheus text format after generating.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"genogo/internal/formats"
	"genogo/internal/gdm"
	"genogo/internal/obs"
	"genogo/internal/synth"
)

// Generation counters: one-shot runs dump them with -metrics, and any future
// long-running generation service inherits them on /metrics for free.
var (
	metricDatasets = obs.Default().CounterVec("genogo_genomegen_datasets_total",
		"Datasets written by genomegen, by subcommand.", "kind")
	metricRegions = obs.Default().Counter("genogo_genomegen_regions_written_total",
		"Regions written across all generated datasets.")
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "genomegen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("genomegen", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "data", "output directory")
	dumpMetrics := fs.Bool("metrics", false, "dump the metrics registry in Prometheus text format after generating")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("want a subcommand: encode, annotations, ctcf, replication or fig2")
	}
	g := synth.New(*seed)
	sub := fs.Arg(0)
	rest := fs.Args()[1:]
	var datasets []*gdm.Dataset
	switch sub {
	case "encode":
		sf := flag.NewFlagSet("encode", flag.ContinueOnError)
		samples := sf.Int("samples", 100, "number of samples")
		peaks := sf.Int("peaks", 1000, "peak count scale per sample")
		if err := sf.Parse(rest); err != nil {
			return err
		}
		datasets = append(datasets, g.Encode(synth.EncodeOptions{Samples: *samples, MeanPeaks: *peaks}))
	case "annotations":
		sf := flag.NewFlagSet("annotations", flag.ContinueOnError)
		genes := sf.Int("genes", 1000, "number of genes")
		if err := sf.Parse(rest); err != nil {
			return err
		}
		datasets = append(datasets, g.Annotations(g.Genes(*genes)))
	case "ctcf":
		sf := flag.NewFlagSet("ctcf", flag.ContinueOnError)
		loops := sf.Int("loops", 200, "number of CTCF loops")
		if err := sf.Parse(rest); err != nil {
			return err
		}
		sc := g.CTCF(*loops)
		datasets = append(datasets, sc.Loops, sc.Marks, sc.Promoters)
		fmt.Printf("planted %d true enhancer-gene pairs over %d enhancers\n",
			len(sc.TruePairs), sc.Enhancers)
	case "replication":
		sf := flag.NewFlagSet("replication", flag.ContinueOnError)
		genes := sf.Int("genes", 500, "number of genes")
		if err := sf.Parse(rest); err != nil {
			return err
		}
		sc := g.Replication(*genes)
		datasets = append(datasets, sc.Expression, sc.Breakpoints, sc.Mutations, sc.ReplicationTiming)
		fmt.Printf("planted %d fragile genes\n", len(sc.FragileGenes))
	case "fig2":
		datasets = append(datasets, synth.Figure2Dataset())
	case "tcga":
		sf := flag.NewFlagSet("tcga", flag.ContinueOnError)
		patients := sf.Int("patients", 200, "cohort size")
		if err := sf.Parse(rest); err != nil {
			return err
		}
		sc := g.TCGA(synth.TCGAOptions{Patients: *patients})
		datasets = append(datasets, sc.Mutations, sc.GeneAnnotations)
		for _, st := range sc.Subtypes {
			fmt.Printf("planted %s drivers: %v\n", st, sc.Drivers[st])
		}
	case "import":
		sf := flag.NewFlagSet("import", flag.ContinueOnError)
		dsName := sf.String("name", "IMPORTED", "dataset name")
		if err := sf.Parse(rest); err != nil {
			return err
		}
		if sf.NArg() == 0 {
			return fmt.Errorf("import: want region files (BED, narrowPeak, GTF, VCF, bedGraph)")
		}
		ds, err := formats.ImportDataset(*dsName, sf.Args())
		if err != nil {
			return err
		}
		datasets = append(datasets, ds)
	default:
		return fmt.Errorf("unknown subcommand %q", sub)
	}
	for _, ds := range datasets {
		dir := filepath.Join(*out, ds.Name)
		if err := formats.WriteDatasetColumnar(dir, ds); err != nil {
			return err
		}
		metricDatasets.With(sub).Inc()
		metricRegions.Add(int64(ds.NumRegions()))
		fmt.Printf("%s: %d samples, %d regions -> %s\n",
			ds.Name, len(ds.Samples), ds.NumRegions(), dir)
	}
	if *dumpMetrics {
		fmt.Println("-- metrics --")
		if err := obs.Default().WriteText(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
