// Command genomenet exercises the Internet-of-Genomes protocol (Section 4.5
// of the paper): host mode publishes local datasets for crawlers; crawl mode
// crawls a set of hosts, builds the index and answers one query.
//
// Usage:
//
//	genomenet host  -data DIR [-addr :8950]
//	genomenet crawl -hosts URL1,URL2 [-bodies N] [-query TERM] [-ontological]
//	                [-timeout 2m] [-retries 3] [-skip-failed] [-metrics]
//
// Host mode also serves /metrics (Prometheus text) and /debug/pprof on its
// listener; crawl mode can dump the same registry to stdout with -metrics,
// exposing crawler counters (pages crawled, hosts skipped) from one-shot runs.
//
// Crawling the open internet means crawling hosts that hang, die mid-crawl,
// or serve garbage: -timeout bounds the whole crawl, -retries absorbs
// transient per-request faults, and -skip-failed degrades to indexing the
// reachable hosts while reporting the rest instead of aborting.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"genogo/internal/formats"
	"genogo/internal/genomenet"
	"genogo/internal/obs"
	"genogo/internal/ontology"
	"genogo/internal/resilience"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "genomenet:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("want a subcommand: host or crawl")
	}
	switch args[0] {
	case "host":
		handler, addr, err := setupHost(args[1:], out)
		if err != nil {
			return err
		}
		return http.ListenAndServe(addr, handler)
	case "crawl":
		return runCrawl(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// setupHost parses host-mode flags and builds the publishing handler
// without binding a socket.
func setupHost(args []string, out io.Writer) (http.Handler, string, error) {
	fs := flag.NewFlagSet("host", flag.ContinueOnError)
	dataDir := fs.String("data", ".", "directory holding dataset subdirectories")
	addr := fs.String("addr", ":8950", "listen address")
	name := fs.String("name", "host", "host name")
	if err := fs.Parse(args); err != nil {
		return nil, "", err
	}
	// Warm the host's one catalog through the verified read path: a host
	// must not publish silently wrong bytes to the network. Corrupt samples
	// are quarantined and the dataset published partially, mirroring
	// federation's degraded mode. The catalog is also /debug/repo.
	cat, err := formats.ServeRepository(*dataDir)
	if err != nil {
		return nil, "", err
	}
	for _, ds := range cat.Held() {
		fmt.Fprintf(out, "publishing %s: %d samples, %d regions\n", ds.Name, len(ds.Samples), ds.NumRegions())
	}
	cat.WriteWarnings(out)
	fmt.Fprintf(out, "host %s listening on %s\n", *name, *addr)
	mux := http.NewServeMux()
	mux.Handle("/", genomenet.NewCatalogHost(*name, cat).Handler())
	c := obs.NewConsole(mux)
	obs.Mount(c, obs.Default())
	c.Register(cat.View())
	return mux, *addr, nil
}

func runCrawl(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("crawl", flag.ContinueOnError)
	hosts := fs.String("hosts", "", "comma-separated host base URLs")
	bodies := fs.Int("bodies", 0, "dataset bodies to cache per host")
	query := fs.String("query", "", "search query to answer after crawling")
	ontological := fs.Bool("ontological", false, "expand the query through the biomedical ontology")
	timeout := fs.Duration("timeout", 2*time.Minute, "overall crawl deadline (0 disables)")
	retries := fs.Int("retries", 3, "attempts per request against transient faults (1 disables retrying)")
	skipFailed := fs.Bool("skip-failed", false, "index reachable hosts and report failed ones instead of aborting")
	dumpMetrics := fs.Bool("metrics", false, "dump the metrics registry in Prometheus text format after the crawl")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *hosts == "" {
		return fmt.Errorf("-hosts is required")
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opt := genomenet.CrawlOptions{FetchBodies: *bodies, SkipFailedHosts: *skipFailed}
	if *retries > 1 {
		opt.Retrier = &resilience.Retrier{MaxAttempts: *retries}
	}
	svc := genomenet.NewSearchService(ontology.Biomedical())
	urls := strings.Split(*hosts, ",")
	if err := svc.Crawl(ctx, urls, opt, nil); err != nil {
		return err
	}
	fmt.Fprintf(out, "crawled %d hosts, indexed %d datasets\n", len(urls), svc.NumIndexed())
	for _, fh := range svc.LastCrawl.FailedHosts {
		fmt.Fprintf(out, "  failed host: %s\n", strings.ReplaceAll(fh, "\t", ": "))
	}
	if *dumpMetrics {
		fmt.Fprintln(out, "-- metrics --")
		if err := obs.Default().WriteText(out); err != nil {
			return err
		}
	}
	if *query == "" {
		return nil
	}
	hits := svc.Search(*query, *ontological)
	fmt.Fprintf(out, "%d hits for %q (ontological=%v)\n", len(hits), *query, *ontological)
	for _, h := range hits {
		repo := " "
		if h.InRepo {
			repo = "*"
		}
		fmt.Fprintf(out, "  %s %s/%s sample=%s matched=%q download=%s\n",
			repo, h.HostURL, h.Dataset, h.Sample, h.Matched, h.DataURL)
	}
	return nil
}
