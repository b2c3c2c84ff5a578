// federation demonstrates Section 4.4: two nodes own their local ENCODE
// slices; a requester ships the same GMQL query to both, gets compile-time
// size estimates, executes remotely, and pulls only the results back in
// staged chunks. The same analysis run the naive way (download everything,
// compute locally) moves far more data — the paper's core argument for
// query shipping.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"genogo/internal/engine"
	"genogo/internal/federation"
	"genogo/internal/synth"
)

const script = `
PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
RESULT = MAP(peak_count AS COUNT) PROMS PEAKS;
MATERIALIZE RESULT;
`

func main() {
	// Two research centers, each owning a slice of the repository.
	urls := make([]string, 2)
	for i := range urls {
		g := synth.New(int64(100 + i))
		enc := g.Encode(synth.EncodeOptions{Samples: 40, MeanPeaks: 400})
		anns := g.Annotations(g.Genes(300))
		node := federation.NewServer(fmt.Sprintf("node%d", i+1), engine.DefaultConfig(), enc, anns)
		ts := httptest.NewServer(node.Handler())
		defer ts.Close()
		urls[i] = ts.URL
	}

	// 1. Discover remote datasets.
	c := federation.NewClient(urls[0])
	infos, err := c.ListDatasets(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Remote datasets at node1 ===")
	for _, info := range infos {
		fmt.Printf("%-12s %3d samples %7d regions ~%.1f MB\n",
			info.Name, info.Samples, info.Regions, float64(info.EstimatedBytes)/1e6)
	}

	// 2. Compile with result-size estimate.
	comp, err := c.Compile(context.Background(), script, "RESULT")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n=== Compile-time estimate ===\n%d samples, %d regions, ~%.1f MB\n",
		comp.Estimate.Samples, comp.Estimate.Regions, float64(comp.Estimate.Bytes)/1e6)

	// 3. Federated execution: ship the query, pull only results.
	fed := &federation.Federator{Clients: []*federation.Client{
		federation.NewClient(urls[0]), federation.NewClient(urls[1]),
	}}
	result, _, err := fed.Query(context.Background(), script, "RESULT", 8)
	if err != nil {
		log.Fatal(err)
	}
	fedBytes := fed.BytesMoved()

	// 4. Naive baseline: download the inputs, compute locally.
	naive := &federation.Federator{Clients: []*federation.Client{
		federation.NewClient(urls[0]), federation.NewClient(urls[1]),
	}}
	naiveResult, err := naive.QueryNaive(context.Background(), script, "RESULT",
		[]string{"ANNOTATIONS", "ENCODE"}, engine.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	naiveBytes := naive.BytesMoved()

	fmt.Println("\n=== Federated vs naive architecture ===")
	fmt.Printf("result:      %d samples, %d regions (identical in both: %v)\n",
		len(result.Samples), result.NumRegions(),
		result.ContentDigest() == naiveResult.ContentDigest())
	fmt.Printf("query  ship: %.2f MB moved\n", float64(fedBytes)/1e6)
	fmt.Printf("data   ship: %.2f MB moved\n", float64(naiveBytes)/1e6)
	fmt.Printf("advantage:   %.1fx less traffic with federation\n",
		float64(naiveBytes)/float64(fedBytes))
}
