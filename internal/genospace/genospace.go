// Package genospace implements Fig. 4 of the paper: the interpretation of a
// GMQL MAP result as a genome space — a tabular space of regions vs.
// experiments — and its further transformation into a weighted gene network
// whose edge weights aggregate region-to-region relationships across
// experiments.
package genospace

import (
	"fmt"
	"sort"

	"genogo/internal/gdm"
	"genogo/internal/stats"
)

// GenomeSpace is the region × experiment matrix in the middle of Fig. 4.
// Row i corresponds to reference region i (shared by every MAP output
// sample); column j corresponds to experiment sample j; Values[i][j] is the
// MAP aggregate of experiment j over region i.
type GenomeSpace struct {
	Regions     []gdm.Region
	RegionNames []string // from the reference "name"-like attribute, if any
	Experiments []string // output sample IDs
	Values      [][]float64
}

// FromMapResult builds the genome space from a MAP result dataset: every
// sample must carry the same reference region list (the MAP cardinality
// law guarantees this for single-reference-sample MAPs). valueAttr names
// the aggregate attribute to extract (e.g. "count").
func FromMapResult(ds *gdm.Dataset, valueAttr string) (*GenomeSpace, error) {
	if len(ds.Samples) == 0 {
		return nil, fmt.Errorf("genospace: empty dataset")
	}
	vi, ok := ds.Schema.Index(valueAttr)
	if !ok {
		return nil, fmt.Errorf("genospace: no attribute %q in schema %s", valueAttr, ds.Schema)
	}
	nameIdx := -1
	for _, cand := range []string{"name", "gene", "id"} {
		if i, ok := ds.Schema.Index(cand); ok {
			nameIdx = i
			break
		}
	}
	first := ds.Samples[0]
	gs := &GenomeSpace{
		Regions:     first.Regions,
		Experiments: make([]string, len(ds.Samples)),
		Values:      make([][]float64, len(first.Regions)),
	}
	for i := range first.Regions {
		gs.Values[i] = make([]float64, len(ds.Samples))
	}
	if nameIdx >= 0 {
		gs.RegionNames = make([]string, len(first.Regions))
		for i := range first.Regions {
			gs.RegionNames[i] = first.Row(i)[nameIdx].String()
		}
	}
	for j, s := range ds.Samples {
		gs.Experiments[j] = s.ID
		if len(s.Regions) != len(first.Regions) {
			return nil, fmt.Errorf("genospace: sample %s has %d regions, sample %s has %d — not a genome space",
				s.ID, len(s.Regions), first.ID, len(first.Regions))
		}
		for i := range s.Regions {
			a, b := s.Regions[i], first.Regions[i]
			if a.Chrom != b.Chrom || a.Start != b.Start || a.Stop != b.Stop {
				return nil, fmt.Errorf("genospace: sample %s region %d is %s:%d-%d, expected %s:%d-%d",
					s.ID, i, a.Chrom, a.Start, a.Stop, b.Chrom, b.Start, b.Stop)
			}
			v, _ := s.Row(i)[vi].AsFloat()
			gs.Values[i][j] = v
		}
	}
	return gs, nil
}

// NumRegions returns the number of rows.
func (gs *GenomeSpace) NumRegions() int { return len(gs.Regions) }

// NumExperiments returns the number of columns.
func (gs *GenomeSpace) NumExperiments() int { return len(gs.Experiments) }

// Row returns the value vector of region i across experiments.
func (gs *GenomeSpace) Row(i int) []float64 { return gs.Values[i] }

// RegionLabel returns a human-readable row label.
func (gs *GenomeSpace) RegionLabel(i int) string {
	if gs.RegionNames != nil && gs.RegionNames[i] != "" && gs.RegionNames[i] != "NULL" {
		return gs.RegionNames[i]
	}
	r := gs.Regions[i]
	return fmt.Sprintf("%s:%d-%d", r.Chrom, r.Start, r.Stop)
}

// EdgeMetric selects how a pair of rows is scored when building a network.
type EdgeMetric uint8

// Edge metrics.
const (
	// MetricCorrelation uses Pearson correlation across experiments — two
	// genes interact when their signals co-vary.
	MetricCorrelation EdgeMetric = iota
	// MetricCoActivity uses the count of experiments where both rows are
	// non-zero, normalized by the experiment count.
	MetricCoActivity
)

// Edge is one weighted interaction of the gene network.
type Edge struct {
	A, B   int // region/row indices, A < B
	Weight float64
}

// Network is the right-hand side of Fig. 4: regions as nodes, arcs weighted
// by aggregating relationships across experiments.
type Network struct {
	Nodes  []string
	Edges  []Edge
	degree []int
}

// BuildNetwork scores all row pairs with the metric and keeps edges with
// weight >= threshold. It is O(regions² × experiments): genome spaces fed
// to it are gene-level (the paper's 10K genes), not base-level.
func (gs *GenomeSpace) BuildNetwork(metric EdgeMetric, threshold float64) (*Network, error) {
	n := gs.NumRegions()
	net := &Network{Nodes: make([]string, n), degree: make([]int, n)}
	for i := 0; i < n; i++ {
		net.Nodes[i] = gs.RegionLabel(i)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var w float64
			switch metric {
			case MetricCorrelation:
				var err error
				w, err = stats.Pearson(gs.Values[i], gs.Values[j])
				if err != nil {
					return nil, fmt.Errorf("genospace: %w", err)
				}
			case MetricCoActivity:
				both := 0
				for e := 0; e < gs.NumExperiments(); e++ {
					if gs.Values[i][e] != 0 && gs.Values[j][e] != 0 {
						both++
					}
				}
				w = float64(both) / float64(gs.NumExperiments())
			default:
				return nil, fmt.Errorf("genospace: unknown metric %d", metric)
			}
			if w >= threshold {
				net.Edges = append(net.Edges, Edge{A: i, B: j, Weight: w})
				net.degree[i]++
				net.degree[j]++
			}
		}
	}
	return net, nil
}

// NumNodes returns the node count.
func (n *Network) NumNodes() int { return len(n.Nodes) }

// NumEdges returns the edge count.
func (n *Network) NumEdges() int { return len(n.Edges) }

// Degree returns the degree of node i.
func (n *Network) Degree(i int) int { return n.degree[i] }

// Hub pairs a node with its degree for TopHubs.
type Hub struct {
	Node   string
	Degree int
}

// TopHubs returns the k highest-degree nodes — the regulatory hot spots a
// biologist reads off the gene network.
func (n *Network) TopHubs(k int) []Hub {
	idx := make([]int, len(n.Nodes))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if n.degree[idx[a]] != n.degree[idx[b]] {
			return n.degree[idx[a]] > n.degree[idx[b]]
		}
		return n.Nodes[idx[a]] < n.Nodes[idx[b]]
	})
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]Hub, k)
	for i := 0; i < k; i++ {
		out[i] = Hub{Node: n.Nodes[idx[i]], Degree: n.degree[idx[i]]}
	}
	return out
}

// ConnectedComponents returns the sizes of the network's connected
// components in descending order.
func (n *Network) ConnectedComponents() []int {
	parent := make([]int, len(n.Nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range n.Edges {
		ra, rb := find(e.A), find(e.B)
		if ra != rb {
			parent[ra] = rb
		}
	}
	sizes := make(map[int]int)
	for i := range parent {
		sizes[find(i)]++
	}
	out := make([]int, 0, len(sizes))
	for _, s := range sizes {
		out = append(out, s)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}
