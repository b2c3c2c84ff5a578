package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"genogo/internal/engine"
	"genogo/internal/gdm"
	"genogo/internal/gmql"
	"genogo/internal/synth"
)

// The scripts the workloads run. The names are fixed: later issues cite them.
const (
	headlineScript = `
PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
RESULT = MAP(peak_count AS COUNT) PROMS PEAKS;
MATERIALIZE RESULT INTO result;
`
	selectMetaScript = `
RESULT = SELECT(dataType == 'ChipSeq' AND cell == 'K562') ENCODE;
MATERIALIZE RESULT INTO result;
`
	selectChrScript = `
RESULT = SELECT(; region: chr == 'chr1') ENCODE;
MATERIALIZE RESULT INTO result;
`
	// selectCellChrScript is batch_cold's query: four of the 151 samples
	// match, so the result is small. See batchRig for why.
	selectCellChrScript = `
RESULT = SELECT(dataType == 'ChipSeq' AND cell == 'K562' AND antibody == 'POLR2A'; region: chr == 'chr1') ENCODE;
MATERIALIZE RESULT INTO result;
`
	joinDLEScript = `
P = SELECT(annType == 'promoter') ANNOTATIONS;
E = SELECT(dataType == 'ChipSeq'; region: p_value < 0.0001) ENCODE;
RESULT = JOIN(DLE(10000); output: CAT) P E;
MATERIALIZE RESULT INTO result;
`
	coverHistScript = `
E = SELECT(dataType == 'ChipSeq') ENCODE;
RESULT = HISTOGRAM(2, ANY) E;
MATERIALIZE RESULT INTO result;
`
	mapUserScript = `
PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
RESULT = MAP(peak_count AS COUNT) USER PEAKS;
MATERIALIZE RESULT INTO result;
`
	resultVar = "RESULT"
)

// Fixture sizes. Every size is fixed and only the content moves with the
// seed, so two seeds give the system the same amount of work: the driver
// compares runs made with different seeds against one bound.
const (
	encodeSamples = 38   // ENCODE38, and each half of the federated ENCODE
	batchSamples  = 151  // ENCODE151
	meanPeaks     = 700  // scale of the per-sample peak count, as synth.Encode
	geneCount     = 2060 // ANNOTATIONS
	userRegions   = 200  // USER200
)

// Metadata vocabularies of the fixed sample table (synth's are unexported).
var (
	cells      = []string{"HeLa-S3", "K562", "GM12878", "HepG2", "H1-hESC", "MCF-7"}
	antibodies = []string{"CTCF", "POLR2A", "MYC", "REST", "EP300", "H3K27ac", "H3K4me1", "H3K4me3"}
)

// peakCount is the number of peaks of sample i: the quantiles of the
// heavy-tailed distribution synth.Encode draws from, walked in a fixed
// scattered order so that any run of consecutive samples mixes small and
// huge ones. The realized mean is about 1.9x meanPeaks, as in synth.Encode.
func peakCount(i int) int {
	slot := (i * 7) % encodeSamples // 7 is coprime with 38: a permutation
	u := (float64(slot) + 0.5) / encodeSamples
	return int(float64(meanPeaks) * 0.4 / (1 - u*0.99))
}

// encode builds an ENCODE-like dataset of n samples whose IDs are numbered
// from first. Region content comes from the generator; the sample table (peak
// counts, dataType, cell, antibody) is a fixed function of the position in
// the dataset, so the two halves of the federated ENCODE hold the same amount
// of work. Three samples in five are ChipSeq, the share synth.Encode aims for.
func encode(g *synth.Generator, first, n int) *gdm.Dataset {
	ds := gdm.NewDataset("ENCODE", synth.PeakSchema)
	for i := 0; i < n; i++ {
		s := g.ChipSeq(fmt.Sprintf("enc%05d", first+i), peakCount(i))
		switch i % 5 {
		case 0, 2, 4:
			s.Meta.Add("dataType", "ChipSeq")
			s.Meta.Add("antibody", antibodies[i%len(antibodies)])
		case 1:
			s.Meta.Add("dataType", "RnaSeq")
		default:
			s.Meta.Add("dataType", "DnaseSeq")
		}
		s.Meta.Add("cell", cells[i%len(cells)])
		ds.MustAdd(s)
	}
	return ds
}

// query is one script a workload submits, with the digest every result of it
// must have.
type query struct {
	name   string
	script string
	user   *gdm.Dataset // private dataset shipped with the request, or nil
	want   string       // ContentDigest of the oracle's result
}

// fixtures are the generated inputs of one workload.
type fixtures struct {
	// members holds one catalog per gmqld process (one for the single-node
	// workloads, two for the federation), keyed by dataset name.
	members []engine.MapCatalog
	queries []query
	digest  string
	regions int
}

// newFixtures generates the inputs of a workload from the seed and computes
// the expected digest of every query with the serial engine over the
// in-memory catalogs. scale divides the sample counts (quick mode only).
func newFixtures(workload string, seed int64, scale int) (*fixtures, error) {
	sub := func(k int64) *synth.Generator { return synth.New(seed*16 + k) }
	ga := sub(0)
	annotations := ga.Annotations(ga.Genes(geneCount / scale))
	f := &fixtures{}
	switch workload {
	case "serve_map":
		f.members = []engine.MapCatalog{{"ENCODE": encode(sub(1), 0, encodeSamples/scale), "ANNOTATIONS": annotations}}
		f.queries = []query{{name: "headline", script: headlineScript}}
	case "serve_mix":
		user := gdm.NewDataset("USER", synth.PeakSchema)
		user.MustAdd(sub(4).ChipSeq("user", userRegions))
		f.members = []engine.MapCatalog{{"ENCODE": encode(sub(1), 0, encodeSamples/scale), "ANNOTATIONS": annotations}}
		f.queries = []query{
			{name: "select_meta", script: selectMetaScript},
			{name: "select_chr", script: selectChrScript},
			{name: "join_dle", script: joinDLEScript},
			{name: "cover_hist", script: coverHistScript},
			{name: "map_user", script: mapUserScript, user: user},
		}
	case "fed_map":
		half := encodeSamples / scale
		f.members = []engine.MapCatalog{
			{"ENCODE": encode(sub(1), 0, half), "ANNOTATIONS": annotations},
			{"ENCODE": encode(sub(2), half, half), "ANNOTATIONS": annotations},
		}
		f.queries = []query{{name: "headline", script: headlineScript}}
	case "batch_cold":
		f.members = []engine.MapCatalog{{"ENCODE": encode(sub(3), 0, batchSamples/scale)}}
		f.queries = []query{{name: "select_cell_chr", script: selectCellChrScript}}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}

	h := sha256.New()
	for _, cat := range f.members {
		for _, name := range []string{"ANNOTATIONS", "ENCODE"} {
			if ds := cat[name]; ds != nil {
				h.Write([]byte(ds.ContentDigest()))
				f.regions += ds.NumRegions()
			}
		}
	}
	for i := range f.queries {
		q := &f.queries[i]
		if q.user != nil {
			h.Write([]byte(q.user.ContentDigest()))
			f.regions += q.user.NumRegions()
		}
		want, err := oracle(f.members, q)
		if err != nil {
			return nil, fmt.Errorf("oracle for %s: %w", q.name, err)
		}
		q.want = want.ContentDigest()
	}
	f.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return f, nil
}

// serialConfig is the reference engine configuration.
var serialConfig = engine.Config{Mode: engine.ModeSerial, MetaFirst: true}

// oracle evaluates a query with the serial engine on every member's catalog
// and unions the member results the way the federator merges them.
func oracle(members []engine.MapCatalog, q *query) (*gdm.Dataset, error) {
	prog, err := gmql.Parse(q.script)
	if err != nil {
		return nil, err
	}
	var merged *gdm.Dataset
	for _, cat := range members {
		ds, err := (&gmql.Runner{Config: serialConfig, Catalog: withUser(cat, q.user)}).Eval(prog, resultVar)
		if err != nil {
			return nil, err
		}
		if merged == nil {
			merged = ds
			continue
		}
		if merged, err = engine.Union(serialConfig, merged, ds); err != nil {
			return nil, err
		}
	}
	return merged, nil
}

// withUser returns the catalog extended with the query's private dataset.
func withUser(cat engine.MapCatalog, user *gdm.Dataset) engine.MapCatalog {
	if user == nil {
		return cat
	}
	out := engine.MapCatalog{user.Name: user}
	for k, v := range cat {
		out[k] = v
	}
	return out
}
