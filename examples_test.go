package genogo_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestExamplesRun builds and runs every example binary with small inputs —
// the repository's end-to-end smoke test. Skipped under -short.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples are slow; skipped with -short")
	}
	cases := []struct {
		pkg    string
		args   []string
		expect []string // fragments the output must contain
	}{
		{"./examples/quickstart", nil,
			[]string{"GDM regions", "karyotype | cancer", "strong peaks"}},
		{"./examples/pipeline", []string{"-replicas", "2", "-sites", "20"},
			[]string{"Phase 1", "Phase 2", "Phase 3", "promoters bound"}},
		{"./examples/encode_map", []string{"-samples", "20", "-peaks", "100", "-promoters", "200"},
			[]string{"headline query", "result regions", "Extrapolation", "ratio vs paper"}},
		{"./examples/ctcf_loops", []string{"-loops", "30"},
			[]string{"enhancer-gene pairs", "precision=", "recall="}},
		{"./examples/gene_network", []string{"-genes", "30", "-experiments", "12"},
			[]string{"Genome space", "Gene network", "top hubs"}},
		{"./examples/breakpoints", []string{"-genes", "80"},
			[]string{"dis-regulated genes", "fold change"}},
		{"./examples/federation", nil,
			[]string{"Remote datasets", "Compile-time estimate", "identical in both: true", "less traffic with federation"}},
		{"./examples/ontology_search", nil,
			[]string{"Curation report", "ontological search", "recall=1.00"}},
		{"./examples/enrichment", nil,
			[]string{"GREAT-style enrichment", "promoters"}},
		{"./examples/genomenet", nil,
			[]string{"Crawl", "Search", "Feature-based region search"}},
		{"./examples/tcga_drivers", []string{"-patients", "80"},
			[]string{"cohort", "p-value", "drivers recovered"}},
	}
	for _, c := range cases {
		c := c
		t.Run(strings.TrimPrefix(c.pkg, "./examples/"), func(t *testing.T) {
			t.Parallel()
			args := append([]string{"run", c.pkg}, c.args...)
			out, err := exec.Command("go", args...).CombinedOutput()
			if err != nil {
				t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
			}
			for _, frag := range c.expect {
				if !strings.Contains(string(out), frag) {
					t.Errorf("output missing %q:\n%s", frag, out)
				}
			}
		})
	}
}
