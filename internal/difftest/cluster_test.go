package difftest

import (
	"encoding/json"
	"os"
	"strconv"
	"testing"
)

// TestFailoverClusterDeterministic pins one mid-kill iteration per scenario:
// seeded chaos must be reproducible, and every scenario must classify
// cleanly against the exactness model.
func TestFailoverClusterDeterministic(t *testing.T) {
	cat := BuildCatalog(1)
	seen := make(map[string]int)
	for fault := int64(0); fault < 20; fault++ {
		res := RunClusterCase(ClusterOptions{
			ScriptSeed: 7,
			FaultSeed:  fault,
			Catalog:    cat,
		})
		if res.Diverged() {
			t.Fatalf("fault seed %d (%s/%s) diverged: %s\nscript:\n%s",
				fault, res.Scenario, res.Placement, res.Divergence, res.Script)
		}
		seen[res.Scenario]++
		// Determinism: the same seeds reproduce the same classification.
		again := RunClusterCase(ClusterOptions{ScriptSeed: 7, FaultSeed: fault, Catalog: cat})
		if again.Scenario != res.Scenario || again.Partial != res.Partial ||
			(again.FedErr != "") != (res.FedErr != "") || again.Diff != res.Diff {
			t.Errorf("fault seed %d not reproducible: %+v vs %+v", fault, res, again)
		}
	}
	for _, sc := range []string{"none", "pre-kill", "mid-kill", "kill-restart", "slow-hedged"} {
		if seen[sc] == 0 {
			t.Errorf("20 fault seeds never drew scenario %q (saw %v)", sc, seen)
		}
	}
}

// TestHedgeClusterExact pins slow-hedged iterations: a hedged query against
// a cluster with one slow member must stay exact.
func TestHedgeClusterExact(t *testing.T) {
	cat := BuildCatalog(1)
	hedged := 0
	for fault := int64(0); fault < 40 && hedged < 3; fault++ {
		res := RunClusterCase(ClusterOptions{ScriptSeed: 11, FaultSeed: fault, Catalog: cat})
		if res.Scenario != "slow-hedged" {
			continue
		}
		hedged++
		if res.Diverged() {
			t.Fatalf("fault seed %d diverged: %s", fault, res.Divergence)
		}
		if res.OracleErr == "" && (res.FedErr != "" || res.Partial || res.Diff != "") {
			t.Fatalf("hedged run not exact: %+v", res)
		}
	}
	if hedged == 0 {
		t.Fatal("no slow-hedged scenario drawn in 40 fault seeds")
	}
}

// TestReplicaClusterSoak is the kill/restart chaos soak: seeded campaigns of
// generated scripts against a real three-member replicated federation with
// members dying, restarting, and lagging mid-query. Zero divergences from
// the single-node oracle required — exact results (not merely partial)
// whenever each replica group keeps a live member, and no double-counted
// samples despite every overlap-placement sample arriving twice.
//
// Default is a short soak; CI runs the long one:
//
//	GENOGO_CLUSTER_SOAK=200 go test -race -run TestReplicaClusterSoak ./internal/difftest
//	GENOGO_CLUSTER_SOAK_REPORT=soak.json  # write the JSON artifact
func TestReplicaClusterSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster soak skipped in -short")
	}
	iters := 25
	if v := os.Getenv("GENOGO_CLUSTER_SOAK"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad GENOGO_CLUSTER_SOAK=%q", v)
		}
		iters = n
	}
	rep := RunClusterCampaign(ClusterCampaignOptions{Start: 1, Iterations: iters})
	if path := os.Getenv("GENOGO_CLUSTER_SOAK_REPORT"); path != "" {
		f, err := os.Create(path)
		if err != nil {
			t.Fatalf("soak report: %v", err)
		}
		if err := rep.WriteJSON(f); err != nil {
			t.Fatalf("soak report: %v", err)
		}
		f.Close()
	}
	if len(rep.Diverged) != 0 {
		b, _ := json.MarshalIndent(rep.Diverged, "", "  ")
		t.Fatalf("%d/%d iterations diverged:\n%s", len(rep.Diverged), iters, b)
	}
	if rep.Agreed != iters {
		t.Fatalf("agreed = %d, want %d", rep.Agreed, iters)
	}
	if !rep.CatalogUnchanged {
		t.Error("the members' shared catalog changed during the soak: something wrote through shared region storage")
	}
	if rep.Exact == 0 {
		t.Error("soak produced no exact results")
	}
	t.Logf("cluster soak: %d iterations, %d exact, %d partial, %d errored, scenarios %v",
		iters, rep.Exact, rep.Partial, rep.Errored, rep.Scenarios)
}
