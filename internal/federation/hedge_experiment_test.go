package federation

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"testing"
	"time"

	"genogo/internal/engine"
	"genogo/internal/synth"
)

// TestHedgeExperiment measures the tail-latency effect of hedged reads: the
// same two-replica cluster, one replica with a heavy-tailed stall (10% of
// requests pause 150ms), queried with hedging off and on. Produces the
// hedged-vs-unhedged table in EXPERIMENTS.md. Gated behind HEDGE_REPORT=1 —
// it is a measurement, not a correctness test.
func TestHedgeExperiment(t *testing.T) {
	if os.Getenv("HEDGE_REPORT") == "" {
		t.Skip("set HEDGE_REPORT=1 to run the hedged-read latency experiment")
	}
	g := synth.New(42)
	full := g.Encode(synth.EncodeOptions{Samples: 6, MeanPeaks: 8})
	full.Name = "ENCODE"
	// The tail replica: most requests answer at once, a seeded 10% stall.
	stallRng := rand.New(rand.NewSource(1))
	mk := func(tail bool) string {
		srv := NewServer("m", engine.Config{Mode: engine.ModeSerial}, full)
		h := srv.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if tail && stallRng.Float64() < 0.10 {
				select {
				case <-time.After(150 * time.Millisecond):
				case <-r.Context().Done():
					return
				}
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	tailURL, steadyURL := mk(true), mk(false)

	run := func(hedge bool) (p50, p99 time.Duration, hedges int64) {
		fed := &Federator{
			Clients:   []*Client{NewClient(tailURL), NewClient(steadyURL)},
			Policy:    Policy{AllowPartial: true},
			Placement: NewPlacement().Register("ENCODE", 0, 1),
			Hedge:     HedgePolicy{Enabled: hedge, Delay: 20 * time.Millisecond},
		}
		before := metricHedges.With("win").Value() + metricHedges.With("canceled").Value()
		const n = 200
		lat := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			start := time.Now()
			if _, report, err := fed.Query(context.Background(), replScript, "X", 4); err != nil || report != nil {
				t.Fatalf("query %d: err=%v report=%v", i, err, report)
			}
			lat = append(lat, time.Since(start))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		hedges = metricHedges.With("win").Value() + metricHedges.With("canceled").Value() - before
		return lat[n/2], lat[n*99/100], hedges
	}

	up50, up99, _ := run(false)
	hp50, hp99, hedges := run(true)
	fmt.Printf("\nhedged-read experiment (200 queries each, 10%% of tail-replica requests stall 150ms):\n")
	fmt.Printf("| mode | p50 | p99 | hedges fired |\n|---|---|---|---|\n")
	fmt.Printf("| unhedged | %.1fms | %.1fms | 0 |\n", float64(up50.Microseconds())/1e3, float64(up99.Microseconds())/1e3)
	fmt.Printf("| hedged (20ms trigger) | %.1fms | %.1fms | %d |\n",
		float64(hp50.Microseconds())/1e3, float64(hp99.Microseconds())/1e3, hedges)
	if hp99 >= up99 {
		t.Errorf("hedging did not improve p99: %v vs %v", hp99, up99)
	}
}
