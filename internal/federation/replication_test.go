package federation

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"genogo/internal/engine"
	"genogo/internal/gdm"
	"genogo/internal/obs"
	"genogo/internal/resilience"
	"genogo/internal/synth"
)

const replScript = `X = SELECT() ENCODE; MATERIALIZE X;`

// replCluster is a test federation of members serving shards of one logical
// ENCODE dataset, each behind a deterministic Outage injector.
type replCluster struct {
	servers []*Server
	outages []*resilience.Outage
	urls    []string
	clients []*Client
	// full is the complete logical dataset (the union of all shards).
	full *gdm.Dataset
	// shards maps shard name -> its samples.
	shards map[string][]*gdm.Sample
}

// newReplCluster builds one member per layout entry; each entry lists the
// shard names ("A", "B") that member holds. Shard A is the first half of a
// 6-sample synthetic ENCODE dataset, shard B the second half.
func newReplCluster(t *testing.T, layout [][]string) *replCluster {
	t.Helper()
	g := synth.New(42)
	full := g.Encode(synth.EncodeOptions{Samples: 6, MeanPeaks: 8})
	full.Name = "ENCODE"
	rc := &replCluster{
		full: full,
		shards: map[string][]*gdm.Sample{
			"A": full.Samples[:3],
			"B": full.Samples[3:],
		},
	}
	for _, shards := range layout {
		ds := gdm.NewDataset("ENCODE", full.Schema)
		for _, sh := range shards {
			ds.Samples = append(ds.Samples, rc.shards[sh]...)
		}
		srv := NewServer("m", engine.Config{Mode: engine.ModeSerial, MetaFirst: true}, ds)
		out := resilience.NewOutage()
		ts := httptest.NewServer(out.Wrap(srv.Handler()))
		t.Cleanup(ts.Close)
		rc.servers = append(rc.servers, srv)
		rc.outages = append(rc.outages, out)
		rc.urls = append(rc.urls, ts.URL)
		rc.clients = append(rc.clients, NewClient(ts.URL,
			WithRetrier(&resilience.Retrier{
				MaxAttempts: 3,
				BaseDelay:   time.Millisecond,
				MaxDelay:    5 * time.Millisecond,
			})))
	}
	return rc
}

// sampleIDs lists a dataset's sample IDs, sorted.
func sampleIDs(ds *gdm.Dataset) []string {
	ids := make([]string, len(ds.Samples))
	for i, s := range ds.Samples {
		ids[i] = s.ID
	}
	sort.Strings(ids)
	return ids
}

// assertExact requires ds to hold exactly the full dataset's samples, each
// once — the replicated-federation exactness invariant.
func (rc *replCluster) assertExact(t *testing.T, ds *gdm.Dataset) {
	t.Helper()
	if ds == nil {
		t.Fatal("nil dataset")
	}
	want := sampleIDs(rc.full)
	got := sampleIDs(ds)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("merged samples = %v, want exactly %v", got, want)
	}
}

// findSpans walks a span tree collecting spans matching pred.
func findSpans(sp *obs.Span, pred func(*obs.Span) bool) []*obs.Span {
	if sp == nil {
		return nil
	}
	var out []*obs.Span
	if pred(sp) {
		out = append(out, sp)
	}
	for _, c := range sp.Children {
		out = append(out, findSpans(c, pred)...)
	}
	return out
}

func TestReplicaPlacementGroups(t *testing.T) {
	p := NewPlacement().
		Register("ENCODE@A", 1, 0).
		Register("ENCODE@B", 1, 2).
		Register("ANNOT", 0, 1).
		Register("PEAKS", 2, 2, 1)
	groups := p.Groups()
	if len(groups) != 2 {
		t.Fatalf("groups = %+v, want 2", groups)
	}
	g0, g1 := groups[0], groups[1]
	if g0.Key != "0,1" || strings.Join(g0.Units, ",") != "ENCODE@A,ANNOT" {
		t.Errorf("group 0 = %+v", g0)
	}
	if g1.Key != "1,2" || strings.Join(g1.Units, ",") != "ENCODE@B,PEAKS" {
		t.Errorf("group 1 = %+v", g1)
	}
	if p.Replicas("ENCODE@A") != 2 || p.Replicas("nope") != 0 {
		t.Error("Replicas wrong")
	}
	if err := p.Validate(3); err != nil {
		t.Errorf("Validate(3) = %v", err)
	}
	if err := p.Validate(2); err == nil {
		t.Error("Validate(2) accepted member index 2")
	}
	if err := NewPlacement().Validate(0); err != nil {
		t.Errorf("empty placement Validate = %v", err)
	}
}

// TestReplicaShardedExactDedup: overlapping replica groups — member 1 serves
// both legs, so shard A arrives twice and the merge's identity dedup must
// keep the union exact (no renamed duplicates, no double counts).
func TestReplicaShardedExactDedup(t *testing.T) {
	rc := newReplCluster(t, [][]string{{"A"}, {"A", "B"}, {"B"}})
	fed := &Federator{
		Clients: rc.clients,
		Policy:  Policy{AllowPartial: true},
		Placement: NewPlacement().
			Register("ENCODE@A", 0, 1).
			Register("ENCODE@B", 1, 2),
	}
	ds, root, report, err := fed.QueryProfiled(context.Background(), replScript, "X", 4)
	if err != nil {
		t.Fatal(err)
	}
	if report != nil {
		t.Fatalf("report = %v, want exact (nil)", report)
	}
	rc.assertExact(t, ds)
	merges := findSpans(root, func(sp *obs.Span) bool { return sp.Op == "MERGE" })
	if len(merges) != 1 {
		t.Fatalf("MERGE spans = %d", len(merges))
	}
	// Leg {0,1} returns A (member 0) or A+B (member 1); leg {1,2} likewise
	// overlaps. Whichever replicas answered, at least shard A arrived twice.
	if merges[0].Attr("dedup") == "" {
		t.Error("MERGE span missing dedup annotation despite overlapping groups")
	}
	legs := findSpans(root, func(sp *obs.Span) bool { return sp.Op == "LEG" })
	if len(legs) != 2 {
		t.Errorf("LEG spans = %d, want 2", len(legs))
	}
}

// TestReplicaMergeRule pins the federation's one merge rule: a sample ID
// repeated between legs whose replica groups share a member is one sample
// served twice and merges once; repeated anywhere else it is a different
// sample that happens to share the ID, and both are kept, the later one
// renamed as engine.Union renames. Member 1 of the disjoint cases holds
// three samples numbered like member 0's, with other content. A nil member
// is dead: its leg fails over.
func TestReplicaMergeRule(t *testing.T) {
	full := synth.New(42).Encode(synth.EncodeOptions{Samples: 6, MeanPeaks: 8})
	a, b := full.Samples[:3], full.Samples[3:]
	other := synth.New(43).Encode(synth.EncodeOptions{Samples: 3, MeanPeaks: 8}).Samples
	dataset := func(parts ...[]*gdm.Sample) *gdm.Dataset {
		ds := gdm.NewDataset("ENCODE", full.Schema)
		for _, p := range parts {
			ds.Samples = append(ds.Samples, p...)
		}
		return ds
	}
	both := sampleIDs(dataset(a))
	for _, s := range other {
		if s.ID != a[0].ID && s.ID != a[1].ID && s.ID != a[2].ID {
			t.Fatalf("sample %s of the second member repeats no ID of the first", s.ID)
		}
		both = append(both, gdm.DeriveID("union", s.ID, "right"))
	}
	sort.Strings(both)
	cases := []struct {
		name      string
		members   []*gdm.Dataset
		placement *Placement
		want      []string
		regions   int
	}{
		{
			name:      "disjoint-groups-keep-both",
			members:   []*gdm.Dataset{dataset(a), dataset(other)},
			placement: NewPlacement().Register("ENCODE@A", 0).Register("ENCODE@B", 1),
			want:      both,
			regions:   dataset(a, other).NumRegions(),
		},
		{
			name:      "overlapping-groups-collapse",
			members:   []*gdm.Dataset{dataset(a), dataset(a, b), dataset(b)},
			placement: NewPlacement().Register("ENCODE@A", 0, 1).Register("ENCODE@B", 1, 2),
			want:      sampleIDs(full),
			regions:   full.NumRegions(),
		},
		{
			// Leg {0,1} fails over to member 1 and returns A and B; leg
			// {2,3} is answered by member 2 with B and C. The two legs
			// share no member but return the same samples of B: they are
			// connected through group {1,2}.
			name:      "chained-groups-collapse",
			members:   []*gdm.Dataset{nil, dataset(a, b[:1]), dataset(b[:1], b[1:]), dataset(b[1:])},
			placement: NewPlacement().Register("ENCODE@A", 0, 1).Register("ENCODE@C", 2, 3).Register("ENCODE@B", 1, 2),
			want:      sampleIDs(full),
			regions:   full.NumRegions(),
		},
		{
			name:    "nil-placement-renames",
			members: []*gdm.Dataset{dataset(a), dataset(other)},
			want:    both,
			regions: dataset(a, other).NumRegions(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var clients []*Client
			for _, ds := range tc.members {
				srv := NewServer("m", engine.Config{Mode: engine.ModeSerial, MetaFirst: true})
				if ds != nil {
					srv.AddDataset(ds)
				}
				ts := httptest.NewServer(srv.Handler())
				if ds == nil {
					ts.Close()
				} else {
					t.Cleanup(ts.Close)
				}
				clients = append(clients, NewClient(ts.URL))
			}
			fed := &Federator{Clients: clients, Placement: tc.placement}
			ds, report, err := fed.Query(context.Background(), replScript, "X", 2)
			if err != nil || report != nil {
				t.Fatalf("err=%v report=%v", err, report)
			}
			if got := sampleIDs(ds); strings.Join(got, "|") != strings.Join(tc.want, "|") {
				t.Errorf("merged samples = %v, want %v", got, tc.want)
			}
			if got := ds.NumRegions(); got != tc.regions {
				t.Errorf("merged %d regions, want %d", got, tc.regions)
			}
		})
	}
}

// TestFailoverMidQueryExact: the primary replica of one leg is killed; the
// leg must re-dispatch to the surviving replica and the merged result must
// be byte-identical to the no-failure run — exact, not partial.
func TestFailoverMidQueryExact(t *testing.T) {
	rc := newReplCluster(t, [][]string{{"A"}, {"A", "B"}, {"B"}})
	rc.outages[0].Kill()
	failoversBefore := metricFailovers.Value()
	fed := &Federator{
		Clients: rc.clients,
		Policy:  Policy{AllowPartial: true},
		Placement: NewPlacement().
			Register("ENCODE@A", 0, 1).
			Register("ENCODE@B", 1, 2),
	}
	ds, root, report, err := fed.QueryProfiled(context.Background(), replScript, "X", 4)
	if err != nil {
		t.Fatal(err)
	}
	if report != nil {
		t.Fatalf("failover leaked a partial report: %v", report)
	}
	rc.assertExact(t, ds)
	if d := metricFailovers.Value() - failoversBefore; d < 1 {
		t.Errorf("failover counter delta = %d, want >= 1", d)
	}
	fos := findSpans(root, func(sp *obs.Span) bool {
		return sp.Op == "MEMBER" && sp.Attr("role") == "failover"
	})
	if len(fos) == 0 {
		t.Error("no failover-annotated MEMBER span in the merged tree")
	}
	if !strings.Contains(root.Render(), "role=failover") {
		t.Error("EXPLAIN ANALYZE rendering does not show the failover leg")
	}
}

// TestFailoverKillMidFetch: the kill fuse fires on a later request, so the
// member dies between execute and fetch; failover must still deliver the
// exact result.
func TestFailoverKillMidFetch(t *testing.T) {
	rc := newReplCluster(t, [][]string{{"A", "B"}, {"A", "B"}})
	// Request 1 is the execute; the fetch that follows trips the fuse.
	rc.outages[0].KillAfter(2)
	fed := &Federator{
		Clients:   rc.clients,
		Policy:    Policy{AllowPartial: true},
		Placement: NewPlacement().Register("ENCODE", 0, 1),
	}
	ds, report, err := fed.Query(context.Background(), replScript, "X", 4)
	if err != nil {
		t.Fatal(err)
	}
	if report != nil {
		t.Fatalf("report = %v, want exact", report)
	}
	rc.assertExact(t, ds)
}

// TestFailoverAllReplicasDead: a leg whose every replica is dead is lost;
// the other legs' samples still arrive under AllowPartial, and the report
// names the lost leg with all its replicas.
func TestFailoverAllReplicasDead(t *testing.T) {
	rc := newReplCluster(t, [][]string{{"A"}, {"A"}, {"B"}})
	rc.outages[0].Kill()
	rc.outages[1].Kill()
	placement := NewPlacement().
		Register("ENCODE@A", 0, 1).
		Register("ENCODE@B", 2)
	fed := &Federator{
		Clients:   rc.clients,
		Policy:    Policy{AllowPartial: true},
		Placement: placement,
	}
	ds, report, err := fed.Query(context.Background(), replScript, "X", 4)
	if err != nil {
		t.Fatal(err)
	}
	if report == nil || len(report.Failed) != 1 {
		t.Fatalf("report = %+v, want exactly one lost leg", report)
	}
	nf := report.Failed[0]
	if !strings.Contains(nf.Node, rc.urls[0]) || !strings.Contains(nf.Node, rc.urls[1]) {
		t.Errorf("lost leg names %q, want both dead replicas", nf.Node)
	}
	if !strings.Contains(nf.Err.Error(), "ENCODE@A") {
		t.Errorf("lost leg error %q does not name its units", nf.Err)
	}
	want := sampleIDs(&gdm.Dataset{Samples: rc.shards["B"]})
	if got := sampleIDs(ds); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("partial result = %v, want shard B %v", got, want)
	}

	// Strict policy: the same failure aborts the query.
	strict := &Federator{Clients: rc.clients, Placement: placement}
	if _, _, err := strict.Query(context.Background(), replScript, "X", 4); err == nil {
		t.Error("strict policy returned success with a lost leg")
	}
}

// TestProbeMembershipStateMachine: consecutive probe failures walk a member
// down the suspicion ladder, a successful probe snaps it back up, and probe
// successes close the member's circuit breaker without any query paying.
func TestProbeMembershipStateMachine(t *testing.T) {
	rc := newReplCluster(t, [][]string{{"A"}, {"A"}})
	// Tight breaker so probe failures alone open it.
	rc.clients[0].Breaker = &resilience.Breaker{FailureThreshold: 2, Cooldown: time.Hour}
	p := NewProber(rc.clients)
	p.Interval = time.Hour // manual rounds only

	p.ProbeAll(context.Background())
	st := p.Status()
	if st[0].State != HealthUp || st[1].State != HealthUp {
		t.Fatalf("initial probe states = %v %v", st[0].StateName, st[1].StateName)
	}
	if st[0].LatencyMS <= 0 {
		t.Error("no probe latency recorded")
	}

	rc.outages[0].Kill()
	p.ProbeAll(context.Background())
	if got := p.HealthOf(0); got != HealthSuspect {
		t.Fatalf("after 1 failure: %v, want suspect", got)
	}
	p.ProbeAll(context.Background())
	p.ProbeAll(context.Background())
	if got := p.HealthOf(0); got != HealthDown {
		t.Fatalf("after 3 failures: %v, want down", got)
	}
	if rc.clients[0].Breaker.State() != resilience.Open {
		t.Fatal("probe failures did not open the breaker")
	}

	// Recovery: the probe — not a live query — discovers it and closes the
	// breaker (Health bypasses Allow, so the hour-long cooldown is moot).
	rc.outages[0].Restart()
	p.ProbeAll(context.Background())
	if got := p.HealthOf(0); got != HealthUp {
		t.Fatalf("after restart probe: %v, want up", got)
	}
	if rc.clients[0].Breaker.State() != resilience.Closed {
		t.Error("successful probe did not close the breaker")
	}
	if p.HealthOf(7) != HealthUnknown || (*Prober)(nil).HealthOf(0) != HealthUnknown {
		t.Error("out-of-range / nil prober should report unknown")
	}
}

// TestProbeDirectsReplicaOrdering: with the primary known down, the leg
// must dispatch straight to the live replica — no failover attempt spent on
// discovering what the prober already knew.
func TestProbeDirectsReplicaOrdering(t *testing.T) {
	rc := newReplCluster(t, [][]string{{"A", "B"}, {"A", "B"}})
	rc.outages[0].Kill()
	p := NewProber(rc.clients)
	p.Interval = time.Hour
	for i := 0; i < 3; i++ {
		p.ProbeAll(context.Background())
	}
	if p.HealthOf(0) != HealthDown {
		t.Fatal("member 0 not down after 3 probe rounds")
	}
	failoversBefore := metricFailovers.Value()
	fed := &Federator{
		Clients:   rc.clients,
		Policy:    Policy{AllowPartial: true},
		Placement: NewPlacement().Register("ENCODE", 0, 1),
		Prober:    p,
	}
	ds, root, report, err := fed.QueryProfiled(context.Background(), replScript, "X", 4)
	if err != nil || report != nil {
		t.Fatalf("err=%v report=%v", err, report)
	}
	rc.assertExact(t, ds)
	if d := metricFailovers.Value() - failoversBefore; d != 0 {
		t.Errorf("failover delta = %d, want 0 (prober should have steered the leg)", d)
	}
	members := findSpans(root, func(sp *obs.Span) bool { return sp.Op == "MEMBER" })
	if len(members) != 1 || members[0].Attr("role") != "primary" {
		t.Errorf("attempt spans = %d, want a single primary", len(members))
	}
	if !strings.Contains(members[0].Detail, rc.urls[1]) {
		t.Errorf("primary went to %q, want the live member %q", members[0].Detail, rc.urls[1])
	}
}

// TestHedgeSlowMember: a slow primary is hedged on the second replica after
// the delay; the hedge wins, the result is exact, and the hedge leg is
// annotated in the merged span tree.
func TestHedgeSlowMember(t *testing.T) {
	g := synth.New(42)
	full := g.Encode(synth.EncodeOptions{Samples: 6, MeanPeaks: 8})
	full.Name = "ENCODE"
	mk := func(delay time.Duration) string {
		srv := NewServer("m", engine.Config{Mode: engine.ModeSerial, MetaFirst: true}, full)
		h := srv.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if delay > 0 {
				select {
				case <-time.After(delay):
				case <-r.Context().Done():
					return
				}
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	slow, fast := mk(300*time.Millisecond), mk(0)
	clients := []*Client{NewClient(slow), NewClient(fast)}
	winsBefore := metricHedges.With("win").Value()
	fed := &Federator{
		Clients:   clients,
		Policy:    Policy{AllowPartial: true},
		Placement: NewPlacement().Register("ENCODE", 0, 1),
		Hedge:     HedgePolicy{Enabled: true, Delay: 5 * time.Millisecond},
	}
	start := time.Now()
	ds, root, report, err := fed.QueryProfiled(context.Background(), replScript, "X", 4)
	took := time.Since(start)
	if err != nil || report != nil {
		t.Fatalf("err=%v report=%v", err, report)
	}
	if got, want := sampleIDs(ds), sampleIDs(full); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("hedged result = %v, want %v", got, want)
	}
	if took >= 300*time.Millisecond {
		t.Errorf("query took %v: the hedge should have beaten the slow primary", took)
	}
	if d := metricHedges.With("win").Value() - winsBefore; d != 1 {
		t.Errorf("hedge win delta = %d, want 1", d)
	}
	hs := findSpans(root, func(sp *obs.Span) bool {
		return sp.Op == "MEMBER" && sp.Attr("role") == "hedge"
	})
	if len(hs) != 1 {
		t.Fatalf("hedge-annotated MEMBER spans = %d, want 1", len(hs))
	}
	if !strings.Contains(root.Render(), "role=hedge") {
		t.Error("EXPLAIN ANALYZE rendering does not show the hedge leg")
	}
}

// TestHedgeAdaptiveDelay: the trigger follows the leg-latency window's p99,
// clamped to [Delay, MaxDelay], and falls back to Delay while cold.
func TestHedgeAdaptiveDelay(t *testing.T) {
	f := &Federator{Hedge: HedgePolicy{Enabled: true, Delay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond}}
	if got := f.hedgeDelay(); got != 10*time.Millisecond {
		t.Errorf("cold delay = %v, want the configured floor", got)
	}
	for i := 0; i < latencyWindowSize-2; i++ {
		f.hedgeWin.observe(20 * time.Millisecond)
	}
	f.hedgeWin.observe(60 * time.Millisecond)
	f.hedgeWin.observe(60 * time.Millisecond)
	if got := f.hedgeDelay(); got != 60*time.Millisecond {
		t.Errorf("warm delay = %v, want the window p99 (60ms)", got)
	}
	for i := 0; i < latencyWindowSize; i++ {
		f.hedgeWin.observe(5 * time.Second)
	}
	if got := f.hedgeDelay(); got != 100*time.Millisecond {
		t.Errorf("runaway p99 delay = %v, want clamped to MaxDelay", got)
	}
	var w latencyWindow
	for i := 0; i < latencyMinSamples-1; i++ {
		w.observe(time.Second)
	}
	if _, ok := w.p99(); ok {
		t.Error("p99 trusted with too few samples")
	}
	w.observe(time.Second)
	if p, ok := w.p99(); !ok || p != time.Second {
		t.Errorf("p99 = %v ok=%v", p, ok)
	}
}

// TestReplicaPolicyMatrix is the hand-computed availability table: for each
// replication layout × quorum × failed-member set, the query must land on
// exactly the predicted side of exact / partial / error — and live members
// must end with empty staging areas.
func TestReplicaPolicyMatrix(t *testing.T) {
	type outcome int
	const (
		exact outcome = iota
		partial
		errored
	)
	cases := []struct {
		name   string
		layout [][]string // member -> shards held
		place  func() *Placement
		policy Policy
		killed []int
		want   outcome
		// wantShards is the union the result must hold (exact and partial).
		wantShards []string
	}{
		{
			name:       "R1/no-failures",
			layout:     [][]string{{"A"}, {"B"}},
			place:      func() *Placement { return NewPlacement().Register("ENCODE@A", 0).Register("ENCODE@B", 1) },
			policy:     Policy{AllowPartial: true},
			want:       exact,
			wantShards: []string{"A", "B"},
		},
		{
			name:       "R1/one-dead-partial",
			layout:     [][]string{{"A"}, {"B"}},
			place:      func() *Placement { return NewPlacement().Register("ENCODE@A", 0).Register("ENCODE@B", 1) },
			policy:     Policy{AllowPartial: true},
			killed:     []int{0},
			want:       partial,
			wantShards: []string{"B"},
		},
		{
			name:   "R1/one-dead-strict-errors",
			layout: [][]string{{"A"}, {"B"}},
			place:  func() *Placement { return NewPlacement().Register("ENCODE@A", 0).Register("ENCODE@B", 1) },
			killed: []int{0},
			want:   errored,
		},
		{
			name:   "R1/one-dead-quorum2-errors",
			layout: [][]string{{"A"}, {"B"}},
			place:  func() *Placement { return NewPlacement().Register("ENCODE@A", 0).Register("ENCODE@B", 1) },
			policy: Policy{AllowPartial: true, Quorum: 2},
			killed: []int{0},
			want:   errored,
		},
		{
			name:   "R2/one-dead-exact",
			layout: [][]string{{"A"}, {"A", "B"}, {"B"}},
			place: func() *Placement {
				return NewPlacement().Register("ENCODE@A", 0, 1).Register("ENCODE@B", 1, 2)
			},
			policy:     Policy{AllowPartial: true},
			killed:     []int{1},
			want:       exact,
			wantShards: []string{"A", "B"},
		},
		{
			name:   "R2/two-dead-still-exact",
			layout: [][]string{{"A"}, {"A", "B"}, {"B"}},
			place: func() *Placement {
				return NewPlacement().Register("ENCODE@A", 0, 1).Register("ENCODE@B", 1, 2)
			},
			policy:     Policy{AllowPartial: true},
			killed:     []int{0, 2},
			want:       exact,
			wantShards: []string{"A", "B"},
		},
		{
			name:   "R2/leg-wiped-partial",
			layout: [][]string{{"A"}, {"A"}, {"B"}},
			place: func() *Placement {
				return NewPlacement().Register("ENCODE@A", 0, 1).Register("ENCODE@B", 2)
			},
			policy:     Policy{AllowPartial: true},
			killed:     []int{0, 1},
			want:       partial,
			wantShards: []string{"B"},
		},
		{
			name:   "R2/leg-wiped-quorum2-errors",
			layout: [][]string{{"A"}, {"A"}, {"B"}},
			place: func() *Placement {
				return NewPlacement().Register("ENCODE@A", 0, 1).Register("ENCODE@B", 2)
			},
			policy: Policy{AllowPartial: true, Quorum: 2},
			killed: []int{0, 1},
			want:   errored,
		},
		{
			name:   "R3/two-dead-exact",
			layout: [][]string{{"A", "B"}, {"A", "B"}, {"A", "B"}},
			place:  func() *Placement { return NewPlacement().Register("ENCODE", 0, 1, 2) },
			policy: Policy{AllowPartial: true},
			killed: []int{0, 1},
			want:   exact, wantShards: []string{"A", "B"},
		},
		{
			name:   "R3/all-dead-errors",
			layout: [][]string{{"A", "B"}, {"A", "B"}, {"A", "B"}},
			place:  func() *Placement { return NewPlacement().Register("ENCODE", 0, 1, 2) },
			policy: Policy{AllowPartial: true},
			killed: []int{0, 1, 2},
			want:   errored,
		},
		{
			name:   "overlap/dedup-exact",
			layout: [][]string{{"A", "B"}, {"A", "B"}, {"B"}},
			place: func() *Placement {
				return NewPlacement().Register("ENCODE@A", 0, 1).Register("ENCODE@B", 1, 2)
			},
			policy: Policy{AllowPartial: true},
			want:   exact, wantShards: []string{"A", "B"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rc := newReplCluster(t, tc.layout)
			killed := make(map[int]bool)
			for _, k := range tc.killed {
				rc.outages[k].Kill()
				killed[k] = true
			}
			fed := &Federator{Clients: rc.clients, Policy: tc.policy, Placement: tc.place()}
			ds, report, err := fed.Query(context.Background(), replScript, "X", 4)
			switch tc.want {
			case exact:
				if err != nil {
					t.Fatalf("want exact, got error: %v", err)
				}
				if report != nil {
					t.Fatalf("want exact, got partial: %v", report)
				}
			case partial:
				if err != nil {
					t.Fatalf("want partial, got error: %v", err)
				}
				if report == nil {
					t.Fatal("want partial, got exact")
				}
			case errored:
				if err == nil {
					t.Fatal("want error, got success")
				}
				return
			}
			var want []string
			for _, sh := range tc.wantShards {
				for _, s := range rc.shards[sh] {
					want = append(want, s.ID)
				}
			}
			sort.Strings(want)
			if got := sampleIDs(ds); strings.Join(got, "|") != strings.Join(want, "|") {
				t.Errorf("result = %v, want shards %v = %v", got, tc.wantShards, want)
			}
			// Staged-result hygiene: every live member released its staging.
			for i, srv := range rc.servers {
				if killed[i] {
					continue
				}
				if n := srv.StagedCount(); n != 0 {
					t.Errorf("member %d still stages %d results", i, n)
				}
			}
		})
	}
}

// TestReplicaPlacementValidationFails: a placement naming a member outside
// the federation aborts the query with a configuration error, before any
// network traffic.
func TestReplicaPlacementValidationFails(t *testing.T) {
	rc := newReplCluster(t, [][]string{{"A", "B"}})
	fed := &Federator{
		Clients:   rc.clients,
		Placement: NewPlacement().Register("ENCODE", 0, 5),
	}
	if _, _, err := fed.Query(context.Background(), replScript, "X", 4); err == nil ||
		!strings.Contains(err.Error(), "placement") {
		t.Fatalf("err = %v, want placement validation failure", err)
	}
}

// TestClientHonorsRetryAfterHint: a shed response's Retry-After reaches the
// retrier as the sleep before the next attempt (the PR 5 admission gate
// emits integer seconds).
func TestClientHonorsRetryAfterHint(t *testing.T) {
	sheds := 0
	g := synth.New(3)
	ds := g.Encode(synth.EncodeOptions{Samples: 2, MeanPeaks: 4})
	ds.Name = "ENCODE"
	srv := NewServer("m", engine.Config{Mode: engine.ModeSerial, MetaFirst: true}, ds)
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/query" && sheds == 0 {
			sheds++
			w.Header().Set("Retry-After", "7")
			http.Error(w, "shed", http.StatusTooManyRequests)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	var slept []time.Duration
	c := NewClient(ts.URL, WithRetrier(&resilience.Retrier{
		MaxAttempts: 2,
		BaseDelay:   time.Millisecond,
		Sleep: func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}))
	if _, err := c.Execute(context.Background(), replScript, "X"); err != nil {
		t.Fatalf("retried execute: %v", err)
	}
	if len(slept) != 1 || slept[0] != 2*time.Second {
		// DefaultMaxDelay (2s) caps the 7s hint.
		t.Fatalf("slept %v, want the capped Retry-After hint [2s]", slept)
	}
}
