package federation

import "genogo/internal/obs"

// The /debug/federation membership console: per-member health state (probe
// outcome, latency, breaker position) and the placement map's replica count
// per data unit — the coordinator's live view of the federation, registered
// on gmqld and on federation servers alike.

// PlacementSnapshot is one data unit's row of the placement table.
type PlacementSnapshot struct {
	Unit     string   `json:"unit"`
	Replicas int      `json:"replicas"`
	Members  []string `json:"members"`
}

// MemberSnapshot is one member's row of the membership table.
type MemberSnapshot struct {
	MemberHealth
	// Breaker is the member client's circuit position.
	Breaker string `json:"breaker"`
}

// MembershipSnapshot is the console's full view.
type MembershipSnapshot struct {
	// Members lists every member with its probed health and breaker state.
	Members []MemberSnapshot `json:"members"`
	// Placement lists every replicated data unit (empty without a
	// Placement, where each member is its own leg).
	Placement []PlacementSnapshot `json:"placement,omitempty"`
	// Hedging reports whether hedged requests are on.
	Hedging bool `json:"hedging"`
}

// Membership snapshots the federator's membership view for the console.
func (f *Federator) Membership() MembershipSnapshot {
	snap := MembershipSnapshot{Hedging: f.Hedge.Enabled}
	probed := f.Prober.Status()
	for i, c := range f.Clients {
		ms := MemberSnapshot{Breaker: c.Breaker.State().String()}
		if i < len(probed) {
			ms.MemberHealth = probed[i]
		} else {
			ms.MemberHealth = MemberHealth{Member: c.BaseURL, StateName: HealthUnknown.String()}
		}
		snap.Members = append(snap.Members, ms)
	}
	for _, unit := range f.Placement.Units() {
		ps := PlacementSnapshot{Unit: unit, Replicas: f.Placement.Replicas(unit)}
		for _, m := range f.Placement.Members(unit) {
			if m >= 0 && m < len(f.Clients) {
				ps.Members = append(ps.Members, f.Clients[m].BaseURL)
			}
		}
		snap.Placement = append(snap.Placement, ps)
	}
	return snap
}

// MembershipView serves the membership console on /debug/federation. snap
// resolves the current membership view per request; a nil snap serves the
// empty view of a node that coordinates no federation.
func MembershipView(snap func() MembershipSnapshot) obs.View {
	return obs.View{
		Path: "/debug/federation",
		Desc: "federation membership: per-member health, probe latency, breaker state, replica placement",
		List: func() any {
			if snap == nil {
				return MembershipSnapshot{}
			}
			return snap()
		},
	}
}
