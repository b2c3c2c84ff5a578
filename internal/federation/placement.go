package federation

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Placement is the federation's replica map: which members hold each
// replicated data unit. A unit is whatever the deployment shards by — a
// whole dataset name ("ENCODE") or a named shard of one ("ENCODE@chr1") —
// and registering it on R members declares that a query leg for it may be
// served by any one of them, because each holds the same samples.
//
// Declared at Federator construction, the placement decides the query's leg
// structure: units with identical member sets collapse into one replica
// group, and the coordinator runs one leg per group, failing over (and
// hedging) within the group. A nil Placement means one singleton group per
// member: every leg is one member's own samples, with nobody to fail over
// to. All methods are safe on a nil Placement.
//
// Placement is immutable after construction-time Register calls; reads
// during queries need no locking.
type Placement struct {
	units map[string][]int // unit -> ascending member indices
	order []string         // units in first-registration order
}

// NewPlacement returns an empty replica map.
func NewPlacement() *Placement {
	return &Placement{units: make(map[string][]int)}
}

// Register places one data unit on the given member indices (into
// Federator.Clients). Registering the same unit again replaces its member
// set. Duplicate indices collapse; order does not matter. Returns the
// placement for chaining.
func (p *Placement) Register(unit string, members ...int) *Placement {
	set := make(map[int]bool, len(members))
	for _, m := range members {
		set[m] = true
	}
	ms := make([]int, 0, len(set))
	for m := range set {
		ms = append(ms, m)
	}
	sort.Ints(ms)
	if _, seen := p.units[unit]; !seen {
		p.order = append(p.order, unit)
	}
	p.units[unit] = ms
	return p
}

// Members reports the member indices holding a unit (nil when unknown).
func (p *Placement) Members(unit string) []int {
	if p == nil {
		return nil
	}
	return append([]int(nil), p.units[unit]...)
}

// Replicas reports a unit's replication factor (0 when unknown).
func (p *Placement) Replicas(unit string) int {
	if p == nil {
		return 0
	}
	return len(p.units[unit])
}

// Units lists the registered units in registration order.
func (p *Placement) Units() []string {
	if p == nil {
		return nil
	}
	return append([]string(nil), p.order...)
}

// Validate checks every registered member index against the federation size.
func (p *Placement) Validate(members int) error {
	if p == nil {
		return nil
	}
	for _, unit := range p.order {
		ms := p.units[unit]
		if len(ms) == 0 {
			return fmt.Errorf("federation: placement: unit %q has no members", unit)
		}
		for _, m := range ms {
			if m < 0 || m >= members {
				return fmt.Errorf("federation: placement: unit %q names member %d of a %d-member federation", unit, m, members)
			}
		}
	}
	return nil
}

// memberSetKey canonically names a member set ("0,2").
func memberSetKey(ms []int) string {
	var b strings.Builder
	for i, m := range ms {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(m))
	}
	return b.String()
}

// ReplicaGroup is one leg of a replicated federated query: the units that
// live on exactly this member set, servable by any one member of it.
type ReplicaGroup struct {
	// Key canonically names the member set ("0,2").
	Key string
	// Units lists the data units placed on this member set, in registration
	// order.
	Units []string
	// Members are the replica member indices, ascending.
	Members []int
}

// Groups derives the query legs: units with identical member sets collapse
// into one group, in first-registration order. Overlapping member sets
// across groups are legal — a member serving two groups returns its full
// local answer for each, and the merge collapses a sample ID repeated
// between groups that share a member, which keeps the union exact. A nil
// Placement has no groups; the Federator synthesises its singleton legs.
func (p *Placement) Groups() []ReplicaGroup {
	if p == nil {
		return nil
	}
	byKey := make(map[string]int)
	var out []ReplicaGroup
	for _, unit := range p.order {
		ms := p.units[unit]
		key := memberSetKey(ms)
		i, seen := byKey[key]
		if !seen {
			i = len(out)
			byKey[key] = i
			out = append(out, ReplicaGroup{Key: key, Members: append([]int(nil), ms...)})
		}
		out[i].Units = append(out[i].Units, unit)
	}
	return out
}
