package cache

import (
	"fmt"

	"repro/internal/sim"
)

// Policy is an eviction policy. The Cache owns residency (its page
// table); the policy owns ordering. Invariant: the set of pages the
// policy tracks as resident equals the cache's resident set.
//
// OnMiss exists so adaptive policies (ARC, 2Q) can learn from ghost
// hits; simple policies ignore it.
type Policy interface {
	// Name identifies the policy in reports ("lru", "arc", ...).
	Name() string
	// SetCapacity informs the policy of the cache size in pages.
	SetCapacity(pages int)
	// OnAccess records a hit on a resident page.
	OnAccess(id PageID)
	// OnInsert records a newly resident page.
	OnInsert(id PageID)
	// OnRemove records an explicit removal (invalidate).
	OnRemove(id PageID)
	// OnMiss records a lookup miss (before any insert).
	OnMiss(id PageID)
	// Victim selects a resident page to evict and forgets it. It
	// returns false only if the policy tracks no pages.
	Victim() (PageID, bool)
}

// NewPolicy constructs a policy by name: "lru", "fifo", "clock",
// "random", "2q", "arc". The rng is only used by "random" (pass nil
// otherwise, or always — unused is fine).
func NewPolicy(name string, rng *sim.RNG) (Policy, error) {
	switch name {
	case "lru", "":
		return NewLRU(), nil
	case "fifo":
		return NewFIFO(), nil
	case "clock":
		return NewClock(), nil
	case "random":
		if rng == nil {
			rng = sim.NewRNG(0)
		}
		return NewRandom(rng), nil
	case "2q":
		return NewTwoQ(), nil
	case "arc":
		return NewARC(), nil
	default:
		return nil, fmt.Errorf("cache: unknown policy %q", name)
	}
}

// PolicyNames lists the available eviction policies (for sweeps).
func PolicyNames() []string {
	return []string{"lru", "fifo", "clock", "random", "2q", "arc"}
}
