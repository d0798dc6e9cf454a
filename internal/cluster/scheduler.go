package cluster

// Load is one host's state as presented to a placement policy. Hosts appear
// in index order, so any policy that breaks ties by slice position is
// deterministic for free.
type Load struct {
	// FreeMB is uncommitted schedulable memory.
	FreeMB int
	// Guests is the number of guests currently placed.
	Guests int
}

// Policy chooses a host for an incoming guest.
type Policy interface {
	// Choose returns the index of the host to place a memMB guest on, or -1
	// when no host fits. Implementations must be pure functions of their
	// arguments: placement is on the simulation's hot path and replay
	// determinism depends on it.
	Choose(loads []Load, memMB int) int
}

// BinPack fills the fullest feasible host first, concentrating load so whole
// hosts stay empty (the policy an operator uses to power down spare
// capacity). Ties break toward the lowest index.
type BinPack struct{}

// Choose implements Policy.
func (BinPack) Choose(loads []Load, memMB int) int {
	best := -1
	for i, l := range loads {
		if l.FreeMB < memMB {
			continue
		}
		if best < 0 || l.FreeMB < loads[best].FreeMB {
			best = i
		}
	}
	return best
}

// Spread places on the emptiest host, balancing load so every guest sees the
// least-contended Builder queue (the policy that minimizes cold-start tails).
// Ties break toward the lowest index.
type Spread struct{}

// Choose implements Policy.
func (Spread) Choose(loads []Load, memMB int) int {
	best := -1
	for i, l := range loads {
		if l.FreeMB < memMB {
			continue
		}
		if best < 0 || l.FreeMB > loads[best].FreeMB {
			best = i
		}
	}
	return best
}
