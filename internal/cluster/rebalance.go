package cluster

import (
	"xoar/internal/migrate"
	"xoar/internal/sim"
)

// RebalanceOnce scans the fleet and, if the fullest and emptiest hosts differ
// by at least minGapMB of free memory, live-migrates one guest from the hot
// host to the cold one. It reports whether a migration was attempted.
//
// Victim selection is the lowest DomID on the hot host that fits the cold
// host — deterministic, and biased toward long-lived guests (low IDs), which
// amortize the migration cost over more remaining lifetime.
func (c *Cluster) RebalanceOnce(p *sim.Proc, minGapMB int) (bool, error) {
	if minGapMB <= 0 {
		minGapMB = 512
	}
	hot, cold := -1, -1
	for i, h := range c.Hosts {
		if hot < 0 || h.FreeMB() < c.Hosts[hot].FreeMB() {
			hot = i
		}
		if cold < 0 || h.FreeMB() > c.Hosts[cold].FreeMB() {
			cold = i
		}
	}
	if hot == cold || c.Hosts[cold].FreeMB()-c.Hosts[hot].FreeMB() < minGapMB {
		return false, nil
	}
	src, dst := c.Hosts[hot], c.Hosts[cold]
	var victim *Guest
	for id, g := range src.guests {
		if g.migrating || g.gone || g.MemMB > dst.FreeMB() {
			continue
		}
		if victim == nil || id < victim.Dom {
			victim = g
		}
	}
	if victim == nil {
		return false, nil
	}
	return true, c.migrateGuest(p, victim, dst)
}

// migrateGuest moves g to dst through the source toolstack's MigrateTo,
// over the default management link (migrate.DefaultLink).
// The guest record is updated in place so the caller's destroy closure
// follows the guest to its new host.
func (c *Cluster) migrateGuest(p *sim.Proc, g *Guest, dst *Host) error {
	src := g.host
	g.migrating = true
	dst.committedMB += g.MemMB // reserve before the pre-copy starts
	defer func() {
		g.migrating = false
		c.migDone.Broadcast()
	}()

	srcTS := src.PL.Toolstacks[0]
	rec, _, err := srcTS.MigrateTo(p, g.Dom, dst.PL.Toolstacks[0], migrate.DefaultLink())
	if srcTS.Manages(g.Dom) { // the pre-copy failed; the guest never left
		dst.committedMB -= g.MemMB
		return err
	}
	delete(src.guests, g.Dom)
	src.committedMB -= g.MemMB
	if err != nil {
		return err // the hand-off failed after the guest left
	}
	g.Dom = rec.Dom
	g.host = dst
	dst.guests[rec.Dom] = g
	c.Migrations++
	return nil
}
