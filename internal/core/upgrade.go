package core

import (
	"fmt"

	"xoar/internal/netdrv"
	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

// UpgradeNetBack performs an in-place driver upgrade (§6.2): the Builder
// rebuilds the NetBack shard from its recorded boot request — the new
// driver release, on the same NIC and with the same manifest grants — and
// every guest's vif is renegotiated against the new backend. Guests observe
// a disconnect/reconnect, the same recovery path microreboots exercise;
// nothing else on the host is disturbed. Any restart policy on the old shard
// goes with it. Returns the new shard's domain ID.
//
// This is the scenario the paper contrasts with a monolithic control VM,
// where "buggy, outdated and vulnerable device drivers often continue to be
// used because of the downtime and costs associated with upgrading a single
// driver".
func (pl *Platform) UpgradeNetBack(index int) (xtypes.DomID, error) {
	if pl.Profile == MonolithicDom0 {
		return xtypes.DomIDNone, fmt.Errorf("core: driver upgrade needs the shard architecture: %w", xtypes.ErrInvalid)
	}
	if index < 0 || index >= len(pl.Boot.NetBacks) {
		return xtypes.DomIDNone, fmt.Errorf("core: netback %d: %w", index, xtypes.ErrNotFound)
	}
	old := pl.Boot.NetBacks[index]

	// Collect the guests currently wired to this backend so we can
	// reattach them afterwards.
	var clients []*Guest
	for _, g := range pl.guests {
		if g.rec.NetB == old {
			clients = append(clients, g)
		}
	}

	var newDom xtypes.DomID
	var err error
	if !pl.Env.Await("upgrade-netback", 120*sim.Second, func(p *sim.Proc) {
		// Tear the old shard down: vifs break, the NIC is released. The old
		// shard may already be dead — the crash-recovery case; Rebuild then
		// only builds.
		for _, g := range clients {
			old.RemoveVif(g.Dom)
		}
		if newDom, err = pl.Boot.Builder.Rebuild(p, old.Dom); err != nil {
			return
		}
		nb := netdrv.NewBackend(pl.HV, newDom, old.NIC, pl.Boot.XenStoreLogic.Connect(newDom, false))
		nb.Start(p) // NIC hardware stays initialized: this is quick
		pl.Boot.NetBacks[index] = nb

		// Every toolstack that held the old shard gets the new one; their
		// clients relink and reconnect.
		for _, ts := range pl.Boot.Toolstacks {
			for i, b := range ts.NetBacks {
				if b == old {
					ts.NetBacks[i] = nb
				}
			}
		}
		for _, g := range clients {
			ts := pl.Boot.Toolstacks[0]
			for _, cand := range pl.Boot.Toolstacks {
				if cand.Manages(g.Dom) {
					ts = cand
					break
				}
			}
			if err = pl.HV.Delegate(pl.Boot.BuilderDom, newDom, ts.Dom); err != nil {
				return
			}
			if err = pl.HV.LinkShardClient(ts.Dom, newDom, g.Dom); err != nil {
				return
			}
			nb.CreateVif(g.Dom)
			g.rec.NetB = nb
			g.VM.NetB = nb
			fe := netdrv.NewFrontend(pl.HV, g.Dom, pl.Boot.XenStoreLogic.Connect(g.Dom, false))
			if err = fe.Connect(p, nb); err != nil {
				return
			}
			g.rec.Net = fe
			g.VM.Net = fe
		}
	}) {
		return xtypes.DomIDNone, fmt.Errorf("core: upgrade did not complete")
	}
	if err != nil {
		return xtypes.DomIDNone, err
	}
	return newDom, nil
}
