package core

import (
	"fmt"

	"xoar/internal/migrate"
	"xoar/internal/sim"
	"xoar/internal/toolstack"
	"xoar/internal/workload"
	"xoar/internal/xtypes"
)

// MigrationResult reports a completed live migration.
type MigrationResult struct {
	// Guest is the adopted guest record on the destination platform.
	Guest *Guest
	// Stats are the pre-copy metrics (rounds, downtime, totals).
	Stats migrate.Result
}

// MigrateGuest live-migrates g to the destination platform, which must share
// this platform's virtual clock (boot both through NewCluster). The source
// toolstack orchestrates the pre-copy — the hypervisor audits its
// foreign-mapping rights over exactly this guest — and the destination's
// Builder constructs the receiving domain. Afterwards the destination
// toolstack adopts the guest and re-wires its devices through its own driver
// shards, exactly as Xen re-attaches vifs and vbds after a migration.
func (pl *Platform) MigrateGuest(g *Guest, dst *Platform) (*MigrationResult, error) {
	if pl.Env != dst.Env {
		return nil, fmt.Errorf("core: migrate across unrelated simulations (use NewCluster): %w", xtypes.ErrInvalid)
	}
	if _, ok := pl.guests[g.Dom]; !ok {
		return nil, fmt.Errorf("core: %v not managed here: %w", g.Dom, xtypes.ErrNotFound)
	}
	srcTS := pl.Boot.Toolstacks[0]
	var rec *toolstack.Guest
	var res MigrationResult
	var err error
	if !pl.Env.Await("migrate-"+g.Name, 600*sim.Second, func(p *sim.Proc) {
		rec, res.Stats, err = srcTS.MigrateTo(p, g.Dom, dst.Boot.Toolstacks[0], migrate.DefaultLink())
	}) {
		return nil, fmt.Errorf("core: migration did not complete")
	}
	if _, gone := pl.HV.Domain(g.Dom); gone != nil {
		delete(pl.guests, g.Dom) // it left, even if the hand-off then failed
	}
	if err != nil {
		return nil, err
	}
	res.Guest = &Guest{Name: g.Name, Dom: rec.Dom, VM: workload.VMOf(dst.HV, rec), rec: rec, pl: dst}
	dst.guests[rec.Dom] = res.Guest
	return &res, nil
}
