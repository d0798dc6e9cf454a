package cluster

import (
	"xoar/internal/sim"
	"xoar/internal/snapshot"
	"xoar/internal/xtypes"
)

// StormConfig tunes coordinated fleet-wide driver microreboots.
type StormConfig struct {
	// Interval is each backend's restart period. Default 10s (the paper's
	// §6.1.3 refresh cadence is configurable down to seconds).
	Interval sim.Duration
	// MaxDownFraction caps the fraction of the fleet's netback/blkback
	// shards allowed to be mid-restart at once. The guard always permits at
	// least one restart so a tiny fleet still refreshes. Default 0.25.
	MaxDownFraction float64
	// Fast selects copy-on-write rollback instead of full reboot.
	Fast bool
}

// StormGuard coordinates per-host shard microreboots so a fleet-wide restart
// storm degrades I/O capacity gradually instead of all at once. Every backend
// restarts on its own staggered period, but must hold one of a fixed pool of
// restart slots while down; the pool is sized from MaxDownFraction.
type StormGuard struct {
	cluster *Cluster
	slots   *sim.Resource

	// Slots is the concurrent-restart cap the guard enforces.
	Slots int
	// Backends is the number of shards under management fleet-wide.
	Backends int

	// Restarts counts completed microreboots.
	Restarts int
	// inflight tracks restarts currently holding a slot; MaxInflight is its
	// high-water mark, which tests pin against Slots.
	inflight    int
	MaxInflight int

	procs []*sim.Proc
}

// backendRef is one shard under storm management.
type backendRef struct {
	host *Host
	dom  xtypes.DomID
}

// StartMicroreboots places every netback and blkback on every host under
// per-request restart management through its Builder, and spawns one
// staggered restart loop per accepted shard. Stagger offsets divide the
// interval evenly across the fleet in (host, shard) order, so with an honest
// guard the load is already smeared; the slot pool is what keeps correlated
// slips (every host rebooting after a fleet-wide config push) from stacking.
func (c *Cluster) StartMicroreboots(cfg StormConfig) *StormGuard {
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * sim.Second
	}
	if cfg.MaxDownFraction <= 0 {
		cfg.MaxDownFraction = 0.25
	}

	var backends []backendRef
	for _, h := range c.Hosts {
		pol := snapshot.Policy{Kind: snapshot.PolicyPerRequest, Fast: cfg.Fast}
		for _, nb := range h.PL.NetBacks {
			if h.PL.Builder.SetRestartPolicy(nb, pol) == nil {
				backends = append(backends, backendRef{host: h, dom: nb.Dom})
			}
		}
		for _, bb := range h.PL.BlkBacks {
			if h.PL.Builder.SetRestartPolicy(bb, pol) == nil {
				backends = append(backends, backendRef{host: h, dom: bb.Dom})
			}
		}
	}
	slots := int(cfg.MaxDownFraction * float64(len(backends)))
	if slots < 1 {
		slots = 1
	}
	g := &StormGuard{
		cluster:  c,
		slots:    sim.NewResource(c.Env, slots),
		Slots:    slots,
		Backends: len(backends),
	}
	for i, b := range backends {
		b := b
		offset := sim.Duration(int64(cfg.Interval) * int64(i) / int64(len(backends)))
		proc := c.Env.Spawn("storm-"+b.host.Name+"-"+b.dom.String(), func(p *sim.Proc) {
			p.Sleep(offset)
			for {
				g.slots.Acquire(p)
				g.inflight++
				if g.inflight > g.MaxInflight {
					g.MaxInflight = g.inflight
				}
				err := b.host.PL.Engine.RequestRestart(p, b.dom)
				g.inflight--
				g.slots.Release()
				if err == nil {
					g.Restarts++
				}
				p.Sleep(cfg.Interval)
			}
		})
		g.procs = append(g.procs, proc)
	}
	return g
}

// Stop kills the restart loops; in-flight restarts finish via the engine.
func (g *StormGuard) Stop() {
	for _, p := range g.procs {
		p.Kill()
	}
	g.procs = nil
}
