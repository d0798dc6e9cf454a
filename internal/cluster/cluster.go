// Package cluster runs a fleet of simulated Xoar hosts — each its own
// hw.Machine and hv.Hypervisor booted through the standard profile — inside
// one deterministic sim.Env, under a cluster scheduler.
//
// The paper's security argument (§2.3 blast radius, §5 microreboot exposure
// windows) is made per host; this layer is where it becomes
// production-relevant: guest specs are placed across hosts by a pluggable
// policy, hot hosts shed load through live migration over a modeled
// management network (reusing internal/migrate), and per-host shard
// microreboots are coordinated fleet-wide so restart storms never take down
// more than a configured fraction of netback/blkback capacity at once.
//
// Determinism model: all hosts share one virtual clock and one seeded random
// source. Hosts boot sequentially; every scheduler decision iterates hosts in
// index order; workload randomness is drawn in arrival order from the shared
// env. Same seed, same config — bit-identical fleet metrics.
package cluster

import (
	"fmt"

	"xoar/internal/boot"
	"xoar/internal/hv"
	"xoar/internal/hw"
	"xoar/internal/migrate"
	"xoar/internal/osimage"
	"xoar/internal/sim"
	"xoar/internal/telemetry"
	"xoar/internal/toolstack"
	"xoar/internal/xtypes"
)

// Config sizes and parameterizes a fleet.
type Config struct {
	// Hosts is the number of simulated machines (>= 1).
	Hosts int
	// Seed seeds the shared simulation environment.
	Seed int64
	// Machine configures each host's hardware; the zero value uses the
	// default testbed machine.
	Machine hw.MachineConfig
	// Policy places incoming guests; nil defaults to Spread.
	Policy Policy
	// Link models the inter-host management network migrations ride on; the
	// zero value uses migrate.DefaultLink (dedicated GigE).
	Link migrate.Link
	// Fleet, when non-nil, gives every host its own telemetry registry
	// (merged with host labels at export) plus a "cluster" registry for
	// scheduler-level metrics.
	Fleet *telemetry.Fleet
	// GuestQuota is each host toolstack's MaxVMs; 0 defaults to 1024, far
	// above the per-host residency a churn workload reaches.
	GuestQuota int
	// HeadroomMB is per-host memory the scheduler refuses to commit,
	// covering transient build-time allocations. Default 64.
	HeadroomMB int
}

// Host is one machine of the fleet.
type Host struct {
	Index int
	Name  string
	HV    *hv.Hypervisor
	PL    *boot.Platform

	// capacityMB is the schedulable guest memory, fixed after boot.
	capacityMB int
	// committedMB is capacity the scheduler has promised to placed guests,
	// maintained from placement to destroy (creation lag included, so two
	// placements cannot race past the same free page).
	committedMB int
	// Placed counts every guest ever placed here — the cumulative counter
	// placement-quality metrics compare across hosts.
	Placed int

	guests map[xtypes.DomID]*Guest
}

// FreeMB is the scheduler's view of placeable memory on this host.
func (h *Host) FreeMB() int { return h.capacityMB - h.committedMB }

// GuestCount reports the guests currently placed on this host.
func (h *Host) GuestCount() int { return len(h.guests) }

// Guest is the cluster's record of one placed guest.
type Guest struct {
	Name  string
	Dom   xtypes.DomID
	MemMB int

	host      *Host
	migrating bool
	gone      bool
}

// Cluster is a fleet of hosts under one scheduler.
type Cluster struct {
	Env   *sim.Env
	Hosts []*Host

	cfg     Config
	policy  Policy
	link    migrate.Link
	m       *telemetry.Registry // cluster-level scheduler metrics
	migDone *sim.Signal         // broadcast after each migration completes

	// Scheduler counters, all deterministic.
	Placements        int
	PlacementFailures int
	Migrations        int
	MigrationFailures int
}

// New boots a fleet. Hosts come up sequentially on the shared clock — fleet
// bring-up is not the benchmark — with the console omitted, as in the
// paper's hosting configuration (§6.1.1).
func New(cfg Config) (*Cluster, error) {
	if cfg.Hosts < 1 {
		return nil, fmt.Errorf("cluster: need at least one host: %w", xtypes.ErrInvalid)
	}
	if cfg.Policy == nil {
		cfg.Policy = Spread{}
	}
	if cfg.Link == (migrate.Link{}) {
		cfg.Link = migrate.DefaultLink()
	}
	if cfg.GuestQuota <= 0 {
		cfg.GuestQuota = 1024
	}
	if cfg.HeadroomMB <= 0 {
		cfg.HeadroomMB = 64
	}
	env := sim.NewEnv(cfg.Seed)
	c := &Cluster{
		Env:     env,
		cfg:     cfg,
		policy:  cfg.Policy,
		link:    cfg.Link,
		m:       cfg.Fleet.Host("cluster"),
		migDone: sim.NewSignal(env),
	}
	for i := 0; i < cfg.Hosts; i++ {
		name := fmt.Sprintf("host-%d", i)
		h := hv.New(env, hw.NewMachineWith(env, cfg.Machine))
		pl, err := boot.Run(h, false, boot.Options{
			Toolstacks: 1,
			NoConsole:  true,
			Telemetry:  cfg.Fleet.Host(name),
			GuestQuota: cfg.GuestQuota,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: %s: %w", name, err)
		}
		host := &Host{Index: i, Name: name, HV: h, PL: pl, guests: make(map[xtypes.DomID]*Guest)}
		host.capacityMB = h.MM.FreeMB() - cfg.HeadroomMB
		c.Hosts = append(c.Hosts, host)
	}
	return c, nil
}

// place runs the policy over current loads and commits memory on the chosen
// host. Hosts are presented in index order, so ties break deterministically.
func (c *Cluster) place(memMB int) *Host {
	loads := make([]Load, len(c.Hosts))
	for i, h := range c.Hosts {
		loads[i] = Load{FreeMB: h.FreeMB(), Guests: h.GuestCount()}
	}
	i := c.policy.Choose(loads, memMB)
	if i < 0 || i >= len(c.Hosts) {
		return nil
	}
	h := c.Hosts[i]
	if h.FreeMB() < memMB {
		return nil // policy bug; refuse to over-commit
	}
	h.committedMB += memMB
	return h
}

// Launch places and boots one micro guest, returning a destroy function. The
// signature is what workload generators consume: cold-start latency is the
// caller's submit-to-return interval, which spans placement, the Builder's
// queue and construct phases, and the image's boot.
func (c *Cluster) Launch(p *sim.Proc, name string, memMB int) (destroy func(*sim.Proc) error, err error) {
	if memMB <= 0 {
		memMB = 64
	}
	host := c.place(memMB)
	if host == nil {
		c.PlacementFailures++
		c.m.Counter("cluster_placement_failures_total").Inc()
		return nil, fmt.Errorf("cluster: no host fits %dMB guest %q: %w", memMB, name, xtypes.ErrNoMem)
	}
	ts := host.PL.Toolstacks[0]
	rec, cerr := ts.CreateVM(p, toolstack.GuestConfig{
		Name: name, Image: osimage.ImgGuestMicro, MemMB: memMB,
	})
	if cerr != nil {
		host.committedMB -= memMB
		c.PlacementFailures++
		c.m.Counter("cluster_placement_failures_total").Inc()
		return nil, cerr
	}
	g := &Guest{Name: name, Dom: rec.Dom, MemMB: memMB, host: host}
	host.guests[g.Dom] = g
	host.Placed++
	c.Placements++
	c.m.Counter("cluster_placements_total", telemetry.L("policy", c.policy.Name())).Inc()
	return func(p *sim.Proc) error { return c.destroy(p, g) }, nil
}

// destroy tears the guest down on whichever host currently runs it, waiting
// out an in-flight migration first (the guest's identity moves mid-flight).
func (c *Cluster) destroy(p *sim.Proc, g *Guest) error {
	for g.migrating {
		c.migDone.Wait(p)
	}
	if g.gone {
		return nil
	}
	g.gone = true
	host := g.host
	err := host.PL.Toolstacks[0].DestroyVM(p, g.Dom)
	delete(host.guests, g.Dom)
	host.committedMB -= g.MemMB
	return err
}
