// Package cluster runs a fleet of simulated Xoar hosts — each its own
// hw.Machine and hv.Hypervisor booted through the standard profile — inside
// one deterministic sim.Env, under a cluster scheduler.
//
// The paper's security argument (§2.3 blast radius, §5 microreboot exposure
// windows) is made per host; this layer is where it becomes
// production-relevant: guest specs are placed across hosts by a pluggable
// policy, and hot hosts shed load through live migration over a modeled
// management network (reusing internal/migrate).
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
	"xoar/internal/osimage"
	"xoar/internal/sim"
	"xoar/internal/toolstack"
	"xoar/internal/xtypes"
)

// Config sizes and parameterizes a fleet.
type Config struct {
	// Hosts is the number of simulated machines (>= 1).
	Hosts int
	// Seed seeds the shared simulation environment.
	Seed int64
	// Policy places incoming guests; nil defaults to Spread.
	Policy Policy
}

// Every host is the default testbed machine, booted with these limits.
const (
	// guestQuota is each host toolstack's MaxVMs, far above the per-host
	// residency a churn workload reaches.
	guestQuota = 1024
	// headroomMB is per-host memory the scheduler refuses to commit,
	// covering transient build-time allocations.
	headroomMB = 64
)

// Host is one machine of the fleet.
type Host struct {
	Name string
	HV   *hv.Hypervisor
	PL   *boot.Platform

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

// Guest is the cluster's record of one placed guest.
type Guest struct {
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

	policy  Policy
	migDone *sim.Signal // broadcast after each migration completes

	// Scheduler counters, all deterministic.
	Placements int
	Migrations int
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
	env := sim.NewEnv(cfg.Seed)
	c := &Cluster{
		Env:     env,
		policy:  cfg.Policy,
		migDone: sim.NewSignal(env),
	}
	for i := 0; i < cfg.Hosts; i++ {
		name := fmt.Sprintf("host-%d", i)
		h := hv.New(env, hw.NewMachine(env))
		pl, err := boot.Run(h, false, boot.Options{
			Toolstacks: 1,
			NoConsole:  true,
			GuestQuota: guestQuota,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: %s: %w", name, err)
		}
		host := &Host{Name: name, HV: h, PL: pl, guests: make(map[xtypes.DomID]*Guest)}
		host.capacityMB = h.MM.FreeMB() - headroomMB
		c.Hosts = append(c.Hosts, host)
	}
	return c, nil
}

// place runs the policy over current loads and commits memory on the chosen
// host. Hosts are presented in index order, so ties break deterministically.
func (c *Cluster) place(memMB int) *Host {
	loads := make([]Load, len(c.Hosts))
	for i, h := range c.Hosts {
		loads[i] = Load{FreeMB: h.FreeMB()}
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
		return nil, fmt.Errorf("cluster: no host fits %dMB guest %q: %w", memMB, name, xtypes.ErrNoMem)
	}
	ts := host.PL.Toolstacks[0]
	rec, cerr := ts.CreateVM(p, toolstack.GuestConfig{
		Name: name, Image: osimage.ImgGuestMicro, MemMB: memMB,
	})
	if cerr != nil {
		host.committedMB -= memMB
		return nil, cerr
	}
	g := &Guest{Dom: rec.Dom, MemMB: memMB, host: host}
	host.guests[g.Dom] = g
	host.Placed++
	c.Placements++
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
