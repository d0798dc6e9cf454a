// Package snapshot implements the microreboot engine of §3.3: components
// snapshot themselves once booted and initialized, and a restart controller
// rolls them back to that image on a configurable policy: on a timer for
// driver domains, or on request. XenStore-Logic, restarted after every
// request (Figure 5.1), does not use the engine: it counts its own restarts.
//
// The engine separates mechanism from component knowledge: each restartable
// component implements Restartable and performs its own device reinit and
// ring renegotiation inside Restart; the engine drives the schedule, issues
// the hypervisor rollback, and accounts downtime. A host has one engine, the
// Builder's (§3.3 places the restart controller there), and every
// registration goes through the Builder's whitelist check.
package snapshot

import (
	"fmt"

	"xoar/internal/hv"
	"xoar/internal/sim"
	"xoar/internal/telemetry"
	"xoar/internal/xtypes"
)

// PolicyKind selects when a component microreboots.
type PolicyKind uint8

const (
	// PolicyNone disables restarts.
	PolicyNone PolicyKind = iota
	// PolicyTimer restarts at a fixed interval.
	PolicyTimer
	// PolicyPerRequest restarts after every request the component serves;
	// the component calls Engine.RequestRestart itself.
	PolicyPerRequest
)

// Policy configures a component's restart behaviour.
type Policy struct {
	Kind     PolicyKind
	Interval sim.Duration
	// Fast selects the optimized restart path: device hardware state is left
	// intact and negotiated configuration is restored from the recovery box
	// rather than renegotiated via XenStore (Figure 6.3's "fast" mode).
	Fast bool
}

// Driver-shard recovery costs: the one timing model behind NetBack's and
// BlkBack's Restart (Figure 6.3). Every restart re-binds the rolled-back
// image to live device state (interrupts, DMA rings); a fast restart then
// re-installs the negotiated configuration from the recovery box, a slow one
// re-publishes backend state and re-validates every frontend's ring-refs
// over XenStore.
const (
	reattachTime           = 60 * sim.Millisecond
	recoveryBoxRestoreTime = 80 * sim.Millisecond
	renegotiateTime        = 200 * sim.Millisecond
)

// Reconnect charges a driver shard's recovery after rollback: reattach, then
// the recovery box (fast) or full renegotiation (slow).
func Reconnect(p *sim.Proc, fast bool) {
	p.Sleep(reattachTime)
	if fast {
		p.Sleep(recoveryBoxRestoreTime)
	} else {
		p.Sleep(renegotiateTime)
	}
}

// Restartable is a component the engine can microreboot.
type Restartable interface {
	// DomID is the domain the component runs in.
	DomID() xtypes.DomID
	// Name identifies the component in stats and logs.
	Name() string
	// Restart performs the component's rollback-and-recover sequence. The
	// engine has already issued the memory rollback; Restart does device
	// reinit and connection renegotiation and returns when the component is
	// serving again.
	Restart(p *sim.Proc, fast bool)
}

// Stats accumulates restart accounting for one component.
type Stats struct {
	Restarts      int
	TotalDowntime sim.Duration
	LastDowntime  sim.Duration
	//xoarlint:allow(unused) ROADMAP item 17 exports it as the pages restored per microreboot
	PagesRestored int
}

// Engine is the restart controller. It runs with Builder-level privileges
// (it must invoke VMRollback on other domains), which is why the Builder
// owns it and it counts toward the Builder in the trust analysis.
type Engine struct {
	hv     *hv.Hypervisor
	caller xtypes.DomID // domain identity the engine acts as

	entries map[xtypes.DomID]*entry
	tel     *telemetry.Registry
}

// SetMetrics attaches a telemetry registry (nil = disabled).
func (e *Engine) SetMetrics(reg *telemetry.Registry) { e.tel = reg }

type entry struct {
	comp   Restartable
	policy Policy
	stats  Stats
	timer  *sim.Proc
	// restarting guards against overlapping restarts.
	restarting bool
}

// NewEngine returns an engine acting with the identity caller (the Builder
// domain, or hv.SystemCaller in tests).
func NewEngine(h *hv.Hypervisor, caller xtypes.DomID) *Engine {
	return &Engine{hv: h, caller: caller, entries: make(map[xtypes.DomID]*entry)}
}

// Manage registers a component under a policy. With PolicyTimer a timer
// process is spawned immediately.
func (e *Engine) Manage(c Restartable, policy Policy) error {
	if _, ok := e.entries[c.DomID()]; ok {
		return fmt.Errorf("snapshot: %v already managed: %w", c.DomID(), xtypes.ErrExists)
	}
	ent := &entry{comp: c, policy: policy}
	e.entries[c.DomID()] = ent
	if policy.Kind == PolicyTimer {
		ent.timer = e.hv.Env.Spawn("restart-timer-"+c.Name(), func(p *sim.Proc) {
			for {
				p.Sleep(policy.Interval)
				if _, ok := e.entries[c.DomID()]; !ok {
					return
				}
				e.restart(p, ent)
			}
		})
	}
	return nil
}

// Unmanage stops restarting a component.
func (e *Engine) Unmanage(dom xtypes.DomID) {
	ent, ok := e.entries[dom]
	if !ok {
		return
	}
	if ent.timer != nil {
		ent.timer.Kill()
	}
	delete(e.entries, dom)
}

// SetPolicy replaces a component's policy, restarting the timer process.
// The administrator tunes this to trade security for performance (§6.1.2).
func (e *Engine) SetPolicy(dom xtypes.DomID, policy Policy) error {
	ent, ok := e.entries[dom]
	if !ok {
		return fmt.Errorf("snapshot: %v not managed: %w", dom, xtypes.ErrNotFound)
	}
	comp := ent.comp
	e.Unmanage(dom)
	// Preserve accumulated stats across the policy change.
	stats := ent.stats
	if err := e.Manage(comp, policy); err != nil {
		return err
	}
	e.entries[dom].stats = stats
	return nil
}

// RequestRestart triggers an immediate restart from the calling process:
// the hook a component under PolicyPerRequest calls.
func (e *Engine) RequestRestart(p *sim.Proc, dom xtypes.DomID) error {
	ent, ok := e.entries[dom]
	if !ok {
		return fmt.Errorf("snapshot: %v not managed: %w", dom, xtypes.ErrNotFound)
	}
	e.restart(p, ent)
	return nil
}

// restart performs one microreboot cycle: memory rollback, then the
// component's own recovery. Downtime is measured from rollback start to the
// component reporting ready.
func (e *Engine) restart(p *sim.Proc, ent *entry) {
	if ent.restarting {
		return
	}
	ent.restarting = true
	defer func() { ent.restarting = false }()

	start := p.Now()
	dom, err := e.hv.Domain(ent.comp.DomID())
	if err != nil {
		return
	}
	restored, err := e.Rollback(p, dom)
	if err != nil {
		e.tel.Counter("restart_errors_total", telemetry.L("comp", ent.comp.Name())).Inc()
		return
	}
	ent.comp.Restart(p, ent.policy.Fast)
	ent.stats.Restarts++
	ent.stats.PagesRestored += restored
	ent.stats.LastDowntime = p.Now().Sub(start)
	ent.stats.TotalDowntime += ent.stats.LastDowntime
	e.tel.Histogram("restart_downtime_ms", telemetry.LatencyMSBuckets,
		telemetry.L("comp", ent.comp.Name())).Observe(ent.stats.LastDowntime.Milliseconds())
}

// Rollback restores d to its snapshot: the memory half of a microreboot,
// shared by the restart cycle and the Builder's one-shot rollback. The
// hypervisor audits the call against the engine's identity; the calling
// process then pays the restore time, proportional to the dirty page set at
// copy-on-write restore speed (~1µs per 4K page: a memcpy at memory
// bandwidth).
func (e *Engine) Rollback(p *sim.Proc, d *hv.Domain) (int, error) {
	dirty := d.Mem.DirtyPages()
	restored, err := e.hv.VMRollback(e.caller, d.ID)
	if err != nil {
		return 0, err
	}
	p.Sleep(sim.Duration(dirty+1) * sim.Microsecond)
	return restored, nil
}

// Stats reports a component's accumulated restart accounting.
func (e *Engine) Stats(dom xtypes.DomID) (Stats, bool) {
	ent, ok := e.entries[dom]
	if !ok {
		return Stats{}, false
	}
	return ent.stats, true
}

// Managed lists the domains under restart management.
func (e *Engine) Managed() []xtypes.DomID {
	out := make([]xtypes.DomID, 0, len(e.entries))
	for d := range e.entries {
		out = append(out, d)
	}
	return out
}
