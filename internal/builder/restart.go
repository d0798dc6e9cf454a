// Shard administration: the Builder hosts the host's one microreboot engine
// (§3.3). Driver shards are delegated to it at boot; from then on it may put
// them under a restart policy, roll them back to their boot-time snapshot
// or, when the domain is gone entirely, rebuild them from the recorded
// request.

package builder

import (
	"errors"
	"fmt"

	"xoar/internal/sim"
	"xoar/internal/snapshot"
	"xoar/internal/telemetry"
	"xoar/internal/xtypes"
)

// Administers reports whether the Builder may administer dom: it parents
// the domain, or admin rights over it were delegated to the Builder.
func (b *Builder) Administers(dom xtypes.DomID) bool {
	d, err := b.hv.Domain(dom)
	if err != nil {
		return false
	}
	if d.ParentTool() == b.dom {
		return true
	}
	for _, g := range d.Delegates() {
		if g == b.dom {
			return true
		}
	}
	return false
}

// holds reports whether the Builder's own hypercall whitelist includes hc.
// The engine honors the same Figure 3.1 assignments as everything else: a
// Builder booted without HyperSetRestartPolicy cannot install policies.
func (b *Builder) holds(hc xtypes.Hypercall) bool {
	d, err := b.hv.Domain(b.dom)
	if err != nil {
		return false
	}
	pr := d.Priv()
	return pr.ControlAll || pr.Hypercalls[hc]
}

// SetRestartPolicy places a delegated shard under the Builder's microreboot
// engine, updates its policy if already managed, or with PolicyNone releases
// it (and its accounting). It is the only way onto the engine, so every
// policy change is checked against the Builder's HyperSetRestartPolicy
// whitelist and its standing over the shard.
func (b *Builder) SetRestartPolicy(comp snapshot.Restartable, pol snapshot.Policy) error {
	dom := comp.DomID()
	if !b.holds(xtypes.HyperSetRestartPolicy) {
		b.Denied++
		return fmt.Errorf("builder: set_restart_policy not whitelisted for %v: %w", b.dom, xtypes.ErrPerm)
	}
	if !b.Administers(dom) {
		b.Denied++
		return fmt.Errorf("builder: shard %v not delegated to the Builder: %w", dom, xtypes.ErrPerm)
	}
	if pol.Kind == snapshot.PolicyNone {
		b.eng.Unmanage(dom)
		return nil
	}
	if _, ok := b.eng.Stats(dom); ok {
		return b.eng.SetPolicy(dom, pol)
	}
	return b.eng.Manage(comp, pol)
}

// RestartStats reports the engine's accounting for a managed shard.
func (b *Builder) RestartStats(dom xtypes.DomID) (snapshot.Stats, bool) {
	return b.eng.Stats(dom)
}

// Engine returns the host's microreboot engine, for reading its accounting
// and requesting immediate restarts of managed shards. Shards get onto it
// only through SetRestartPolicy.
func (b *Builder) Engine() *snapshot.Engine { return b.eng }

// shardClass names the shard for restart-metric labels: the live domain's
// name, the recorded request's name when the domain is already gone, or
// "unknown". Class names are a small fixed set, so label cardinality stays
// bounded (DESIGN.md §8) even though restarts target specific domains.
func (b *Builder) shardClass(dom xtypes.DomID) string {
	if d, err := b.hv.Domain(dom); err == nil && d.Name != "" {
		return d.Name
	}
	if req, ok := b.records[dom]; ok && req.Name != "" {
		return req.Name
	}
	return "unknown"
}

// observeRestart records one restart-path duration under the shard's class.
// It takes the handle rather than a name: metric names stay literal at the
// call sites so the series set is reviewable there (DESIGN.md §8).
func (b *Builder) observeRestart(h *telemetry.Histogram, d sim.Duration) {
	h.Observe(d.Milliseconds())
}

// Rollback rolls a shard back to its snapshot. The hypervisor audits the
// call against the Builder's HyperVMRollback whitelist and its standing
// over the target; restore time is proportional to the dirty page set.
func (b *Builder) Rollback(p *sim.Proc, dom xtypes.DomID) (int, error) {
	if b.Monolithic {
		return 0, fmt.Errorf("builder: rollback of %v: %w", dom, xtypes.ErrNoMicroreboot)
	}
	start := p.Now()
	class := b.shardClass(dom)
	d, err := b.hv.Domain(dom)
	if err != nil {
		return 0, err
	}
	restored, err := b.eng.Rollback(p, d)
	if err != nil {
		return 0, err
	}
	b.observeRestart(b.tel.Histogram("restart_rollback_ms", telemetry.LatencyMSBuckets, telemetry.L("class", class)), p.Now().Sub(start))
	return restored, nil
}

// Rebuild replaces a shard with a fresh build of its recorded request —
// the recovery path when the domain is dead or its snapshot unusable, and
// the mechanism behind in-place driver upgrades. The replacement is built
// through the queue like every other domain, so it waits for the job being
// served; it is the Builder's own ward (it becomes the parent) and is
// re-snapshotted so it can microreboot in turn. Only shard builds are
// recorded: for a guest, a device-model stub or a domain the Builder did
// not build, Rebuild returns ErrNotFound and builds nothing. Like Submit,
// Rebuild must not be called from the serve loop.
func (b *Builder) Rebuild(p *sim.Proc, dom xtypes.DomID) (xtypes.DomID, error) {
	if b.Monolithic {
		return xtypes.DomIDNone, fmt.Errorf("builder: rebuild of %v: %w", dom, xtypes.ErrNoMicroreboot)
	}
	start := p.Now()
	rec, ok := b.records[dom]
	if !ok {
		return xtypes.DomIDNone, fmt.Errorf("builder: no build record for %v: %w", dom, xtypes.ErrNotFound)
	}
	class := b.shardClass(dom)
	if err := b.hv.DestroyDomain(b.dom, dom, "builder: rebuild"); err != nil && !errors.Is(err, xtypes.ErrNoDomain) {
		return xtypes.DomIDNone, err
	}
	b.eng.Unmanage(dom)
	delete(b.records, dom)

	req := rec
	req.Requester = b.dom
	newDom, err := b.Submit(p, req)
	if err != nil {
		// Keep the record: the old domain is gone, but a later Rebuild of
		// the same shard (e.g. once an injected fault clears) must still
		// know what to construct.
		b.records[dom] = rec
		return xtypes.DomIDNone, err
	}
	b.Rebuilds++
	if d, derr := b.hv.Domain(newDom); derr == nil {
		pr := d.Priv()
		if pr.ControlAll || pr.Hypercalls[xtypes.HyperVMSnapshot] {
			b.hv.VMSnapshot(newDom)
		}
	}
	b.observeRestart(b.tel.Histogram("restart_rebuild_ms", telemetry.LatencyMSBuckets, telemetry.L("class", class)), p.Now().Sub(start))
	return newDom, nil
}

// Recover restores a failed shard: roll back to its snapshot if the domain
// is still alive, rebuild from the recorded request otherwise. Returns the
// serving domain, which differs from dom on the rebuild path.
//
// When both paths fail, the shard may be half-recovered — alive but with
// its snapshot refused mid-restore. Leaving it serving in that state would
// be worse than losing it (§3.3's whole point is a known-good image), so
// Recover destroys the leftover domain instead of leaking it.
//
//xoarlint:allow(unused) ROADMAP item 6's data-path faults give it a production caller; the restart fault tests run it
func (b *Builder) Recover(p *sim.Proc, dom xtypes.DomID) (xtypes.DomID, error) {
	if b.Monolithic {
		// Refusal is policy, not failure: do not tear the shard down.
		return xtypes.DomIDNone, fmt.Errorf("builder: recover of %v: %w", dom, xtypes.ErrNoMicroreboot)
	}
	start := p.Now()
	class := b.shardClass(dom)
	sp := b.tel.StartSpan("builder", "recover:"+class, start)
	defer func() { sp.EndAt(p.Now()) }()
	if _, err := b.Rollback(p, dom); err == nil {
		b.observeRestart(b.tel.Histogram("restart_recover_ms", telemetry.LatencyMSBuckets, telemetry.L("class", class)), p.Now().Sub(start))
		return dom, nil
	}
	newDom, err := b.Rebuild(p, dom)
	if err != nil {
		if _, derr := b.hv.Domain(dom); derr == nil {
			b.eng.Unmanage(dom)
			b.hv.DestroyDomain(b.dom, dom, "builder: failed recover")
		}
		return xtypes.DomIDNone, err
	}
	b.observeRestart(b.tel.Histogram("restart_recover_ms", telemetry.LatencyMSBuckets, telemetry.L("class", class)), p.Now().Sub(start))
	return newDom, nil
}
