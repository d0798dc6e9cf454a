package builder_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"xoar/internal/builder"
	"xoar/internal/hv"
	"xoar/internal/osimage"
	"xoar/internal/sim"
	"xoar/internal/telemetry"
	"xoar/internal/xtypes"
)

var errInjected = errors.New("injected fault")

// buildManagedShard builds a snapshotted netback-style shard delegated to
// the Builder, the starting state for every recovery scenario.
func buildManagedShard(t *testing.T, env *sim.Env, h *hv.Hypervisor, b *builder.Builder, bs xtypes.DomID, name string) xtypes.DomID {
	t.Helper()
	var shard xtypes.DomID
	run(t, env, 30*sim.Second, func(p *sim.Proc) {
		var err error
		shard, err = b.Submit(p, builder.Request{
			Requester: bs, Name: name, Image: osimage.ImgNetBack, Shard: true,
			Privileges: hv.Assignment{Hypercalls: []xtypes.Hypercall{xtypes.HyperVMSnapshot}},
		})
		if err != nil {
			t.Errorf("shard build: %v", err)
		}
	})
	if err := h.Delegate(bs, shard, b.Dom()); err != nil {
		t.Fatal(err)
	}
	if err := h.VMSnapshot(shard); err != nil {
		t.Fatal(err)
	}
	return shard
}

func TestRecoverRebuildsWhenRollbackFaulted(t *testing.T) {
	env, h, b := newRig(t)
	defer env.Shutdown()
	bs := newShard(t, h, "bootstrap", xtypes.HyperDelegateAdmin)
	b.Authorize(bs)
	shard := buildManagedShard(t, env, h, b, bs, "netback")

	h.Fault = func(op string, caller, target xtypes.DomID) error {
		if op == "vm_rollback" && target == shard {
			return errInjected
		}
		return nil
	}
	var newDom xtypes.DomID
	run(t, env, 30*sim.Second, func(p *sim.Proc) {
		var err error
		newDom, err = b.Recover(p, shard)
		if err != nil {
			t.Errorf("recover with faulted rollback: %v", err)
		}
	})
	h.Fault = nil
	if newDom == shard || newDom == xtypes.DomIDNone {
		t.Fatalf("recover did not rebuild: new=%v old=%v", newDom, shard)
	}
	if _, err := h.Domain(shard); !errors.Is(err, xtypes.ErrNoDomain) {
		t.Fatalf("old shard survived the rebuild: %v", err)
	}
	if b.Rebuilds != 1 {
		t.Fatalf("rebuilds = %d, want 1", b.Rebuilds)
	}
}

func TestRecoverRetainsRecordWhenCreateFaulted(t *testing.T) {
	env, h, b := newRig(t)
	defer env.Shutdown()
	bs := newShard(t, h, "bootstrap", xtypes.HyperDelegateAdmin)
	b.Authorize(bs)
	shard := buildManagedShard(t, env, h, b, bs, "netback")

	// Both recovery mechanisms fail mid-flight: rollback is refused and the
	// rebuild's domain creation faults after the old domain is torn down.
	h.Fault = func(op string, caller, target xtypes.DomID) error {
		if op == "vm_rollback" || op == "domctl_create" {
			return errInjected
		}
		return nil
	}
	run(t, env, 30*sim.Second, func(p *sim.Proc) {
		if _, err := b.Recover(p, shard); !errors.Is(err, errInjected) {
			t.Errorf("recover with both paths faulted: %v", err)
		}
	})
	// No half-recovered domain is left serving.
	if _, err := h.Domain(shard); !errors.Is(err, xtypes.ErrNoDomain) {
		t.Fatalf("half-recovered shard leaked: %v", err)
	}
	// The build record survived the failed rebuild: once the fault clears,
	// the same shard ID is still recoverable.
	h.Fault = nil
	var newDom xtypes.DomID
	run(t, env, 30*sim.Second, func(p *sim.Proc) {
		var err error
		newDom, err = b.Recover(p, shard)
		if err != nil {
			t.Errorf("recover after fault cleared: %v", err)
		}
	})
	if newDom == xtypes.DomIDNone {
		t.Fatal("retry did not produce a replacement")
	}
	if d, err := h.Domain(newDom); err != nil || d.ParentTool() != b.Dom() {
		t.Fatalf("replacement not a Builder ward: %v %v", d, err)
	}
}

func TestRecoverDestroysRecordlessHalfRecoveredShard(t *testing.T) {
	env, h, b := newRig(t)
	defer env.Shutdown()
	// A shard the Builder administers but did not build (no build record):
	// when rollback faults mid-recover, rebuild cannot help, and the
	// half-recovered domain must be destroyed, not left serving.
	ext := newShard(t, h, "external", xtypes.HyperVMSnapshot)
	if err := h.Delegate(hv.SystemCaller, ext, b.Dom()); err != nil {
		t.Fatal(err)
	}
	if err := h.VMSnapshot(ext); err != nil {
		t.Fatal(err)
	}
	h.Fault = func(op string, caller, target xtypes.DomID) error {
		if op == "vm_rollback" && target == ext {
			return errInjected
		}
		return nil
	}
	defer func() { h.Fault = nil }()
	run(t, env, 10*sim.Second, func(p *sim.Proc) {
		if _, err := b.Recover(p, ext); err == nil {
			t.Error("recover of recordless shard succeeded unexpectedly")
		}
	})
	if _, err := h.Domain(ext); !errors.Is(err, xtypes.ErrNoDomain) {
		t.Fatalf("half-recovered shard leaked: %v", err)
	}
}

// Rebuild goes through the queue like every other build: issued while a
// guest job is being served, it returns only after that job's boot ends,
// never by overtaking it.
func TestRebuildWaitsForJobInService(t *testing.T) {
	env, h, b := newRig(t)
	defer env.Shutdown()
	bs := newShard(t, h, "bootstrap", xtypes.HyperDelegateAdmin)
	b.Authorize(bs)
	shard := buildManagedShard(t, env, h, b, bs, "netback")
	ts := newShard(t, h, "ts")

	var guestDone, rebuildDone sim.Time
	env.Spawn("guest", func(p *sim.Proc) {
		if _, err := b.Submit(p, builder.Request{Requester: ts, Name: "guest", Image: osimage.ImgGuestPV}); err != nil {
			t.Errorf("guest build: %v", err)
		}
		guestDone = p.Now()
	})
	env.Spawn("rebuild", func(p *sim.Proc) {
		// The guest's 13s boot is under way by now.
		p.Sleep(sim.Second)
		if _, err := b.Rebuild(p, shard); err != nil {
			t.Errorf("rebuild: %v", err)
		}
		rebuildDone = p.Now()
	})
	env.RunFor(60 * sim.Second)
	if guestDone == 0 || rebuildDone == 0 {
		t.Fatalf("builds incomplete: guest at %v, rebuild at %v", guestDone, rebuildDone)
	}
	if rebuildDone <= guestDone {
		t.Fatalf("rebuild returned at %v, before the job in service ended at %v", rebuildDone, guestDone)
	}
}

func TestMonolithicProfileRefusesMicroreboots(t *testing.T) {
	env, h, b := newRig(t)
	defer env.Shutdown()
	bs := newShard(t, h, "bootstrap", xtypes.HyperDelegateAdmin)
	b.Authorize(bs)
	shard := buildManagedShard(t, env, h, b, bs, "netback")

	b.Monolithic = true
	run(t, env, 10*sim.Second, func(p *sim.Proc) {
		if _, err := b.Rollback(p, shard); !errors.Is(err, xtypes.ErrNoMicroreboot) {
			t.Errorf("monolithic rollback: %v", err)
		}
		if _, err := b.Rebuild(p, shard); !errors.Is(err, xtypes.ErrNoMicroreboot) {
			t.Errorf("monolithic rebuild: %v", err)
		}
		if _, err := b.Recover(p, shard); !errors.Is(err, xtypes.ErrNoMicroreboot) {
			t.Errorf("monolithic recover: %v", err)
		}
	})
	// The refusal is a policy error, not a teardown: the shard is untouched.
	if _, err := h.Domain(shard); err != nil {
		t.Fatalf("monolithic refusal touched the shard: %v", err)
	}
}

// runSubmitScenario executes a fixed, seeded build workload against a fresh
// rig with reg attached and returns the builder. Two calls with equal
// arguments produce identical telemetry (the simulation is deterministic).
func runSubmitScenario(t *testing.T, reg *telemetry.Registry) *builder.Builder {
	t.Helper()
	env, h, b := newRig(t)
	defer env.Shutdown()
	b.SetMetrics(reg)
	ts := newShard(t, h, "ts")
	const n = 6
	for i := 0; i < n; i++ {
		i := i
		env.Spawn(fmt.Sprintf("req-%d", i), func(p *sim.Proc) {
			if _, err := b.Submit(p, builder.Request{
				Requester: ts, Name: fmt.Sprintf("g-%d", i), Image: osimage.ImgQemu,
			}); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		})
	}
	env.RunFor(120 * sim.Second)
	return b
}

// TestTelemetryExactUnderConcurrentHammer checks that histogram counts and
// sums stay exact when real goroutines hammer the same histogram the
// builder's serve loop observes into. Run with -race (the CI race shard
// does) to also validate the synchronization.
func TestTelemetryExactUnderConcurrentHammer(t *testing.T) {
	// Baseline: the same scenario without the hammer gives the expected
	// simulation-side observations.
	base := telemetry.New()
	bb := runSubmitScenario(t, base)
	baseHist := histogram(t, base, "builder_queue_wait_ms")
	baseCount, baseSum := baseHist.Count, baseHist.Sum
	if baseCount == 0 || bb.Builds == 0 {
		t.Fatalf("baseline scenario recorded nothing: count=%d builds=%d", baseCount, bb.Builds)
	}

	reg := telemetry.New()
	shared := reg.Histogram("builder_queue_wait_ms", telemetry.LatencyMSBuckets)
	side := reg.Histogram("hammer_only", telemetry.LatencyMSBuckets)
	const workers, per = 8, 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// Observe 0 into the shared histogram: x + 0.0 == x in IEEE
				// arithmetic, so the serve loop's sum must come out exactly
				// equal to the baseline regardless of interleaving.
				shared.Observe(0)
				side.Observe(2)
			}
		}()
	}
	b := runSubmitScenario(t, reg)
	wg.Wait()

	if b.Builds != bb.Builds {
		t.Fatalf("scenario diverged: builds %d vs %d", b.Builds, bb.Builds)
	}
	if got := histogram(t, reg, "builder_queue_wait_ms"); got.Count != baseCount+workers*per {
		t.Fatalf("shared count = %d, want %d (lost updates)", got.Count, baseCount+workers*per)
	} else if got.Sum != baseSum {
		t.Fatalf("shared sum = %g, want %g", got.Sum, baseSum)
	}
	if got := histogram(t, reg, "hammer_only"); got.Count != workers*per || got.Sum != float64(workers*per*2) {
		t.Fatalf("side histogram inexact: n=%d sum=%g", got.Count, got.Sum)
	}
}

// Only shard builds are recorded, so a domain the Builder handed to a
// toolstack cannot come back through it once the toolstack destroys it:
// Rebuild, and Recover falling through to it, refuse with ErrNotFound and
// build nothing. That holds for a plain guest and for a device-model stub,
// which dies with its HVM guest. A Builder that recorded every build
// resurrected either one as its own ward.
func TestRebuildRefusesDestroyedNonShard(t *testing.T) {
	victims := []struct {
		name  string
		build func(p *sim.Proc, b *builder.Builder, ts xtypes.DomID) (xtypes.DomID, error)
	}{
		{"guest", func(p *sim.Proc, b *builder.Builder, ts xtypes.DomID) (xtypes.DomID, error) {
			return b.Submit(p, builder.Request{Requester: ts, Name: "micro", Image: osimage.ImgGuestMicro})
		}},
		{"qemu-stub", func(p *sim.Proc, b *builder.Builder, ts xtypes.DomID) (xtypes.DomID, error) {
			hvm, err := b.Submit(p, builder.Request{Requester: ts, Name: "hvm", Image: osimage.ImgGuestHVM})
			if err != nil {
				return hvm, err
			}
			return b.Submit(p, builder.Request{Requester: ts, Name: "qemu", QemuFor: hvm})
		}},
	}
	calls := []struct {
		name string
		call func(*builder.Builder, *sim.Proc, xtypes.DomID) (xtypes.DomID, error)
	}{
		{"rebuild", (*builder.Builder).Rebuild},
		{"recover", (*builder.Builder).Recover},
	}
	for _, v := range victims {
		for _, c := range calls {
			t.Run(v.name+"/"+c.name, func(t *testing.T) {
				env, h, b := newRig(t)
				defer env.Shutdown()
				ts := newShard(t, h, "toolstack", xtypes.HyperDomctlDestroy)
				var dom xtypes.DomID
				run(t, env, 60*sim.Second, func(p *sim.Proc) {
					var err error
					if dom, err = v.build(p, b, ts); err != nil {
						t.Errorf("build: %v", err)
					}
				})
				if err := h.DestroyDomain(ts, dom, "shutdown"); err != nil {
					t.Fatal(err)
				}
				builds, live := b.Builds, len(h.Domains())
				var got xtypes.DomID
				var err error
				run(t, env, 60*sim.Second, func(p *sim.Proc) { got, err = c.call(b, p, dom) })
				if got != xtypes.DomIDNone || !errors.Is(err, xtypes.ErrNotFound) {
					t.Fatalf("%s of destroyed %v = %v, %v; want %v, ErrNotFound", c.name, dom, got, err, xtypes.DomIDNone)
				}
				if b.Builds != builds || b.Rebuilds != 0 || len(h.Domains()) != live {
					t.Fatalf("built anyway: builds %d -> %d, rebuilds %d, live domains %d -> %d",
						builds, b.Builds, b.Rebuilds, live, len(h.Domains()))
				}
			})
		}
	}
}
