package snapshot

import (
	"testing"

	"xoar/internal/hv"
	"xoar/internal/hw"
	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

// fakeComp is a minimal restartable component whose Restart costs a fixed
// recovery time and re-dirties one page (a component always touches memory
// while recovering).
type fakeComp struct {
	h        *hv.Hypervisor
	dom      *hv.Domain
	recovery sim.Duration
	restarts int
	lastFast bool
}

func (f *fakeComp) DomID() xtypes.DomID { return f.dom.ID }
func (f *fakeComp) Name() string        { return f.dom.Name }
func (f *fakeComp) Restart(p *sim.Proc, fast bool) {
	f.restarts++
	f.lastFast = fast
	p.Sleep(f.recovery)
	f.dom.Mem.Write(1, []byte("recovered"))
}

func setup(t *testing.T) (*sim.Env, *hv.Hypervisor, *Engine, *fakeComp) {
	t.Helper()
	env := sim.NewEnv(1)
	h := hv.New(env, hw.NewMachine(env))
	d, err := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "netback", MemMB: 64, Shard: true})
	if err != nil {
		t.Fatal(err)
	}
	h.Unpause(hv.SystemCaller, d.ID)
	h.AssignPrivileges(hv.SystemCaller, d.ID, hv.Assignment{Hypercalls: []xtypes.Hypercall{xtypes.HyperVMSnapshot}})
	d.Mem.Write(0, []byte("init"))
	if err := h.VMSnapshot(d.ID); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(h, hv.SystemCaller)
	return env, h, eng, &fakeComp{h: h, dom: d, recovery: 100 * sim.Millisecond}
}

func TestTimerPolicyRestarts(t *testing.T) {
	env, _, eng, comp := setup(t)
	if err := eng.Manage(comp, Policy{Kind: PolicyTimer, Interval: sim.Second}); err != nil {
		t.Fatal(err)
	}
	// Each cycle is interval + recovery (the timer re-arms after recovery),
	// so five restarts complete by 5×(1s+0.1s) + ε.
	env.Run(sim.Time(5700 * sim.Millisecond))
	env.Shutdown()
	if comp.restarts != 5 {
		t.Fatalf("restarts = %d, want 5", comp.restarts)
	}
	st, ok := eng.Stats(comp.DomID())
	if !ok || st.Restarts != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if st.TotalDowntime < 5*comp.recovery {
		t.Fatalf("downtime = %v", st.TotalDowntime)
	}
}

func TestRollbackRestoresMemoryEachCycle(t *testing.T) {
	env, _, eng, comp := setup(t)
	comp.dom.Mem.Write(0, []byte("attacker implant"))
	eng.Manage(comp, Policy{Kind: PolicyTimer, Interval: sim.Second})
	env.Run(sim.Time(1500 * sim.Millisecond))
	env.Shutdown()
	data, _ := comp.dom.Mem.Read(0)
	if string(data) != "init" {
		t.Fatalf("memory after microreboot = %q", data)
	}
	if comp.dom.Mem.SnapEpoch() != 1 {
		t.Fatalf("epoch = %d", comp.dom.Mem.SnapEpoch())
	}
}

func TestPerRequestPolicy(t *testing.T) {
	env, _, eng, comp := setup(t)
	eng.Manage(comp, Policy{Kind: PolicyPerRequest})
	env.Spawn("server", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			// serve a request...
			p.Sleep(10 * sim.Millisecond)
			// ...then restart ourselves.
			if err := eng.RequestRestart(p, comp.DomID()); err != nil {
				t.Error(err)
			}
		}
	})
	env.RunAll()
	if comp.restarts != 3 {
		t.Fatalf("restarts = %d", comp.restarts)
	}
}

func TestFastFlagPropagates(t *testing.T) {
	env, _, eng, comp := setup(t)
	eng.Manage(comp, Policy{Kind: PolicyTimer, Interval: sim.Second, Fast: true})
	env.Run(sim.Time(1200 * sim.Millisecond))
	env.Shutdown()
	if !comp.lastFast {
		t.Fatal("fast flag not propagated")
	}
}

func TestSetPolicyPreservesStats(t *testing.T) {
	env, _, eng, comp := setup(t)
	eng.Manage(comp, Policy{Kind: PolicyTimer, Interval: sim.Second})
	env.Run(sim.Time(2500 * sim.Millisecond))
	if err := eng.SetPolicy(comp.DomID(), Policy{Kind: PolicyTimer, Interval: 10 * sim.Second}); err != nil {
		t.Fatal(err)
	}
	st, _ := eng.Stats(comp.DomID())
	if st.Restarts != 2 {
		t.Fatalf("stats lost on policy change: %+v", st)
	}
	env.Shutdown()
}

func TestUnmanageStopsTimer(t *testing.T) {
	env, _, eng, comp := setup(t)
	eng.Manage(comp, Policy{Kind: PolicyTimer, Interval: sim.Second})
	env.Run(sim.Time(1500 * sim.Millisecond))
	eng.Unmanage(comp.DomID())
	env.Run(sim.Time(10 * sim.Second))
	env.Shutdown()
	if comp.restarts != 1 {
		t.Fatalf("restarts after unmanage = %d", comp.restarts)
	}
	if len(eng.Managed()) != 0 {
		t.Fatal("still managed")
	}
}

func TestDoubleManageRejected(t *testing.T) {
	_, _, eng, comp := setup(t)
	if err := eng.Manage(comp, Policy{Kind: PolicyNone}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Manage(comp, Policy{Kind: PolicyNone}); err == nil {
		t.Fatal("double manage accepted")
	}
}

func TestDowntimeMeasurement(t *testing.T) {
	env, _, eng, comp := setup(t)
	comp.recovery = 260 * sim.Millisecond
	eng.Manage(comp, Policy{Kind: PolicyTimer, Interval: 2 * sim.Second})
	env.Run(sim.Time(2500 * sim.Millisecond))
	env.Shutdown()
	st, _ := eng.Stats(comp.DomID())
	if st.LastDowntime < 260*sim.Millisecond || st.LastDowntime > 300*sim.Millisecond {
		t.Fatalf("downtime = %v, want ~260ms", st.LastDowntime)
	}
}
