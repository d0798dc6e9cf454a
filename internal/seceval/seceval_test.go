package seceval

import (
	"errors"
	"testing"

	"xoar/internal/boot"
	"xoar/internal/hv"
	"xoar/internal/hw"
	"xoar/internal/osimage"
	"xoar/internal/sim"
	"xoar/internal/toolstack"
	"xoar/internal/xtypes"
)

func TestRegistryCounts(t *testing.T) {
	all := Registry()
	if len(all) != 44 {
		t.Fatalf("registry size = %d, want 44", len(all))
	}
	guests := GuestSourced()
	if len(guests) != 23 {
		t.Fatalf("guest-sourced = %d, want 23", len(guests))
	}
	exec, dos := 0, 0
	vec := map[Vector]int{}
	for _, v := range guests {
		if v.Class == ClassCodeExec {
			exec++
		} else {
			dos++
		}
		vec[v.Vector]++
	}
	if exec != 12 || dos != 11 {
		t.Fatalf("class split = %d exec / %d dos, want 12/11", exec, dos)
	}
	want := map[Vector]int{
		VecDeviceEmulation: 7,
		VecVirtualDevice:   6,
		VecToolstack:       1,
		VecManagement:      4,
		VecDebugRegs:       2,
		VecXenStore:        2,
		VecHypervisor:      1,
	}
	for v, n := range want {
		if vec[v] != n {
			t.Errorf("vector %v = %d, want %d", v, vec[v], n)
		}
	}
	// Unique IDs.
	seen := map[string]bool{}
	for _, v := range all {
		if seen[v.ID] {
			t.Fatalf("duplicate id %s", v.ID)
		}
		seen[v.ID] = true
	}
}

// bootPlatform brings up a profile with two guests sharing the driver shards.
func bootPlatform(t *testing.T, monolithic bool) (*sim.Env, *boot.Platform, []xtypes.DomID) {
	t.Helper()
	env := sim.NewEnv(1)
	h := hv.New(env, hw.NewMachine(env))
	pl, err := boot.Run(h, monolithic, boot.Options{})
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	var guests []xtypes.DomID
	if !env.Await("setup", 120*sim.Second, func(p *sim.Proc) {
		for _, name := range []string{"victimA", "victimB"} {
			g, cerr := pl.Toolstacks[0].CreateVM(p, toolstack.GuestConfig{
				Name: name, Image: osimage.ImgGuestPV, Net: true, Disk: true,
			})
			if cerr != nil {
				err = cerr
				return
			}
			guests = append(guests, g.Dom)
		}
	}) {
		t.Fatal("guest setup did not complete")
	}
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	return env, pl, guests
}

func TestXoarContainmentMatchesPaper(t *testing.T) {
	env, pl, guests := bootPlatform(t, false)
	defer env.Shutdown()
	an := NewAnalyzer(pl, Options{DeprivilegedGuests: true, Attacker: guests[0], QemuOf: xtypes.DomIDNone})
	rep := an.Run()

	// §6.2.1: 7 device-emulation attacks entirely contained; 6 virtual
	// device + 1 toolstack + 4 management limited to sharers; 2 debug-reg
	// mitigated; 2 XenStore fixed; 1 hypervisor unprotected. XenStore-Logic
	// itself holds no privilege over guests, so nothing else reaches
	// whole-host.
	want := map[Outcome]int{
		OutContained:     7,
		OutSharedClients: 11,
		OutMitigated:     2,
		OutNotApplicable: 2,
		OutWholeHost:     1,
	}
	for o, n := range want {
		if rep.ByOutcome[o] != n {
			t.Errorf("outcome %v = %d, want %d (full: %v)", o, rep.ByOutcome[o], n, rep.ByOutcome)
		}
	}

	// The shared-clients findings must reach exactly the co-resident guest,
	// not the platform.
	for _, f := range rep.Findings {
		if f.Outcome != OutSharedClients {
			continue
		}
		for _, r := range f.Reached {
			if r != guests[1] {
				t.Errorf("vuln %s reached unexpected dom %v", f.Vuln.ID, r)
			}
		}
	}
}

func TestDom0EverythingIsWholeHost(t *testing.T) {
	env, pl, guests := bootPlatform(t, true)
	defer env.Shutdown()
	an := NewAnalyzer(pl, Options{DeprivilegedGuests: false, Attacker: guests[0]})
	rep := an.Run()
	// Stock Xen: all 21 live attacks compromise the whole platform
	// (§2.2.1's "security of the entire system is only as good as the
	// weakest component"); only the 2 already-fixed XenStore bugs escape.
	if rep.ByOutcome[OutWholeHost] != 21 {
		t.Fatalf("dom0 whole-host = %d, want 21 (full: %v)", rep.ByOutcome[OutWholeHost], rep.ByOutcome)
	}
	if rep.ByOutcome[OutNotApplicable] != 2 {
		t.Fatalf("dom0 not-applicable = %d", rep.ByOutcome[OutNotApplicable])
	}
}

func TestDebugRegMitigationAppliesToBothPlatforms(t *testing.T) {
	env, pl, guests := bootPlatform(t, true)
	defer env.Shutdown()
	an := NewAnalyzer(pl, Options{DeprivilegedGuests: true, Attacker: guests[0]})
	rep := an.Run()
	if rep.ByOutcome[OutMitigated] != 2 {
		t.Fatalf("mitigated on dom0 = %d", rep.ByOutcome[OutMitigated])
	}
}

// TestMonolithicProfileHasNoMicroreboots asserts the §3.3 capability split:
// microreboots exist only on the disaggregated platform. Stock Xen's Builder
// refuses every restart-engine entry point with a distinct error, while the
// Xoar Builder fails the same probe for ordinary reasons (no snapshot), never
// with that error.
func TestMonolithicProfileHasNoMicroreboots(t *testing.T) {
	env, pl, guests := bootPlatform(t, true)
	defer env.Shutdown()
	var rbErr, rebErr, recErr error
	env.Spawn("probe", func(p *sim.Proc) {
		_, rbErr = pl.Builder.Rollback(p, guests[0])
		_, rebErr = pl.Builder.Rebuild(p, guests[0])
		_, recErr = pl.Builder.Recover(p, guests[0])
	})
	env.RunFor(10 * sim.Second)
	for name, err := range map[string]error{"rollback": rbErr, "rebuild": rebErr, "recover": recErr} {
		if !errors.Is(err, xtypes.ErrNoMicroreboot) {
			t.Errorf("%s on stock Xen: err = %v, want ErrNoMicroreboot", name, err)
		}
	}
	// The probed guest must be untouched by the refusals.
	if _, err := pl.HV.Domain(guests[0]); err != nil {
		t.Fatalf("refusal destroyed the guest: %v", err)
	}

	env2, xoar, xguests := bootPlatform(t, false)
	defer env2.Shutdown()
	var xerr error
	env2.Spawn("probe", func(p *sim.Proc) {
		_, xerr = xoar.Builder.Rollback(p, xguests[0])
	})
	env2.RunFor(10 * sim.Second)
	if errors.Is(xerr, xtypes.ErrNoMicroreboot) {
		t.Fatalf("xoar profile claims no microreboots: %v", xerr)
	}
}

func TestTCBXoarSteadyState(t *testing.T) {
	env, pl, _ := bootPlatform(t, false)
	defer env.Shutdown()
	rep := TCB(pl)
	// Steady state: exactly the nanOS Builder holds guest-memory privilege.
	if len(rep.Components) != 1 || rep.Components[0].Name != "builder" {
		t.Fatalf("TCB components = %+v", rep.Components)
	}
	if rep.SourceLoC != 8_000 {
		t.Fatalf("TCB source LoC = %d", rep.SourceLoC)
	}
	if rep.XenSourceLoC != 280_000 {
		t.Fatalf("Xen LoC = %d", rep.XenSourceLoC)
	}
}

func TestTCBDom0IsLinux(t *testing.T) {
	env, pl, _ := bootPlatform(t, true)
	defer env.Shutdown()
	rep := TCB(pl)
	if rep.SourceLoC != 7_600_000 || rep.CompLoC != 400_000 {
		t.Fatalf("dom0 TCB = %d/%d", rep.SourceLoC, rep.CompLoC)
	}
}

func TestTCBRatio(t *testing.T) {
	env1, xoar, _ := bootPlatform(t, false)
	defer env1.Shutdown()
	env2, dom0, _ := bootPlatform(t, true)
	defer env2.Shutdown()
	x, d := TCB(xoar), TCB(dom0)
	// The paper's headline: 7.6M → 13K source (we measure the steady-state
	// 8K Builder; the Bootstrapper's 5K is boot-time only). Require at
	// least two orders of magnitude.
	if d.SourceLoC < 100*x.SourceLoC {
		t.Fatalf("TCB reduction only %dx", d.SourceLoC/x.SourceLoC)
	}
}

func TestQemuVectorWithExplicitStubDomain(t *testing.T) {
	env, pl, guests := bootPlatform(t, false)
	defer env.Shutdown()
	// Stand up a QemuVM for guest A, privileged for exactly that guest, and
	// verify the analyzer reports device-emulation attacks as contained with
	// the attacker's own QemuVM as the compromised component.
	h := pl.HV
	var qemuDom xtypes.DomID
	var err error
	env.Spawn("mk-qemu", func(p *sim.Proc) {
		q, cerr := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{
			Name: "qemu-victimA", MemMB: 64, Shard: true, OSImage: osimage.ImgQemu,
		})
		if cerr != nil {
			err = cerr
			return
		}
		h.Unpause(hv.SystemCaller, q.ID)
		h.AssignPrivileges(hv.SystemCaller, q.ID, hv.Assignment{Hypercalls: []xtypes.Hypercall{xtypes.HyperMapForeign}})
		h.SetPrivilegedFor(hv.SystemCaller, q.ID, guests[0])
		qemuDom = q.ID
	})
	env.RunFor(10 * sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzer(pl, Options{DeprivilegedGuests: true, Attacker: guests[0], QemuOf: qemuDom})
	rep := an.Run()
	if rep.ByOutcome[OutContained] != 7 {
		t.Fatalf("contained = %d with explicit QemuVM (full: %v)", rep.ByOutcome[OutContained], rep.ByOutcome)
	}
	for _, f := range rep.Findings {
		if f.Vuln.Vector == VecDeviceEmulation && f.Component != qemuDom {
			t.Fatalf("device-emulation finding not anchored to the QemuVM: %+v", f)
		}
	}
}

// Dynamic probes: assume a component is fully compromised and try actual
// hostile operations against the live hypervisor.
func TestProbeCompromisedNetBackOnXoar(t *testing.T) {
	env, pl, guests := bootPlatform(t, false)
	defer env.Shutdown()
	nb := pl.NetBacks[0].Dom
	p := Probe(pl, nb, guests[1])
	// NetBack must gain nothing: it cannot map guest memory, build or
	// destroy domains, roll back components, steal devices, or escalate.
	// (Its legitimate power — the traffic of its clients — is not probed.)
	if !p.Clean() {
		t.Fatalf("compromised NetBack obtained: %v", p.Obtained())
	}
}

func TestProbeCompromisedToolstackOnXoar(t *testing.T) {
	env, pl, guests := bootPlatform(t, false)
	defer env.Shutdown()
	ts := pl.Toolstacks[0].Dom
	p := Probe(pl, ts, guests[1])
	// The toolstack CAN destroy its own guests (that is its job)...
	if !p.DestroyedVictim {
		t.Fatal("toolstack could not manage its own guest")
	}
	// ...but cannot map their memory, escalate, or take devices.
	if p.MapVictimMemory && pl.Monolithic == false {
		// The Xoar toolstack holds MapForeign for migration over its own
		// guests; this is its legitimate (audited) power, not escalation.
		t.Log("toolstack mapped its own guest (legitimate migration path)")
	}
	if p.EscalatedSelf || p.TookPCIDevice || p.RolledBackOthers {
		t.Fatalf("toolstack escalated: %v", p.Obtained())
	}
}

func TestProbeCompromisedDom0TakesEverything(t *testing.T) {
	env, pl, guests := bootPlatform(t, true)
	defer env.Shutdown()
	p := Probe(pl, pl.Dom0, guests[1])
	if !p.MapVictimMemory || !p.CreatedDomain || !p.DestroyedVictim {
		t.Fatalf("dom0 compromise under-powered: %v", p.Obtained())
	}
}

func TestProbeCompromisedGuestGainsNothing(t *testing.T) {
	env, pl, guests := bootPlatform(t, false)
	defer env.Shutdown()
	p := Probe(pl, guests[0], guests[1])
	if !p.Clean() {
		t.Fatalf("plain guest obtained: %v", p.Obtained())
	}
}

func TestHVSplitCoversAllHypercalls(t *testing.T) {
	rep := HVSplit(nil)
	if len(rep.Ring0Calls)+len(rep.DeprivilegedCalls) != int(xtypes.NumHypercalls) {
		t.Fatalf("split covers %d of %d calls",
			len(rep.Ring0Calls)+len(rep.DeprivilegedCalls), xtypes.NumHypercalls)
	}
	// The §7.1 examples must land on the right sides.
	in := func(list []xtypes.Hypercall, h xtypes.Hypercall) bool {
		for _, x := range list {
			if x == h {
				return true
			}
		}
		return false
	}
	for _, h := range []xtypes.Hypercall{xtypes.HyperMapForeign, xtypes.HyperIOPortAccess, xtypes.HyperGrantTableOp} {
		if !in(rep.Ring0Calls, h) {
			t.Errorf("%v should require ring 0", h)
		}
	}
	for _, h := range []xtypes.Hypercall{xtypes.HyperDomctlCreate, xtypes.HyperProfilingOp} {
		if !in(rep.DeprivilegedCalls, h) {
			t.Errorf("%v should be deprivilegeable", h)
		}
	}
}

func TestHVSplitTrafficFromBootedPlatform(t *testing.T) {
	env, pl, _ := bootPlatform(t, false)
	defer env.Shutdown()
	rep := HVSplit(pl.HV.HypercallCount)
	if rep.Ring0Traffic == 0 || rep.DeprivilegedTraffic == 0 {
		t.Fatalf("traffic split %d/%d — a booted platform exercises both halves",
			rep.Ring0Traffic, rep.DeprivilegedTraffic)
	}
}
