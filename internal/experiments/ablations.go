package experiments

import (
	"xoar/internal/boot"
	"xoar/internal/seceval"
	"xoar/internal/sim"
	"xoar/internal/xenstore"
)

// Ablations isolates the design choices DESIGN.md calls out: the
// parallel-boot orchestration, PCIBack self-destruction, the recovery-box
// fast-restart path, the XenStore Logic/State split, and the §7.1
// hypervisor ring split.
func Ablations() (Table, error) {
	t := Table{ID: "ablations", Title: "Design-choice ablations"}

	// measure reads one number off a freshly booted Xoar rig.
	measure := func(opts boot.Options, read func(*Rig) float64) (float64, error) {
		rig, err := BootRigOpts(Xoar, 1, opts)
		if err != nil {
			return 0, err
		}
		defer rig.Close()
		return read(rig), nil
	}

	// 1. Parallel vs serialized boot (the Table 6.2 mechanism).
	doneAt := func(r *Rig) float64 { return r.PL.Timings.Done.Seconds() }
	par, err := measure(boot.Options{}, doneAt)
	if err != nil {
		return t, err
	}
	ser, err := measure(boot.Options{Serialize: true}, doneAt)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows,
		Row{Label: "full boot, parallel (Bootstrapper)", Measured: par, Unit: "s"},
		Row{Label: "full boot, serialized (ablated)", Measured: ser, Unit: "s"},
	)

	// 2. PCIBack destruction: resident control-plane domains at steady state.
	domains := func(r *Rig) float64 { return float64(len(r.HV.Domains())) }
	resident, err := measure(boot.Options{}, domains)
	if err != nil {
		return t, err
	}
	destroyed, err := measure(boot.Options{DestroyPCIBack: true}, domains)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows,
		Row{Label: "control domains, PCIBack resident", Measured: resident, Unit: "doms"},
		Row{Label: "control domains, PCIBack destroyed (§5.3)", Measured: destroyed, Unit: "doms"},
	)

	// 3. Fast vs slow NetBack restart downtime (the Figure 6.3 mechanism).
	downtime := func(fast bool) (float64, error) {
		rig, err := BootRig(Xoar, 1)
		if err != nil {
			return 0, err
		}
		defer rig.Close()
		if _, err := rig.NewGuest("g"); err != nil {
			return 0, err
		}
		if err := rig.restartNetBack(sim.Second, fast); err != nil {
			return 0, err
		}
		rig.Env.RunFor(10 * sim.Second)
		st, _ := rig.PL.Builder.RestartStats(rig.PL.NetBacks[0].Dom)
		if st.Restarts == 0 {
			return 0, nil
		}
		return st.TotalDowntime.Seconds() / float64(st.Restarts) * 1000, nil
	}
	slow, err := downtime(false)
	if err != nil {
		return t, err
	}
	fast, err := downtime(true)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows,
		Row{Label: "NetBack restart downtime, renegotiate (slow)", Measured: slow, Paper: 260, Unit: "ms"},
		Row{Label: "NetBack restart downtime, recovery box (fast)", Measured: fast, Paper: 140, Unit: "ms"},
	)

	// 4. XenStore Logic/State split: mutations preserved across N Logic
	// microreboots (a monolithic XenStore would lose or have to re-load them).
	envXS := sim.NewEnv(1)
	logic := xenstore.NewLogic(envXS, xenstore.NewState())
	conn := logic.Connect(0, true)
	for i := 0; i < 200; i++ {
		conn.Write(xenstore.TxNone, "/persist/key", "v")
		logic.Restart()
	}
	survived := 0.0
	if v, err := conn.Read(xenstore.TxNone, "/persist/key"); err == nil && v == "v" {
		survived = 1
	}
	t.Rows = append(t.Rows,
		Row{Label: "XenStore-Logic microreboots survived", Measured: float64(logic.Restarts()), Unit: "restarts"},
		Row{Label: "contents intact after Logic restarts (1=yes)", Measured: survived, Unit: ""},
	)

	// 5. §7.1 hypervisor split: share of hypercall surface and of observed
	// traffic that could leave ring 0.
	rig, err := BootRig(Xoar, 1)
	if err != nil {
		return t, err
	}
	if _, err := rig.NewGuest("g"); err != nil {
		rig.Close()
		return t, err
	}
	split := seceval.HVSplit(rig.HV.HypercallCount)
	rig.Close()
	t.Rows = append(t.Rows,
		Row{Label: "hypercalls requiring ring 0", Measured: float64(len(split.Ring0Calls)), Unit: "calls"},
		Row{Label: "hypercalls deprivilegeable (§7.1)", Measured: float64(len(split.DeprivilegedCalls)), Unit: "calls"},
		Row{Label: "observed traffic, ring 0", Measured: float64(split.Ring0Traffic), Unit: "invocations"},
		Row{Label: "observed traffic, deprivilegeable", Measured: float64(split.DeprivilegedTraffic), Unit: "invocations"},
	)
	return t, nil
}
