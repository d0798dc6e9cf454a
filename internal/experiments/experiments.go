// Package experiments regenerates every table and figure of the paper's
// evaluation (§6). Each experiment boots a fresh platform (or two, when the
// figure compares profiles), drives the workload, and returns structured
// rows carrying both the measured value and the paper's published value so
// callers — cmd/xoarbench, the root benchmarks, and EXPERIMENTS.md — can
// print paper-vs-measured comparisons.
package experiments

import (
	"fmt"

	"xoar/internal/boot"
	"xoar/internal/guest"
	"xoar/internal/hv"
	"xoar/internal/hw"
	"xoar/internal/osimage"
	"xoar/internal/sim"
	"xoar/internal/snapshot"
	"xoar/internal/toolstack"
	"xoar/internal/workload"
)

// Profile selects the platform under test.
type Profile uint8

const (
	// Dom0 is the stock monolithic platform.
	Dom0 Profile = iota
	// Xoar is the disaggregated platform.
	Xoar
)

func (p Profile) String() string {
	if p == Dom0 {
		return "dom0"
	}
	return "xoar"
}

// Row is one measured cell of a table or figure, with the paper's value
// when the paper publishes one (Paper == 0 means "not published").
type Row struct {
	Label    string
	Measured float64
	Paper    float64
	Unit     string
}

// Table is one regenerated table or figure.
type Table struct {
	ID    string // "table6.1", "fig6.3", ...
	Title string
	Rows  []Row
	Notes []string
}

// Rig is a booted platform plus its simulation environment.
type Rig struct {
	Env *sim.Env
	HV  *hv.Hypervisor
	PL  *boot.Platform
}

// BootRig boots a profile on a fresh machine with default options.
func BootRig(profile Profile, seed int64) (*Rig, error) {
	return BootRigMachine(profile, seed, hw.MachineConfig{}, boot.Options{})
}

// BootRigOpts boots a profile with explicit boot options — the hook for
// wiring a telemetry registry (or any other boot knob) into an experiment.
func BootRigOpts(profile Profile, seed int64, opts boot.Options) (*Rig, error) {
	return BootRigMachine(profile, seed, hw.MachineConfig{}, opts)
}

// BootRigMachine boots a profile on an explicitly configured machine (the
// zero config is the paper's testbed) — the hook for running the evaluation
// on faster hardware generations than the paper's Gigabit testbed, or on
// hosts big enough for fleets of large guests.
func BootRigMachine(profile Profile, seed int64, mcfg hw.MachineConfig, opts boot.Options) (*Rig, error) {
	env := sim.NewEnv(seed)
	h := hv.New(env, hw.NewMachineWith(env, mcfg))
	pl, err := boot.Run(h, profile == Dom0, opts)
	if err != nil {
		env.Shutdown()
		return nil, err
	}
	return &Rig{Env: env, HV: h, PL: pl}, nil
}

// Close tears the rig down, reaping its processes.
func (r *Rig) Close() { r.Env.Shutdown() }

// NewGuest creates a standard benchmark guest: 2 vCPUs, 1GB, net + 15GB disk
// (the §6.1 guest configuration).
func (r *Rig) NewGuest(name string) (*guest.VM, error) {
	var g *toolstack.Guest
	var err error
	if !r.Env.Await("mkguest", 60*sim.Second, func(p *sim.Proc) {
		g, err = r.PL.Toolstacks[0].CreateVM(p, toolstack.GuestConfig{
			Name: name, Image: osimage.ImgGuestPV, MemMB: 1024, VCPUs: 2,
			Net: true, Disk: true,
		})
	}) {
		return nil, fmt.Errorf("experiments: guest creation did not complete")
	}
	if err != nil {
		return nil, err
	}
	return workload.VMOf(r.HV, g), nil
}

// restartNetBack puts the first NetBack under a timer restart policy
// through the Builder, the host's one restart engine.
func (r *Rig) restartNetBack(every sim.Duration, fast bool) error {
	return r.PL.Builder.SetRestartPolicy(r.PL.NetBacks[0], snapshot.Policy{
		Kind: snapshot.PolicyTimer, Interval: every, Fast: fast,
	})
}

// Go runs fn in a sim process and advances virtual time until it finishes
// (bounded by limit to keep broken models from spinning forever).
func (r *Rig) Go(limit sim.Duration, fn func(p *sim.Proc)) error {
	if !r.Env.Await("exp", limit, fn) {
		return fmt.Errorf("experiments: workload did not complete within %v", limit)
	}
	return nil
}
