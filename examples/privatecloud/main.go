// Private cloud scenario (§3.4.2): coarse-grained resource partitioning.
// Each user receives a personal Toolstack with the driver shards'
// administrative privileges delegated to it; the hypervisor audits every
// management call against the parent-toolstack flag, so one user's toolstack
// cannot touch another user's VMs, and per-toolstack quotas bound resource
// consumption.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"xoar"
	"xoar/internal/sim"
	"xoar/internal/toolstack"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// Two management toolstacks: one per user.
	pl, err := xoar.New(xoar.XoarShards, xoar.Config{Seed: 3, Toolstacks: 2})
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	defer pl.Shutdown()

	// User 1's toolstack starts with nothing: creating a networked guest
	// fails until the drivers are delegated to it.
	if _, err := pl.CreateGuest(xoar.GuestSpec{Name: "u1-early", Net: true, Toolstack: 1}); err != nil {
		fmt.Fprintln(w, "user 1 before delegation:", err)
	}
	if err := pl.DelegateDrivers(1); err != nil {
		return fmt.Errorf("delegate drivers: %w", err)
	}

	// Quotas: user 1 may run at most 2 VMs / 3GB.
	pl.Boot.Toolstacks[1].SetQuota(toolstack.Quota{MaxVMs: 2, MaxMemMB: 3 * 1024})

	u0, err := pl.CreateGuest(xoar.GuestSpec{Name: "u0-app", Net: true, Disk: true, Toolstack: 0})
	if err != nil {
		return fmt.Errorf("create guest: %w", err)
	}
	u1a, err := pl.CreateGuest(xoar.GuestSpec{Name: "u1-app", Net: true, Disk: true, Toolstack: 1})
	if err != nil {
		return fmt.Errorf("create guest: %w", err)
	}
	u1b, err := pl.CreateGuest(xoar.GuestSpec{Name: "u1-batch", Disk: true, Toolstack: 1})
	if err != nil {
		return fmt.Errorf("create guest: %w", err)
	}
	fmt.Fprintf(w, "user 0 runs %v; user 1 runs %v, %v\n", u0.Dom, u1a.Dom, u1b.Dom)

	// Quota enforcement: a third VM for user 1 is refused.
	if _, err := pl.CreateGuest(xoar.GuestSpec{Name: "u1-extra", Toolstack: 1}); err != nil {
		fmt.Fprintln(w, "user 1 quota enforced:", err)
	}

	// Isolation of management rights: user 1's toolstack cannot destroy a
	// VM owned by user 0 — the hypervisor audits the parent-toolstack flag.
	var attackErr error
	if err := pl.RunWorkload(xoar.Second, func(p *sim.Proc) {
		attackErr = pl.Boot.Toolstacks[1].DestroyVM(p, u0.Dom)
	}); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	fmt.Fprintln(w, "user 1 toolstack attacking user 0's VM:", attackErr)

	// Each user manages their own slice freely.
	if err := pl.DestroyGuest(u1b); err != nil {
		return fmt.Errorf("destroy guest: %w", err)
	}
	fmt.Fprintf(w, "user 1 destroyed its own VM fine; user 0's VM still alive: %v\n",
		func() bool { _, err := pl.HV.Domain(u0.Dom); return err == nil }())
	return nil
}
