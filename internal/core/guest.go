package core

import (
	"fmt"

	"xoar/internal/guest"
	"xoar/internal/qemudm"
	"xoar/internal/sim"
	"xoar/internal/workload"
	"xoar/internal/xtypes"
)

// Fetch downloads bytes from the LAN peer into the guest (wget), advancing
// virtual time until the transfer completes.
func (g *Guest) Fetch(bytes int64, sink guest.Sink) (guest.FetchResult, error) {
	var res guest.FetchResult
	err := g.pl.RunWorkload(6000*sim.Second, func(p *sim.Proc) {
		res = g.VM.Fetch(p, bytes, sink)
	})
	return res, err
}

// Postmark runs the Postmark transaction benchmark on the guest's disk.
func (g *Guest) Postmark(cfg workload.PostmarkConfig) (workload.PostmarkResult, error) {
	var res workload.PostmarkResult
	var werr error
	err := g.pl.RunWorkload(6000*sim.Second, func(p *sim.Proc) {
		res, werr = workload.Postmark(p, g.VM, cfg)
	})
	if err == nil {
		err = werr
	}
	return res, err
}

// KernelBuild compiles a kernel tree inside the guest.
func (g *Guest) KernelBuild(cfg workload.BuildConfig) (workload.BuildResult, error) {
	var res workload.BuildResult
	var werr error
	err := g.pl.RunWorkload(6000*sim.Second, func(p *sim.Proc) {
		res, werr = workload.KernelBuild(p, g.VM, cfg)
	})
	if err == nil {
		err = werr
	}
	return res, err
}

// ServeHTTPBench starts a web server in the guest and drives the Apache
// benchmark against it from LAN clients.
func (g *Guest) ServeHTTPBench(requests, concurrency, pageBytes int) (guest.HTTPBenchResult, error) {
	var res guest.HTTPBenchResult
	err := g.pl.RunWorkload(6000*sim.Second, func(p *sim.Proc) {
		srv := g.VM.StartHTTPServer(pageBytes)
		defer srv.Stop()
		res = g.VM.RunHTTPBench(p, requests, concurrency, pageBytes)
	})
	return res, err
}

// WriteConsole emits a line on the guest's virtual console, observable in
// the Console Manager's buffer and the physical serial log.
func (g *Guest) WriteConsole(line string) error {
	if g.pl.Boot.Console == nil {
		return fmt.Errorf("core: platform booted without a Console Manager: %w", xtypes.ErrNotFound)
	}
	return g.pl.Boot.Console.GuestWrite(g.Dom, line)
}

// ConsoleBuffer returns the guest's captured console output.
func (g *Guest) ConsoleBuffer() []string {
	if g.pl.Boot.Console == nil {
		return nil
	}
	return g.pl.Boot.Console.Buffer(g.Dom)
}

// Qemu returns the guest's device model (nil for PV guests).
func (g *Guest) Qemu() *qemudm.QemuVM { return g.rec.Qemu }

// EmulatedDiskWrite performs an HVM guest's emulated disk write: the QemuVM
// traps the I/O, charges emulation cost, DMA-maps the guest, and forwards
// through its PV frontend.
func (g *Guest) EmulatedDiskWrite(bytes int, sequential bool) error {
	q := g.rec.Qemu
	if q == nil {
		return fmt.Errorf("core: %s is not an HVM guest: %w", g.Name, xtypes.ErrInvalid)
	}
	var werr error
	err := g.pl.RunWorkload(600*sim.Second, func(p *sim.Proc) {
		werr = q.DiskWrite(p, bytes, sequential)
	})
	if err == nil {
		err = werr
	}
	return err
}
