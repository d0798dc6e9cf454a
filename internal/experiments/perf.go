package experiments

import (
	"fmt"

	"xoar/internal/boot"
	"xoar/internal/guest"
	"xoar/internal/sim"
	"xoar/internal/workload"
)

// Scale shrinks workload sizes for quick runs; 1.0 is the paper's scale.
type Scale float64

func (s Scale) apply(n int) int {
	if s <= 0 || s >= 1 {
		return n
	}
	v := int(float64(n) * float64(s))
	if v < 1 {
		v = 1
	}
	return v
}

// --- Table 6.1: memory consumption of individual shards ---------------------

// MemoryOverhead boots Xoar and inventories component memory.
func MemoryOverhead() (Table, error) {
	rig, err := BootRig(Xoar, 1)
	if err != nil {
		return Table{}, err
	}
	defer rig.Close()
	paper := map[string]float64{
		"xenstore-logic": 32, "xenstore-state": 32, "console": 128,
		"pciback": 256, "netback": 128, "blkback": 128,
		"builder": 64, "toolstack-0": 128,
	}
	t := Table{ID: "table6.1", Title: "Memory consumption of individual shards (MB)"}
	total := 0.0
	for _, d := range rig.HV.Domains() {
		if !d.IsShard() {
			continue
		}
		t.Rows = append(t.Rows, Row{
			Label:    d.Name,
			Measured: float64(d.Mem.MaxMB()),
			Paper:    paper[d.Name],
			Unit:     "MB",
		})
		total += float64(d.Mem.MaxMB())
	}
	t.Rows = append(t.Rows, Row{Label: "total (full config)", Measured: total, Paper: 896, Unit: "MB"})

	// The minimal hosting configuration: no console, PCIBack destroyed.
	rigMin, err := BootRigOpts(Xoar, 1, boot.Options{NoConsole: true, DestroyPCIBack: true})
	if err != nil {
		return t, err
	}
	defer rigMin.Close()
	minTotal := 0.0
	for _, d := range rigMin.HV.Domains() {
		if d.IsShard() {
			minTotal += float64(d.Mem.MaxMB())
		}
	}
	t.Rows = append(t.Rows, Row{Label: "total (minimal config)", Measured: minTotal, Paper: 512, Unit: "MB"})

	t.Rows = append(t.Rows, Row{Label: "dom0 default (XenServer)", Measured: 750, Paper: 750, Unit: "MB"})
	t.Notes = append(t.Notes,
		"paper: totals range 512MB (no console, no resident PCIBack) to 896MB: -30% to +20% vs the 750MB Dom0")
	return t, nil
}

// --- Table 6.2: boot time -----------------------------------------------------

// BootTime boots both profiles and compares console/ping milestones, plus a
// serialized-Xoar ablation isolating the parallel-boot contribution.
func BootTime() (Table, error) {
	t := Table{ID: "table6.2", Title: "Comparison of boot times (s)"}
	rigD, err := BootRig(Dom0, 1)
	if err != nil {
		return t, err
	}
	defer rigD.Close()
	rigX, err := BootRig(Xoar, 1)
	if err != nil {
		return t, err
	}
	defer rigX.Close()

	d, x := rigD.PL.Timings, rigX.PL.Timings
	t.Rows = append(t.Rows,
		Row{Label: "dom0 console", Measured: d.ConsoleReady.Seconds(), Paper: 38.9, Unit: "s"},
		Row{Label: "xoar console", Measured: x.ConsoleReady.Seconds(), Paper: 25.9, Unit: "s"},
		Row{Label: "console speedup", Measured: d.ConsoleReady.Seconds() / x.ConsoleReady.Seconds(), Paper: 1.5, Unit: "x"},
		Row{Label: "dom0 ping", Measured: d.PingReady.Seconds(), Paper: 42.2, Unit: "s"},
		Row{Label: "xoar ping", Measured: x.PingReady.Seconds(), Paper: 36.6, Unit: "s"},
		Row{Label: "ping speedup", Measured: d.PingReady.Seconds() / x.PingReady.Seconds(), Paper: 1.15, Unit: "x"},
	)

	// Ablation: serialized Xoar boot (no Bootstrapper parallelism).
	rigS, err := BootRigOpts(Xoar, 1, boot.Options{Serialize: true})
	if err != nil {
		return t, err
	}
	defer rigS.Close()
	// Console comes up first either way; the parallelism win shows in the
	// full-platform boot time.
	t.Rows = append(t.Rows,
		Row{Label: "xoar full boot (parallel)", Measured: x.Done.Seconds(), Unit: "s"},
		Row{Label: "xoar full boot (serialized, ablation)", Measured: rigS.PL.Timings.Done.Seconds(), Unit: "s"})
	return t, nil
}

// --- Figure 6.1: Postmark ------------------------------------------------------

// Postmark runs the four paper configurations on both profiles.
func Postmark(scale Scale) (Table, error) {
	t := Table{ID: "fig6.1", Title: "Disk performance using Postmark (transactions/s)"}
	for _, cfg := range workload.Figure61Configs() {
		cfg.Transactions = scale.apply(cfg.Transactions)
		for _, prof := range []Profile{Dom0, Xoar} {
			rig, err := BootRig(prof, 1)
			if err != nil {
				return t, err
			}
			vm, err := rig.NewGuest("pm")
			if err != nil {
				rig.Close()
				return t, err
			}
			var res workload.PostmarkResult
			var werr error
			err = rig.Go(3000*sim.Second, func(p *sim.Proc) {
				res, werr = workload.Postmark(p, vm, cfg)
			})
			rig.Close()
			if err != nil {
				return t, err
			}
			if werr != nil {
				return t, werr
			}
			t.Rows = append(t.Rows, Row{
				Label:    fmt.Sprintf("%s %s", cfg, prof),
				Measured: res.OpsPerSec,
				Unit:     "ops/s",
			})
		}
	}
	t.Notes = append(t.Notes, "paper: Dom0 and Xoar within a few percent on every configuration")
	return t, nil
}

// --- Figure 6.2: wget ----------------------------------------------------------

// Wget fetches 512MB and 2GB to /dev/null and to disk on both profiles.
func Wget(scale Scale) (Table, error) {
	t := Table{ID: "fig6.2", Title: "Network performance with wget (MB/s)"}
	type cse struct {
		name  string
		bytes int64
		sink  guest.Sink
	}
	cases := []cse{
		{"/dev/null (512MB)", 512 << 20, guest.SinkNull},
		{"disk (512MB)", 512 << 20, guest.SinkDisk},
		{"/dev/null (2GB)", 2 << 30, guest.SinkNull},
		{"disk (2GB)", 2 << 30, guest.SinkDisk},
	}
	for _, c := range cases {
		bytes := int64(float64(c.bytes) * float64(clampScale(scale)))
		for _, prof := range []Profile{Dom0, Xoar} {
			rig, err := BootRig(prof, 1)
			if err != nil {
				return t, err
			}
			vm, err := rig.NewGuest("wget")
			if err != nil {
				rig.Close()
				return t, err
			}
			var res guest.FetchResult
			err = rig.Go(3000*sim.Second, func(p *sim.Proc) {
				res = vm.Fetch(p, bytes, c.sink)
			})
			rig.Close()
			if err != nil {
				return t, err
			}
			t.Rows = append(t.Rows, Row{
				Label:    fmt.Sprintf("%s %s", c.name, prof),
				Measured: res.ThroughputMBps(),
				Unit:     "MB/s",
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper: network-only throughput down 1-2.5% on Xoar; combined net->disk up 6.5% (performance isolation)")
	return t, nil
}

func clampScale(s Scale) Scale {
	if s <= 0 || s > 1 {
		return 1
	}
	return s
}

// --- Figure 6.3: throughput with a restarting NetBack ---------------------------

// RestartPoint is one (interval, mode) measurement.
type RestartPoint struct {
	IntervalSec int
	Fast        bool
	MBps        float64
}

// RestartThroughput sweeps NetBack restart intervals for both restart
// flavours, fetching 2GB to /dev/null at each point.
func RestartThroughput(scale Scale, intervals []int) (Table, []RestartPoint, error) {
	t := Table{ID: "fig6.3", Title: "Throughput with a restarting NetBack (MB/s)"}
	// The transfer must span several restart cycles at the largest interval,
	// so scale never shrinks it below the paper's 2GB.
	_ = scale
	bytes := int64(2 << 30)

	baseline, err := oneRestartRun(bytes, 0, false)
	if err != nil {
		return t, nil, err
	}
	t.Rows = append(t.Rows, Row{Label: "baseline (no restarts)", Measured: baseline, Unit: "MB/s"})
	var pts []RestartPoint
	for _, fast := range []bool{false, true} {
		mode := "slow (260ms)"
		if fast {
			mode = "fast (140ms)"
		}
		for _, iv := range intervals {
			mbps, err := oneRestartRun(bytes, iv, fast)
			if err != nil {
				return t, nil, err
			}
			pts = append(pts, RestartPoint{IntervalSec: iv, Fast: fast, MBps: mbps})
			t.Rows = append(t.Rows, Row{
				Label:    fmt.Sprintf("%s @ %ds", mode, iv),
				Measured: mbps,
				Unit:     "MB/s",
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper: 10s restarts cost ~8%; 1s restarts cost ~58% (slow); fast restarts help most at small intervals, <1% at 10s")
	return t, pts, nil
}

func oneRestartRun(bytes int64, intervalSec int, fast bool) (float64, error) {
	rig, err := BootRig(Xoar, 1)
	if err != nil {
		return 0, err
	}
	defer rig.Close()
	vm, err := rig.NewGuest("wget")
	if err != nil {
		return 0, err
	}
	if intervalSec > 0 {
		if err := rig.restartNetBack(sim.Duration(intervalSec)*sim.Second, fast); err != nil {
			return 0, err
		}
	}
	var res guest.FetchResult
	if err := rig.Go(6000*sim.Second, func(p *sim.Proc) {
		res = vm.Fetch(p, bytes, guest.SinkNull)
	}); err != nil {
		return 0, err
	}
	return res.ThroughputMBps(), nil
}

// --- Figure 6.4: kernel build ---------------------------------------------------

// KernelBuild compiles locally and over NFS on both profiles, plus NFS runs
// under 10s and 5s NetBack restarts.
func KernelBuild(scale Scale) (Table, error) {
	t := Table{ID: "fig6.4", Title: "Kernel build: local and remote NFS (s)"}
	steps := scale.apply(1650)
	run := func(prof Profile, nfs bool, restartSec int) (float64, error) {
		rig, err := BootRig(prof, 1)
		if err != nil {
			return 0, err
		}
		defer rig.Close()
		vm, err := rig.NewGuest("make")
		if err != nil {
			return 0, err
		}
		if restartSec > 0 {
			if err := rig.restartNetBack(sim.Duration(restartSec)*sim.Second, false); err != nil {
				return 0, err
			}
		}
		var res workload.BuildResult
		var werr error
		if err := rig.Go(6000*sim.Second, func(p *sim.Proc) {
			res, werr = workload.KernelBuild(p, vm, workload.BuildConfig{Steps: steps, Jobs: 2, NFS: nfs})
		}); err != nil {
			return 0, err
		}
		if werr != nil {
			return 0, werr
		}
		return res.Elapsed.Seconds(), nil
	}
	type cse struct {
		label      string
		prof       Profile
		nfs        bool
		restartSec int
	}
	for _, c := range []cse{
		{"dom0 (local)", Dom0, false, 0},
		{"xoar (local)", Xoar, false, 0},
		{"dom0 (nfs)", Dom0, true, 0},
		{"xoar (nfs)", Xoar, true, 0},
		{"xoar (nfs, restarts 10s)", Xoar, true, 10},
		{"xoar (nfs, restarts 5s)", Xoar, true, 5},
	} {
		secs, err := run(c.prof, c.nfs, c.restartSec)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, Row{Label: c.label, Measured: secs, Unit: "s"})
	}
	t.Notes = append(t.Notes, "paper: Xoar overhead much less than 1%, local and NFS; restarts add visible but tunable overhead")
	return t, nil
}

// --- Figure 6.5: Apache benchmark ------------------------------------------------

// Apache runs the Apache benchmark on Dom0, Xoar, and Xoar with NetBack
// restarts at 10, 5 and 1 second intervals.
func Apache(scale Scale) (Table, error) {
	t := Table{ID: "fig6.5", Title: "Apache benchmark: regular and with NetBack restarts"}
	requests := scale.apply(100_000)
	run := func(prof Profile, restartSec int) (guest.HTTPBenchResult, error) {
		rig, err := BootRig(prof, 1)
		if err != nil {
			return guest.HTTPBenchResult{}, err
		}
		defer rig.Close()
		vm, err := rig.NewGuest("apache")
		if err != nil {
			return guest.HTTPBenchResult{}, err
		}
		if restartSec > 0 {
			if err := rig.restartNetBack(sim.Duration(restartSec)*sim.Second, false); err != nil {
				return guest.HTTPBenchResult{}, err
			}
		}
		var res guest.HTTPBenchResult
		if err := rig.Go(6000*sim.Second, func(p *sim.Proc) {
			srv := vm.StartHTTPServer(11 * 1024)
			defer srv.Stop()
			res = vm.RunHTTPBench(p, requests, 5, 11*1024)
		}); err != nil {
			return guest.HTTPBenchResult{}, err
		}
		return res, nil
	}
	type cse struct {
		label      string
		prof       Profile
		restartSec int
		paperTime  float64
		paperRPS   float64
		paperXfer  float64
	}
	for _, c := range []cse{
		{"dom0", Dom0, 0, 30.95, 3230.82, 36.04},
		{"xoar", Xoar, 0, 31.43, 3182.03, 35.49},
		{"restarts 10s", Xoar, 10, 44.00, 2273.39, 25.36},
		{"restarts 5s", Xoar, 5, 45.28, 2208.71, 24.64},
		{"restarts 1s", Xoar, 1, 114.39, 883.18, 9.85},
	} {
		res, err := run(c.prof, c.restartSec)
		if err != nil {
			return t, err
		}
		scaleBack := 1.0 / float64(clampScale(scale))
		paperLat := map[string]float64{
			"dom0": 1.55, "xoar": 1.57, "restarts 10s": 2.20, "restarts 5s": 2.26, "restarts 1s": 5.72,
		}[c.label]
		t.Rows = append(t.Rows,
			Row{Label: c.label + " total time", Measured: res.TotalTime.Seconds() * scaleBack, Paper: c.paperTime, Unit: "s"},
			Row{Label: c.label + " throughput", Measured: res.RequestsPerSecond(), Paper: c.paperRPS, Unit: "req/s"},
			Row{Label: c.label + " mean latency", Measured: res.MeanLatency.Seconds() * 1000, Paper: paperLat, Unit: "ms"},
			Row{Label: c.label + " transfer rate", Measured: res.TransferRateMBps(), Paper: c.paperXfer, Unit: "MB/s"},
			Row{Label: c.label + " max latency", Measured: res.MaxLatency.Seconds() * 1000, Unit: "ms"},
		)
	}
	t.Notes = append(t.Notes,
		"paper: longest requests 8-9ms unperturbed; 3000ms at 5/10s restarts; 7000ms at 1s restarts",
		"total time scaled back to the paper's 100k requests when run at reduced scale")
	return t, nil
}
