// Package workload implements the paper's benchmark workloads (§6.1):
// Postmark (Figure 6.1), wget transfers (Figures 6.2/6.3), kernel builds on
// local and NFS filesystems (Figure 6.4), and the Apache benchmark (Figure
// 6.5). Each generator drives a guest.VM through the platform's real driver
// paths and returns the metric the paper's figure reports.
package workload

import (
	"xoar/internal/guest"
	"xoar/internal/hv"
	"xoar/internal/sim"
	"xoar/internal/toolstack"
)

// VMOf adapts a toolstack guest record to a workload endpoint.
func VMOf(h *hv.Hypervisor, g *toolstack.Guest) *guest.VM {
	return &guest.VM{H: h, Dom: g.Dom, Net: g.Net, Blk: g.Blk, NetB: g.NetB, BlkB: g.BlkB}
}

// --- Postmark (Figure 6.1) ---------------------------------------------------

// PostmarkConfig mirrors Postmark's parameters: a pool of small files, a
// transaction count, and an optional subdirectory fan-out.
type PostmarkConfig struct {
	Files        int
	Transactions int
	Subdirs      int
}

// String renders the config the way the figure labels it ("20Kx100Kx100").
func (c PostmarkConfig) String() string {
	s := shortK(c.Files) + "x" + shortK(c.Transactions)
	if c.Subdirs > 0 {
		s += "x" + shortK(c.Subdirs)
	}
	return s
}

func shortK(n int) string {
	if n >= 1000 && n%1000 == 0 {
		return itoa(n/1000) + "K"
	}
	return itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Figure61Configs are the four configurations the paper plots.
func Figure61Configs() []PostmarkConfig {
	return []PostmarkConfig{
		{Files: 1000, Transactions: 50000},
		{Files: 20000, Transactions: 50000},
		{Files: 20000, Transactions: 100000},
		{Files: 20000, Transactions: 100000, Subdirs: 100},
	}
}

// PostmarkResult reports transaction throughput.
type PostmarkResult struct {
	Config    PostmarkConfig
	Elapsed   sim.Duration
	OpsPerSec float64
}

// Postmark transaction cost model: each transaction (create/delete/read/
// append on small files) is mostly page-cache work; the probability of
// touching the disk grows with the size of the file set (cache pressure and
// metadata churn), and a subdirectory fan-out relieves directory-entry
// contention slightly.
const (
	pmCPUPerTx   = 25 * sim.Microsecond
	pmTxBytes    = 4096
	pmBaseMiss   = 0.006
	pmMissPer20K = 0.014
)

// Postmark runs the benchmark's transaction phase against the guest's disk.
func Postmark(p *sim.Proc, vm *guest.VM, cfg PostmarkConfig) (PostmarkResult, error) {
	rng := vm.H.Env.Rand()
	missProb := pmBaseMiss + pmMissPer20K*float64(cfg.Files)/20000
	if cfg.Subdirs > 0 {
		missProb *= 0.85
	}
	// Setup: create the file pool (sequential-ish small writes, batched by
	// the page cache into one large flush).
	if err := vm.Blk.Write(p, cfg.Files*2048, true); err != nil {
		return PostmarkResult{}, err
	}

	start := p.Now()
	for i := 0; i < cfg.Transactions; i++ {
		vm.H.Compute(p, vm.Dom, pmCPUPerTx)
		if rng.Float64() < missProb {
			if err := vm.Blk.Write(p, pmTxBytes, false); err != nil {
				return PostmarkResult{}, err
			}
		}
	}
	elapsed := p.Now().Sub(start)
	return PostmarkResult{
		Config:    cfg,
		Elapsed:   elapsed,
		OpsPerSec: float64(cfg.Transactions) / elapsed.Seconds(),
	}, nil
}

// --- Kernel build (Figure 6.4) -------------------------------------------------

// BuildConfig describes a kernel compile.
type BuildConfig struct {
	// Steps is the number of compilation units.
	Steps int
	// Jobs is make's parallelism (the guests have 2 vCPUs).
	Jobs int
	// NFS selects a remote source/object tree over the network instead of
	// the local ext3 volume.
	NFS bool
}

// Build-cost model.
const (
	kbCPUPerStep    = 400 * sim.Millisecond
	kbLocalIOProb   = 0.08 // most source/object I/O hits the page cache
	kbLocalIOBytes  = 64 * 1024
	kbNFSOpsPerStep = 40
	kbNFSOpBytes    = 8 * 1024
	kbNFSServerTime = 250 * sim.Microsecond
)

// BuildResult reports a compile's wall-clock time.
type BuildResult struct {
	Config     BuildConfig
	Elapsed    sim.Duration
	NFSRetries int
}

// KernelBuild compiles the tree with cfg.Jobs parallel workers inside the
// guest, touching the local disk or the NFS server per step.
func KernelBuild(p *sim.Proc, vm *guest.VM, cfg BuildConfig) (BuildResult, error) {
	if cfg.Jobs <= 0 {
		cfg.Jobs = 2
	}
	env := vm.H.Env
	rng := env.Rand()
	start := p.Now()
	steps := sim.NewChan[int](env)
	for i := 0; i < cfg.Steps; i++ {
		steps.Send(i)
	}
	steps.Close()

	var firstErr error
	retries := 0
	done := sim.NewChan[struct{}](env)
	for w := 0; w < cfg.Jobs; w++ {
		env.Spawn("make-job", func(wp *sim.Proc) {
			defer done.Send(struct{}{})
			for {
				if _, ok := steps.Recv(wp); !ok {
					return
				}
				vm.H.Compute(wp, vm.Dom, kbCPUPerStep)
				if cfg.NFS {
					// Metadata and data RPCs to the NFS server.
					for op := 0; op < kbNFSOpsPerStep; op++ {
						r, ok := vm.NetRPCRetry(wp, 256, kbNFSOpBytes, kbNFSServerTime)
						retries += r
						if !ok {
							firstErr = errNFS
							return
						}
					}
				} else if rng.Float64() < kbLocalIOProb {
					if err := vm.Blk.Write(wp, kbLocalIOBytes, false); err != nil {
						if !vm.Blk.WaitReconnect(wp, 30*sim.Second) {
							firstErr = err
							return
						}
					}
				}
			}
		})
	}
	for w := 0; w < cfg.Jobs; w++ {
		done.Recv(p)
	}
	if firstErr != nil {
		return BuildResult{}, firstErr
	}
	return BuildResult{Config: cfg, Elapsed: p.Now().Sub(start), NFSRetries: retries}, nil
}

// errNFS signals an abandoned NFS transfer.
var errNFS = errNFSType{}

type errNFSType struct{}

func (errNFSType) Error() string { return "workload: NFS transfer abandoned after retries" }
