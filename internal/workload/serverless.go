package workload

import (
	"sort"

	"xoar/internal/sim"
)

// --- Serverless churn (cluster cold-start study) -----------------------------
//
// A serverless platform's defining load is not a single guest's throughput
// but the arrival process: thousands of short-lived VMs per second, each
// billed from submit to first instruction. On Xoar this path crosses the
// cluster scheduler, the per-host Builder queue, the scrubber, and the
// guest image's own boot — so the cold-start distribution is the end-to-end
// probe of the whole disaggregated control plane under churn.

// Launcher places and boots one guest somewhere in a fleet, returning a
// function that tears it down. cluster.Cluster satisfies this; so does any
// single-host adapter. Launch's blocking time IS the guest's cold start.
type Launcher interface {
	Launch(p *sim.Proc, name string, memMB int) (destroy func(*sim.Proc) error, err error)
}

// ChurnConfig parameterizes the arrival process.
type ChurnConfig struct {
	// ArrivalsPerSec is the Poisson arrival rate across the fleet.
	ArrivalsPerSec float64
	// Total is the number of guests submitted before arrivals stop.
	Total int
	// MeanLifetime is the exponential mean of a guest's useful life after
	// boot completes. Default 150ms — function-invocation scale.
	MeanLifetime sim.Duration
	// MemMB sizes each guest. Default 64 (the micro image's reservation).
	MemMB int
}

// ChurnStats is the workload's report. Percentiles are exact order
// statistics over every successful launch — not histogram interpolations —
// so equal seeds reproduce them bit for bit.
type ChurnStats struct {
	Submitted int
	Launched  int
	Failed    int
	// PeakResident is the high-water mark of concurrently live guests.
	PeakResident int
	// Makespan is first submit to last teardown.
	Makespan sim.Duration

	ColdStartP50 sim.Duration
	ColdStartP95 sim.Duration
	ColdStartP99 sim.Duration
}

// ServerlessChurn drives the arrival process from p until every submitted
// guest has run its lifetime and been torn down. All randomness — both
// inter-arrival gaps and lifetimes — is drawn in submission order from the
// environment's seeded source, so the sample sequence (and therefore every
// statistic) is a pure function of seed and config regardless of how the
// per-guest processes interleave.
func ServerlessChurn(p *sim.Proc, l Launcher, cfg ChurnConfig) ChurnStats {
	env := p.Env()
	rng := env.Rand()
	if cfg.ArrivalsPerSec <= 0 {
		cfg.ArrivalsPerSec = 100
	}
	if cfg.Total <= 0 {
		cfg.Total = 1000
	}
	if cfg.MeanLifetime <= 0 {
		cfg.MeanLifetime = 150 * sim.Millisecond
	}
	if cfg.MemMB <= 0 {
		cfg.MemMB = 64
	}

	var (
		stats      ChurnStats
		coldStarts []sim.Duration
		resident   int
		finished   int
		done       = sim.NewSignal(env)
	)
	start := p.Now()
	for i := 0; i < cfg.Total; i++ {
		gap := sim.Duration(rng.ExpFloat64() / cfg.ArrivalsPerSec * float64(sim.Second))
		life := sim.Duration(rng.ExpFloat64() * float64(cfg.MeanLifetime))
		p.Sleep(gap)
		stats.Submitted++
		name := "fn-" + itoa(i)
		env.Spawn(name, func(gp *sim.Proc) {
			defer func() {
				finished++
				done.Broadcast()
			}()
			t0 := gp.Now()
			destroy, err := l.Launch(gp, name, cfg.MemMB)
			if err != nil {
				stats.Failed++
				return
			}
			stats.Launched++
			coldStarts = append(coldStarts, gp.Now().Sub(t0))
			resident++
			if resident > stats.PeakResident {
				stats.PeakResident = resident
			}
			gp.Sleep(life)
			resident--
			_ = destroy(gp)
		})
	}
	for finished < cfg.Total {
		done.Wait(p)
	}
	stats.Makespan = p.Now().Sub(start)

	sort.Slice(coldStarts, func(a, b int) bool { return coldStarts[a] < coldStarts[b] })
	stats.ColdStartP50 = percentile(coldStarts, 50)
	stats.ColdStartP95 = percentile(coldStarts, 95)
	stats.ColdStartP99 = percentile(coldStarts, 99)
	return stats
}

// percentile returns the exact pth order statistic (nearest-rank method) of
// sorted samples.
func percentile(sorted []sim.Duration, pct int) sim.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (pct*len(sorted) + 99) / 100 // ceil(pct/100 * n)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
