package experiments

import (
	"fmt"

	"xoar/internal/cluster"
	"xoar/internal/sim"
	"xoar/internal/workload"
)

// ClusterChurnConfig sizes the serverless-churn study.
type ClusterChurnConfig struct {
	// Hosts is the fleet size for the cold-start phase.
	Hosts int
	// ArrivalsPerSec is the fleet-wide Poisson arrival rate.
	ArrivalsPerSec float64
	// Guests is the total number of short-lived guests submitted.
	Guests int
	// Seed drives both phases.
	Seed int64
}

// DefaultClusterChurnConfig is the artifact configuration: an 8-host fleet
// absorbing a thousand launches per second — five thousand 64MB micro guests
// living ~150ms each, every cold start crossing scheduler, Builder queue,
// scrubber and boot.
func DefaultClusterChurnConfig() ClusterChurnConfig {
	return ClusterChurnConfig{Hosts: 8, ArrivalsPerSec: 1000, Guests: 5000, Seed: 42}
}

// ClusterChurn runs the two-phase cluster study.
//
// Phase one is the cold-start distribution: a Spread-placed fleet under the
// configured churn, reporting exact p50/p95/p99 submit-to-boot latencies,
// failure count, peak residency, and placement spread (the max-min gap in
// cumulative per-host placements — Spread's quality metric; 0 is perfect).
//
// Phase two is the rebalancer: a small BinPack fleet deliberately piles
// long-lived guests onto one host, then the migration rebalancer runs until
// the fleet levels out, reporting how many live migrations that took.
//
// Both phases are deterministic in (config, seed); every row is gated in
// BENCH_baseline.json via BenchmarkClusterChurn.
func ClusterChurn(cfg ClusterChurnConfig) (Table, error) {
	if cfg.Hosts <= 0 {
		cfg = DefaultClusterChurnConfig()
	}
	t := Table{
		ID:    "cluster-churn",
		Title: "Serverless churn across a Xoar fleet: cold starts, placement, rebalancing",
	}

	// --- Phase 1: cold starts under Spread placement ---------------------
	c, err := cluster.New(cluster.Config{
		Hosts: cfg.Hosts, Seed: cfg.Seed, Policy: cluster.Spread{},
	})
	if err != nil {
		return t, err
	}
	var st workload.ChurnStats
	done := c.Env.Await("churn", 900*sim.Second, func(p *sim.Proc) {
		st = workload.ServerlessChurn(p, c, workload.ChurnConfig{
			ArrivalsPerSec: cfg.ArrivalsPerSec,
			Total:          cfg.Guests,
			MeanLifetime:   150 * sim.Millisecond,
			MemMB:          64,
		})
	})
	c.Env.Shutdown()
	if !done {
		return t, fmt.Errorf("experiments: churn did not complete")
	}
	minP, maxP := c.Hosts[0].Placed, c.Hosts[0].Placed
	for _, h := range c.Hosts[1:] {
		if h.Placed < minP {
			minP = h.Placed
		}
		if h.Placed > maxP {
			maxP = h.Placed
		}
	}
	t.Rows = append(t.Rows,
		Row{Label: "cold-start p50", Measured: st.ColdStartP50.Seconds() * 1000, Unit: "ms"},
		Row{Label: "cold-start p95", Measured: st.ColdStartP95.Seconds() * 1000, Unit: "ms"},
		Row{Label: "cold-start p99", Measured: st.ColdStartP99.Seconds() * 1000, Unit: "ms"},
		Row{Label: "launched", Measured: float64(st.Launched), Unit: "guests"},
		Row{Label: "failed", Measured: float64(st.Failed), Unit: "guests"},
		Row{Label: "peak resident", Measured: float64(st.PeakResident), Unit: "guests"},
		Row{Label: "placement spread", Measured: float64(maxP - minP), Unit: "guests"},
		Row{Label: "makespan", Measured: st.Makespan.Seconds(), Unit: "s"},
	)

	// --- Phase 2: rebalancer on a skewed BinPack fleet -------------------
	rb, err := cluster.New(cluster.Config{Hosts: 2, Seed: cfg.Seed, Policy: cluster.BinPack{}})
	if err != nil {
		return t, err
	}
	done = rb.Env.Await("rebalance", 300*sim.Second, func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			if _, err := rb.Launch(p, "svc-"+string(rune('a'+i)), 256); err != nil {
				return
			}
		}
		// Drain the hot host one migration per pass until balanced.
		for {
			moved, err := rb.RebalanceOnce(p, 512)
			if err != nil || !moved {
				return
			}
		}
	})
	rb.Env.Shutdown()
	if !done {
		return t, fmt.Errorf("experiments: rebalance phase did not complete")
	}
	t.Rows = append(t.Rows,
		Row{Label: "rebalance migrations", Measured: float64(rb.Migrations), Unit: "migrations"},
	)
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d hosts, %.0f arrivals/s Poisson, %d guests, 150ms mean lifetime, 64MB micro image",
			cfg.Hosts, cfg.ArrivalsPerSec, cfg.Guests),
		"cold start = submit to boot-complete, end to end through scheduler, Builder queue, scrub and boot",
	)
	return t, nil
}
