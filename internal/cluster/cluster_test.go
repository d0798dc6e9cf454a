package cluster

import (
	"errors"
	"testing"

	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

// run drives env until fn (spawned as a proc) finishes, failing on timeout.
func run(t *testing.T, c *Cluster, name string, fn func(p *sim.Proc)) {
	t.Helper()
	if !c.Env.Await(name, 600*sim.Second, fn) {
		t.Fatalf("%s did not finish", name)
	}
}

func TestClusterBootsHosts(t *testing.T) {
	c, err := New(Config{Hosts: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Hosts) != 2 {
		t.Fatalf("hosts = %d", len(c.Hosts))
	}
	for i, h := range c.Hosts {
		if h.PL == nil || len(h.PL.Toolstacks) != 1 {
			t.Fatalf("host %d not booted", i)
		}
		if h.FreeMB() < 2000 {
			t.Fatalf("host %d free = %dMB, control plane ate the machine", i, h.FreeMB())
		}
		// All hosts share one clock but none shares a hypervisor.
		if h.HV.Env != c.Env {
			t.Fatalf("host %d on a different clock", i)
		}
		if i > 0 && h.HV == c.Hosts[0].HV {
			t.Fatal("hosts share a hypervisor")
		}
	}
}

func TestPolicyChoose(t *testing.T) {
	loads := []Load{{FreeMB: 500}, {FreeMB: 2000}, {FreeMB: 100}, {FreeMB: 2000}}
	if got := (Spread{}).Choose(loads, 64); got != 1 {
		t.Fatalf("spread chose %d, want 1 (emptiest, lowest-index tie)", got)
	}
	if got := (BinPack{}).Choose(loads, 64); got != 2 {
		t.Fatalf("binpack chose %d, want 2 (fullest feasible)", got)
	}
	// 100MB free can't fit 256MB: binpack must skip to the next fullest.
	if got := (BinPack{}).Choose(loads, 256); got != 0 {
		t.Fatalf("binpack chose %d, want 0", got)
	}
	if got := (Spread{}).Choose(loads, 4096); got != -1 {
		t.Fatalf("spread chose %d for an unplaceable guest, want -1", got)
	}
}

func TestSpreadLaunchBalancesAndDestroyReleases(t *testing.T) {
	c, err := New(Config{Hosts: 2, Seed: 1, Policy: Spread{}})
	if err != nil {
		t.Fatal(err)
	}
	free0 := []int{c.Hosts[0].FreeMB(), c.Hosts[1].FreeMB()}
	var destroys []func(*sim.Proc) error
	run(t, c, "launch", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			d, err := c.Launch(p, "fn", 64)
			if err != nil {
				t.Errorf("launch %d: %v", i, err)
				return
			}
			destroys = append(destroys, d)
		}
	})
	if g0, g1 := c.Hosts[0].GuestCount(), c.Hosts[1].GuestCount(); g0 != 3 || g1 != 3 {
		t.Fatalf("spread placed %d/%d, want 3/3", g0, g1)
	}
	if c.Placements != 6 {
		t.Fatalf("placements = %d", c.Placements)
	}
	run(t, c, "destroy", func(p *sim.Proc) {
		for _, d := range destroys {
			if err := d(p); err != nil {
				t.Errorf("destroy: %v", err)
			}
		}
	})
	for i, h := range c.Hosts {
		if h.GuestCount() != 0 || h.FreeMB() != free0[i] {
			t.Fatalf("host %d did not return to idle: %d guests, %dMB free (was %dMB)",
				i, h.GuestCount(), h.FreeMB(), free0[i])
		}
	}
	// Destroy is idempotent.
	run(t, c, "redestroy", func(p *sim.Proc) {
		if err := destroys[0](p); err != nil {
			t.Errorf("second destroy: %v", err)
		}
	})
}

func TestBinPackConcentrates(t *testing.T) {
	c, err := New(Config{Hosts: 3, Seed: 1, Policy: BinPack{}})
	if err != nil {
		t.Fatal(err)
	}
	run(t, c, "launch", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if _, err := c.Launch(p, "fn", 64); err != nil {
				t.Errorf("launch %d: %v", i, err)
				return
			}
		}
	})
	if g0 := c.Hosts[0].GuestCount(); g0 != 5 {
		t.Fatalf("binpack scattered: host0 has %d of 5 guests", g0)
	}
}

func TestPlacementFailsWhenFleetFull(t *testing.T) {
	c, err := New(Config{Hosts: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	launched := 0
	run(t, c, "fill", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if _, err := c.Launch(p, "big", 1024); err != nil {
				lastErr = err
				return
			}
			launched++
		}
	})
	if !errors.Is(lastErr, xtypes.ErrNoMem) {
		t.Fatalf("err = %v, want ErrNoMem", lastErr)
	}
	if launched < 2 {
		t.Fatalf("only %d guests fit before exhaustion", launched)
	}
	if c.PlacementFailures != 1 {
		t.Fatalf("failures = %d", c.PlacementFailures)
	}
}

func TestRebalanceMovesGuestOffHotHost(t *testing.T) {
	// BinPack deliberately piles everything on host 0.
	c, err := New(Config{Hosts: 2, Seed: 1, Policy: BinPack{}})
	if err != nil {
		t.Fatal(err)
	}
	var destroys []func(*sim.Proc) error
	run(t, c, "launch", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			d, err := c.Launch(p, "svc", 256)
			if err != nil {
				t.Errorf("launch: %v", err)
				return
			}
			destroys = append(destroys, d)
		}
	})
	if c.Hosts[0].GuestCount() != 4 {
		t.Fatalf("setup: host0 has %d guests", c.Hosts[0].GuestCount())
	}
	run(t, c, "rebalance", func(p *sim.Proc) {
		moved, err := c.RebalanceOnce(p, 512)
		if err != nil {
			t.Errorf("rebalance: %v", err)
		}
		if !moved {
			t.Error("rebalance declined an obviously imbalanced fleet")
		}
	})
	if g0, g1 := c.Hosts[0].GuestCount(), c.Hosts[1].GuestCount(); g0 != 3 || g1 != 1 {
		t.Fatalf("after rebalance: %d/%d, want 3/1", g0, g1)
	}
	if c.Migrations != 1 {
		t.Fatalf("migrations = %d", c.Migrations)
	}
	// The destroy closures must follow migrated guests to their new host:
	// tear all four down and verify both hosts drain.
	run(t, c, "drain", func(p *sim.Proc) {
		for _, d := range destroys {
			if err := d(p); err != nil {
				t.Errorf("destroy after migration: %v", err)
			}
		}
	})
	if g0, g1 := c.Hosts[0].GuestCount(), c.Hosts[1].GuestCount(); g0 != 0 || g1 != 0 {
		t.Fatalf("after drain: %d/%d guests left", g0, g1)
	}
}

func TestBalancedFleetDoesNotThrash(t *testing.T) {
	c, err := New(Config{Hosts: 2, Seed: 1, Policy: Spread{}})
	if err != nil {
		t.Fatal(err)
	}
	run(t, c, "launch", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			if _, err := c.Launch(p, "svc", 128); err != nil {
				t.Errorf("launch: %v", err)
			}
		}
	})
	run(t, c, "rebalance", func(p *sim.Proc) {
		moved, err := c.RebalanceOnce(p, 512)
		if err != nil {
			t.Errorf("rebalance: %v", err)
		}
		if moved {
			t.Error("rebalancer migrated on a balanced fleet")
		}
	})
	if c.Migrations != 0 {
		t.Fatalf("migrations = %d", c.Migrations)
	}
}
