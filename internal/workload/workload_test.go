package workload

import (
	"testing"

	"xoar/internal/boot"
	"xoar/internal/guest"
	"xoar/internal/hv"
	"xoar/internal/hw"
	"xoar/internal/osimage"
	"xoar/internal/sim"
	"xoar/internal/toolstack"
)

// platform boots the requested profile and creates one PV guest.
func platform(t *testing.T, monolithic bool) (*sim.Env, *guest.VM) {
	t.Helper()
	env := sim.NewEnv(1)
	h := hv.New(env, hw.NewMachine(env))
	pl, err := boot.Run(h, monolithic, boot.Options{})
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	var g *toolstack.Guest
	if !env.Await("setup", 120*sim.Second, func(p *sim.Proc) {
		g, err = pl.Toolstacks[0].CreateVM(p, toolstack.GuestConfig{
			Name: "guest", Image: osimage.ImgGuestPV, VCPUs: 2, Net: true, Disk: true,
		})
	}) {
		t.Fatal("setup incomplete")
	}
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	return env, VMOf(h, g)
}

func runPostmark(t *testing.T, monolithic bool, cfg PostmarkConfig) PostmarkResult {
	t.Helper()
	env, vm := platform(t, monolithic)
	defer env.Shutdown()
	var res PostmarkResult
	var err error
	env.Spawn("postmark", func(p *sim.Proc) {
		res, err = Postmark(p, vm, cfg)
	})
	env.RunFor(600 * sim.Second)
	if err != nil {
		t.Fatalf("postmark: %v", err)
	}
	return res
}

func TestPostmarkConfigNames(t *testing.T) {
	cfgs := Figure61Configs()
	want := []string{"1Kx50K", "20Kx50K", "20Kx100K", "20Kx100Kx100"}
	for i, c := range cfgs {
		if c.String() != want[i] {
			t.Errorf("config %d = %q, want %q", i, c, want[i])
		}
	}
}

func TestPostmarkMoreFilesSlower(t *testing.T) {
	small := runPostmark(t, false, PostmarkConfig{Files: 1000, Transactions: 20000})
	big := runPostmark(t, false, PostmarkConfig{Files: 20000, Transactions: 20000})
	if small.OpsPerSec <= big.OpsPerSec {
		t.Fatalf("1K files %.0f ops/s not faster than 20K files %.0f ops/s",
			small.OpsPerSec, big.OpsPerSec)
	}
}

func TestPostmarkDom0VsXoarParity(t *testing.T) {
	cfg := PostmarkConfig{Files: 20000, Transactions: 20000}
	xoar := runPostmark(t, false, cfg)
	dom0 := runPostmark(t, true, cfg)
	ratio := xoar.OpsPerSec / dom0.OpsPerSec
	// Figure 6.1: disk throughput "more or less unchanged".
	if ratio < 0.93 || ratio > 1.07 {
		t.Fatalf("xoar/dom0 postmark ratio = %.3f (xoar %.0f, dom0 %.0f)",
			ratio, xoar.OpsPerSec, dom0.OpsPerSec)
	}
}

func TestPostmarkSubdirsHelp(t *testing.T) {
	flat := runPostmark(t, false, PostmarkConfig{Files: 20000, Transactions: 20000})
	sub := runPostmark(t, false, PostmarkConfig{Files: 20000, Transactions: 20000, Subdirs: 100})
	if sub.OpsPerSec <= flat.OpsPerSec {
		t.Fatalf("subdirs %.0f ops/s not faster than flat %.0f ops/s", sub.OpsPerSec, flat.OpsPerSec)
	}
}

func runBuild(t *testing.T, monolithic bool, cfg BuildConfig) BuildResult {
	t.Helper()
	env, vm := platform(t, monolithic)
	defer env.Shutdown()
	var res BuildResult
	var err error
	env.Spawn("make", func(p *sim.Proc) {
		res, err = KernelBuild(p, vm, cfg)
	})
	env.RunFor(1000 * sim.Second)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return res
}

func TestKernelBuildLocalDuration(t *testing.T) {
	res := runBuild(t, false, BuildConfig{Steps: 400, Jobs: 2})
	// 400 steps × 0.4s / 2 jobs ≈ 80s plus I/O.
	if res.Elapsed.Seconds() < 75 || res.Elapsed.Seconds() > 100 {
		t.Fatalf("local build = %.1fs", res.Elapsed.Seconds())
	}
}

func TestKernelBuildNFSSlower(t *testing.T) {
	local := runBuild(t, false, BuildConfig{Steps: 200, Jobs: 2})
	nfs := runBuild(t, false, BuildConfig{Steps: 200, Jobs: 2, NFS: true})
	if nfs.Elapsed <= local.Elapsed {
		t.Fatalf("NFS build %.1fs not slower than local %.1fs",
			nfs.Elapsed.Seconds(), local.Elapsed.Seconds())
	}
	// But not catastrophically: NFS overhead is a modest fraction.
	if nfs.Elapsed.Seconds() > local.Elapsed.Seconds()*1.6 {
		t.Fatalf("NFS build %.1fs too slow vs local %.1fs",
			nfs.Elapsed.Seconds(), local.Elapsed.Seconds())
	}
}

func TestKernelBuildDom0VsXoarParity(t *testing.T) {
	cfg := BuildConfig{Steps: 200, Jobs: 2}
	xoar := runBuild(t, false, cfg)
	dom0 := runBuild(t, true, cfg)
	ratio := xoar.Elapsed.Seconds() / dom0.Elapsed.Seconds()
	// Figure 6.4: overhead much less than 1%; allow small model noise.
	if ratio < 0.98 || ratio > 1.02 {
		t.Fatalf("xoar/dom0 build ratio = %.3f", ratio)
	}
}

func TestVMOfWiresEverything(t *testing.T) {
	env, vm := platform(t, false)
	defer env.Shutdown()
	if vm.Net == nil || vm.Blk == nil || vm.NetB == nil || vm.BlkB == nil {
		t.Fatal("VMOf left fields nil")
	}
}
