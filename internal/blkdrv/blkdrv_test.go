package blkdrv

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"xoar/internal/hv"
	"xoar/internal/hw"
	"xoar/internal/sim"
	"xoar/internal/xenstore"
	"xoar/internal/xtypes"
)

type harness struct {
	env   *sim.Env
	h     *hv.Hypervisor
	back  *Backend
	front *Frontend
	guest *hv.Domain
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	env := sim.NewEnv(1)
	machine := hw.NewMachine(env)
	h := hv.New(env, machine)
	h.EnforceShardIVC = true

	bb, err := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "blkback", MemMB: 128, Shard: true})
	if err != nil {
		t.Fatal(err)
	}
	h.Unpause(hv.SystemCaller, bb.ID)
	guest, _ := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "guest", MemMB: 256})
	h.Unpause(hv.SystemCaller, guest.ID)
	h.LinkShardClient(hv.SystemCaller, bb.ID, guest.ID)

	logic := xenstore.NewLogic(env, xenstore.NewState())
	back := NewBackend(h, bb.ID, machine.Disks()[0], logic.Connect(bb.ID, true))
	front := NewFrontend(h, guest.ID, logic.Connect(guest.ID, true))
	return &harness{env: env, h: h, back: back, front: front, guest: guest}
}

func (hn *harness) boot(t *testing.T) {
	t.Helper()
	ok := false
	hn.env.Spawn("boot", func(p *sim.Proc) {
		hn.back.Start(p)
		if err := hn.back.CreateImage("guest-disk", 15*1024); err != nil {
			t.Error(err)
			return
		}
		if err := hn.back.CreateVbd(hn.guest.ID, "guest-disk"); err != nil {
			t.Error(err)
			return
		}
		if err := hn.front.Connect(p, hn.back); err != nil {
			t.Error(err)
			return
		}
		ok = true
	})
	hn.env.RunFor(10 * sim.Second)
	if !ok {
		t.Fatal("boot failed")
	}
}

func TestImageProxy(t *testing.T) {
	hn := newHarness(t)
	hn.boot(t)
	if err := hn.back.CreateImage("guest-disk", 10); !errors.Is(err, xtypes.ErrExists) {
		t.Fatalf("duplicate image: %v", err)
	}
	// Mounted image cannot be deleted.
	if err := hn.back.DeleteImage("guest-disk"); !errors.Is(err, xtypes.ErrInUse) {
		t.Fatalf("delete mounted: %v", err)
	}
	hn.back.CreateImage("spare", 10)
	if err := hn.back.DeleteImage("spare"); err != nil {
		t.Fatal(err)
	}
	if err := hn.back.DeleteImage("spare"); !errors.Is(err, xtypes.ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	hn.env.Shutdown()
}

func TestVbdRequiresImage(t *testing.T) {
	hn := newHarness(t)
	if err := hn.back.CreateVbd(hn.guest.ID, "nope"); !errors.Is(err, xtypes.ErrNotFound) {
		t.Fatalf("vbd without image: %v", err)
	}
	hn.env.Shutdown()
}

func TestImageSingleMount(t *testing.T) {
	hn := newHarness(t)
	hn.boot(t)
	other, _ := hn.h.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "other", MemMB: 64})
	hn.h.Unpause(hv.SystemCaller, other.ID)
	if err := hn.back.CreateVbd(other.ID, "guest-disk"); !errors.Is(err, xtypes.ErrInUse) {
		t.Fatalf("double mount: %v", err)
	}
	hn.env.Shutdown()
}

// A handshake that fails after the ring grant is mapped must unmap it: a
// valid grant advertised with a port the guest never allocated makes
// EvtchnBind fail, and the backend must not be left mapping the guest.
func TestFailedHandshakeUnmapsRing(t *testing.T) {
	hn := newHarness(t)
	var acceptErr error
	hn.env.Spawn("boot", func(p *sim.Proc) {
		hn.back.Start(p)
		if err := hn.back.CreateImage("guest-disk", 1024); err != nil {
			t.Error(err)
			return
		}
		if err := hn.back.CreateVbd(hn.guest.ID, "guest-disk"); err != nil {
			t.Error(err)
			return
		}
		ref, err := hn.h.Grant(hn.guest.ID, hn.back.Dom, 12, false)
		if err != nil {
			t.Error(err)
			return
		}
		v := hn.back.vbds[hn.guest.ID]
		hn.front.XS.Write(xenstore.TxNone, v.RingRefPath(0), fmt.Sprintf("%d/4242", ref))
		acceptErr = v.Accept()
	})
	hn.env.RunFor(10 * sim.Second)
	hn.env.Shutdown()
	if acceptErr == nil {
		t.Fatal("handshake with an unallocated port succeeded")
	}
	if mappers := hn.h.MM.MappersOf(hn.guest.ID); len(mappers) != 0 {
		t.Fatalf("failed handshake left the guest mapped by %v", mappers)
	}
}

// A vbd queue advertises one ring page and a port, nothing more. A
// vif-shaped tuple under the vbd key must fail with ErrInvalid before any
// page is mapped, not map its first ref and bind its second as a port.
func TestTrailingRingRefRejected(t *testing.T) {
	hn := newHarness(t)
	var acceptErr error
	hn.env.Spawn("boot", func(p *sim.Proc) {
		hn.back.Start(p)
		if err := hn.back.CreateImage("guest-disk", 1024); err != nil {
			t.Error(err)
			return
		}
		if err := hn.back.CreateVbd(hn.guest.ID, "guest-disk"); err != nil {
			t.Error(err)
			return
		}
		ref, err := hn.h.Grant(hn.guest.ID, hn.back.Dom, 12, false)
		if err != nil {
			t.Error(err)
			return
		}
		port, err := hn.h.EvtchnAllocUnbound(hn.guest.ID, hn.back.Dom)
		if err != nil {
			t.Error(err)
			return
		}
		v := hn.back.vbds[hn.guest.ID]
		hn.front.XS.Write(xenstore.TxNone, v.RingRefPath(0), fmt.Sprintf("%d/%d/99", ref, port))
		acceptErr = v.Accept()
	})
	hn.env.RunFor(10 * sim.Second)
	hn.env.Shutdown()
	if !errors.Is(acceptErr, xtypes.ErrInvalid) {
		t.Fatalf("accept of ref/port/99 = %v, want ErrInvalid", acceptErr)
	}
	if n := hn.h.MM.ForeignMapCount(hn.back.Dom, hn.guest.ID); n != 0 {
		t.Fatalf("malformed advertisement left %d ring pages mapped", n)
	}
}

func TestSequentialWriteBandwidth(t *testing.T) {
	hn := newHarness(t)
	hn.boot(t)
	const size = 110_000_000 // ~1s at disk bandwidth
	var elapsed float64
	hn.env.Spawn("app", func(p *sim.Proc) {
		t0 := p.Now()
		if err := hn.front.Write(p, size, true); err != nil {
			t.Error(err)
			return
		}
		elapsed = p.Now().Sub(t0).Seconds()
	})
	hn.env.RunFor(30 * sim.Second)
	hn.env.Shutdown()
	tput := float64(size) / elapsed / 1e6
	// Pipelined segments should reach near raw disk bandwidth.
	if tput < 95 || tput > 115 {
		t.Fatalf("throughput = %.1f MB/s", tput)
	}
	if hn.front.BytesWritten != size {
		t.Fatalf("bytes written = %d", hn.front.BytesWritten)
	}
}

func TestRandomReadsPaySeeks(t *testing.T) {
	hn := newHarness(t)
	hn.boot(t)
	var elapsed float64
	const ops = 50
	hn.env.Spawn("app", func(p *sim.Proc) {
		t0 := p.Now()
		for i := 0; i < ops; i++ {
			if err := hn.front.Read(p, 4096, false); err != nil {
				t.Error(err)
				return
			}
		}
		elapsed = p.Now().Sub(t0).Seconds()
	})
	hn.env.RunFor(30 * sim.Second)
	hn.env.Shutdown()
	// 50 random 4K reads at ~8ms seek each ≈ 0.4s.
	if elapsed < 0.35 || elapsed > 0.6 {
		t.Fatalf("50 random reads took %.3fs", elapsed)
	}
}

func TestRestartBreaksAndRecovers(t *testing.T) {
	hn := newHarness(t)
	hn.boot(t)
	var recovered bool
	hn.env.Spawn("app", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			if err := hn.front.Write(p, SegmentBytes, true); err != nil {
				if !hn.front.WaitReconnect(p, 5*sim.Second) {
					t.Error("reconnect failed")
					return
				}
				recovered = true
			}
		}
	})
	hn.env.Spawn("restarter", func(p *sim.Proc) {
		p.Sleep(20 * sim.Millisecond)
		hn.back.Restart(p, false)
	})
	hn.env.RunFor(30 * sim.Second)
	hn.env.Shutdown()
	if !recovered {
		t.Fatal("frontend never saw the restart")
	}
	if hn.back.RestartCount != 1 {
		t.Fatalf("restarts = %d", hn.back.RestartCount)
	}
}

// A microreboot republishes the vbd's backend state: init while the
// backend is down, connected once it is back.
func TestRestartRepublishesVbdState(t *testing.T) {
	hn := newHarness(t)
	hn.boot(t)
	path := fmt.Sprintf("/local/domain/%d/backend/vbd/%d/state", hn.back.Dom, hn.guest.ID)
	var during string
	hn.env.Spawn("restarter", func(p *sim.Proc) { hn.back.Restart(p, false) })
	hn.env.Spawn("observer", func(p *sim.Proc) {
		p.Sleep(100 * sim.Millisecond) // inside the 260ms slow restart
		during, _ = hn.back.XS.Read(xenstore.TxNone, path)
	})
	hn.env.RunFor(sim.Second)
	hn.env.Shutdown()
	after, _ := hn.back.XS.Read(xenstore.TxNone, path)
	if during != "init" || after != "connected" {
		t.Fatalf("vbd state = %q during the restart, %q after; want init, connected", during, after)
	}
}

// The rings survive a microreboot, so the backend keeps exactly the ring
// page it mapped at connect time.
func TestRestartKeepsRingsMapped(t *testing.T) {
	hn := newHarness(t)
	hn.boot(t)
	before := hn.h.MM.ForeignMapCount(hn.back.Dom, hn.guest.ID)
	hn.env.Spawn("restarter", func(p *sim.Proc) { hn.back.Restart(p, false) })
	hn.env.RunFor(sim.Second)
	hn.env.Shutdown()
	if after := hn.h.MM.ForeignMapCount(hn.back.Dom, hn.guest.ID); after != before || before == 0 {
		t.Fatalf("ring pages mapped: %d before the restart, %d after", before, after)
	}
}

func TestFlushBarrier(t *testing.T) {
	hn := newHarness(t)
	hn.boot(t)
	hn.env.Spawn("app", func(p *sim.Proc) {
		if err := hn.front.Flush(p); err != nil {
			t.Error(err)
		}
	})
	hn.env.RunFor(5 * sim.Second)
	hn.env.Shutdown()
	if hn.back.CompletedReqs != 1 {
		t.Fatalf("completed = %d", hn.back.CompletedReqs)
	}
}

// Removing a live guest's vbd unmaps its ring page: the backend must not
// keep mapping the guest's memory once the device is gone.
func TestRemoveVbdUnmapsRing(t *testing.T) {
	hn := newHarness(t)
	hn.boot(t)
	if n := hn.h.MM.ForeignMapCount(hn.back.Dom, hn.guest.ID); n != 1 {
		t.Fatalf("connected vbd maps %d ring pages, want 1", n)
	}
	hn.back.RemoveVbd(hn.guest.ID)
	hn.env.Shutdown()
	if n := hn.h.MM.ForeignMapCount(hn.back.Dom, hn.guest.ID); n != 0 {
		t.Fatalf("removed vbd left %d ring pages mapped", n)
	}
	for _, m := range hn.h.MM.MappersOf(hn.guest.ID) {
		if m == hn.back.Dom {
			t.Fatal("blkback still maps the guest after RemoveVbd")
		}
	}
}

func TestRemoveVbdReleasesImage(t *testing.T) {
	hn := newHarness(t)
	hn.boot(t)
	hn.back.RemoveVbd(hn.guest.ID)
	if err := hn.back.DeleteImage("guest-disk"); err != nil {
		t.Fatalf("delete after unmount: %v", err)
	}
	hn.env.Shutdown()
}

// A 4-ring vbd stripes segments across its rings and completes a large
// transfer; the worker batches keep descriptors-per-wakeup well above one.
func TestMultiQueueVbdStriping(t *testing.T) {
	hn := newHarness(t)
	ok := false
	hn.env.Spawn("boot", func(p *sim.Proc) {
		hn.back.Start(p)
		if err := hn.back.CreateImage("guest-disk", 15*1024); err != nil {
			t.Error(err)
			return
		}
		if err := hn.back.CreateVbdQueues(hn.guest.ID, "guest-disk", 4); err != nil {
			t.Error(err)
			return
		}
		if err := hn.front.Connect(p, hn.back); err != nil {
			t.Error(err)
			return
		}
		if hn.front.Queues() != 4 {
			t.Errorf("queues = %d", hn.front.Queues())
		}
		const bytes = 16 * 1024 * 1024
		if err := hn.front.Read(p, bytes, true); err != nil {
			t.Error(err)
			return
		}
		ok = true
	})
	hn.env.RunFor(120 * sim.Second)
	if !ok {
		t.Fatal("striped read did not complete")
	}
	want := int64(16 * 1024 * 1024 / SegmentBytes)
	if hn.back.CompletedReqs != want {
		t.Fatalf("completed %d/%d", hn.back.CompletedReqs, want)
	}
	// Every ring must have carried descriptors.
	for qi, q := range hn.back.vbds[hn.guest.ID].queues {
		if q.ring.Stats().ReqPushed == 0 {
			t.Fatalf("queue %d idle", qi)
		}
	}
}

// Deep pipelined IO amortizes notifies: the frontend keeps the ring full
// while the worker is disk-bound, so request pushes are suppressed.
func TestBlkBatchingAmortizesNotifies(t *testing.T) {
	hn := newHarness(t)
	hn.boot(t)
	done := false
	hn.env.Spawn("io", func(p *sim.Proc) {
		if err := hn.front.Read(p, 32*1024*1024, true); err != nil {
			t.Error(err)
			return
		}
		done = true
	})
	hn.env.RunFor(600 * sim.Second)
	if !done {
		t.Fatal("read did not complete")
	}
	st := hn.back.DataPathStats()
	if st.ReqDescs == 0 || st.ReqNotifies == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if ratio := float64(st.ReqDescs) / float64(st.ReqNotifies); ratio < 4 {
		t.Fatalf("%.1f request descs per notify, want >= 4", ratio)
	}
}

// A microreboot kills and respawns the workers of every vbd in DomID order,
// not in the order Go's map iteration happens to pick, so each restart
// spawns the same sequence of processes.
func TestRestartRespawnsWorkersInDomIDOrder(t *testing.T) {
	hn := newHarness(t)
	const restarts = 20
	var spawned []string
	hn.env.SetTrace(func(ev sim.TraceEvent) {
		if ev.Kind == "spawn" && strings.HasPrefix(ev.Proc, "blkback-") {
			spawned = append(spawned, ev.Proc)
		}
	})
	hn.env.Spawn("restarter", func(p *sim.Proc) {
		hn.back.Start(p)
		for _, g := range []xtypes.DomID{9, 3, 6} {
			image := fmt.Sprintf("disk-%v", g)
			if err := hn.back.CreateImage(image, 64); err != nil {
				t.Error(err)
				return
			}
			if err := hn.back.CreateVbd(g, image); err != nil {
				t.Error(err)
				return
			}
		}
		for i := 0; i < restarts; i++ {
			hn.back.Restart(p, true)
		}
	})
	hn.env.RunFor(20 * sim.Second)
	hn.env.Shutdown()
	var want []string
	for _, g := range []xtypes.DomID{3, 6, 9} {
		want = append(want, fmt.Sprintf("blkback-%v-q0", g))
	}
	if len(spawned) != restarts*len(want) {
		t.Fatalf("%d worker spawns over %d restarts, want %d", len(spawned), restarts, restarts*len(want))
	}
	for i := 0; i < restarts; i++ {
		if got := spawned[i*len(want) : (i+1)*len(want)]; !slices.Equal(got, want) {
			t.Fatalf("restart %d spawned %v, want %v", i, got, want)
		}
	}
}
