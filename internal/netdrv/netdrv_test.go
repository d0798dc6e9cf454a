package netdrv

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"xoar/internal/hv"
	"xoar/internal/hw"
	"xoar/internal/sim"
	"xoar/internal/snapshot"
	"xoar/internal/xenstore"
	"xoar/internal/xtypes"
)

type harness struct {
	env   *sim.Env
	h     *hv.Hypervisor
	back  *Backend
	front *Frontend
	guest *hv.Domain
	nb    *hv.Domain
}

func newHarness(t *testing.T, link bool) *harness {
	t.Helper()
	env := sim.NewEnv(1)
	machine := hw.NewMachine(env)
	h := hv.New(env, machine)
	h.EnforceShardIVC = true

	nb, err := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "netback", MemMB: 128, Shard: true})
	if err != nil {
		t.Fatal(err)
	}
	h.Unpause(hv.SystemCaller, nb.ID)
	h.AssignPrivileges(hv.SystemCaller, nb.ID, hv.Assignment{
		PCIDevices: []xtypes.PCIAddr{machine.NICs()[0].Addr()},
		Hypercalls: []xtypes.Hypercall{xtypes.HyperVMSnapshot},
	})
	guest, err := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "guest", MemMB: 256})
	if err != nil {
		t.Fatal(err)
	}
	h.Unpause(hv.SystemCaller, guest.ID)

	logic := xenstore.NewLogic(xenstore.NewState())
	backXS := logic.Connect(nb.ID, true)
	frontXS := logic.Connect(guest.ID, true)

	back := NewBackend(h, nb.ID, machine.NICs()[0], backXS)
	front := NewFrontend(h, guest.ID, frontXS)
	if link {
		if err := h.LinkShardClient(hv.SystemCaller, nb.ID, guest.ID); err != nil {
			t.Fatal(err)
		}
	}
	return &harness{env: env, h: h, back: back, front: front, guest: guest, nb: nb}
}

func (hn *harness) startAndConnect(t *testing.T) {
	t.Helper()
	done := false
	hn.env.Spawn("boot", func(p *sim.Proc) {
		hn.back.Start(p)
		hn.back.CreateVif(hn.guest.ID)
		if err := hn.front.Connect(p, hn.back); err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		done = true
	})
	hn.env.RunFor(10 * sim.Second)
	if !done {
		t.Fatal("handshake did not complete")
	}
}

func TestHandshakeRequiresShardLink(t *testing.T) {
	hn := newHarness(t, false)
	var connectErr error
	hn.env.Spawn("boot", func(p *sim.Proc) {
		hn.back.Start(p)
		hn.back.CreateVif(hn.guest.ID)
		connectErr = hn.front.Connect(p, hn.back)
	})
	hn.env.RunFor(10 * sim.Second)
	hn.env.Shutdown()
	if !errors.Is(connectErr, xtypes.ErrNotDelegated) {
		t.Fatalf("connect without link: %v", connectErr)
	}
}

func TestHandshakeAndXenStoreStates(t *testing.T) {
	hn := newHarness(t, true)
	hn.startAndConnect(t)
	st, err := hn.back.XS.Read("/local/domain/0/backend/vif/1/state")
	if err != nil || st != "connected" {
		t.Fatalf("backend vif state = %q, %v", st, err)
	}
	st, _ = hn.front.XS.Read("/local/domain/1/device/vif/0/state")
	if st != "connected" {
		t.Fatalf("frontend state = %q", st)
	}
	if !hn.front.Connected() {
		t.Fatal("frontend not connected")
	}
	hn.env.Shutdown()
}

func TestRxPathThroughput(t *testing.T) {
	hn := newHarness(t, true)
	hn.startAndConnect(t)

	const total = 117_000_000 // ~1s at line rate
	var start, end sim.Time
	var received int64
	// Remote peer pushes chunks onto the wire.
	hn.env.Spawn("remote", func(p *sim.Proc) {
		start = p.Now()
		var seq int64
		for sent := 0; sent < total; sent += ChunkBytes {
			hn.back.WireDeliver(p, hn.guest.ID, ChunkBytes, seq)
			seq++
		}
	})
	// Guest consumes.
	hn.env.Spawn("guest-app", func(p *sim.Proc) {
		for received < total {
			pkt, err := hn.front.Recv(p)
			if err != nil {
				t.Error(err)
				return
			}
			received += int64(pkt.Bytes)
			end = p.Now()
		}
	})
	hn.env.RunFor(30 * sim.Second)
	hn.env.Shutdown()
	if received < total {
		t.Fatalf("received %d of %d", received, total)
	}
	elapsed := end.Sub(start).Seconds()
	tput := float64(received) / elapsed / 1e6
	// The virtual path should sustain near line rate (>100MB/s).
	if tput < 100 || tput > 120 {
		t.Fatalf("throughput = %.1f MB/s", tput)
	}
	if hn.back.DataPathStats().RxDescs == 0 {
		t.Fatal("no rx descriptors pushed")
	}
}

func TestTxPath(t *testing.T) {
	hn := newHarness(t, true)
	hn.startAndConnect(t)
	const chunks = 100
	var wire int64
	hn.back.TxSink = func(_ xtypes.DomID, pkt Packet) { wire += int64(pkt.Bytes) }
	hn.env.Spawn("guest-app", func(p *sim.Proc) {
		for i := 0; i < chunks; i++ {
			if err := hn.front.Send(p, ChunkBytes, int64(i)); err != nil {
				t.Error(err)
				return
			}
		}
	})
	hn.env.RunFor(10 * sim.Second)
	hn.env.Shutdown()
	if wire != chunks*ChunkBytes {
		t.Fatalf("bytes off the wire = %d, want %d", wire, chunks*ChunkBytes)
	}
}

func TestRestartDowntimes(t *testing.T) {
	for _, tc := range []struct {
		fast bool
		want sim.Duration
	}{
		{fast: false, want: 260 * sim.Millisecond},
		{fast: true, want: 140 * sim.Millisecond},
	} {
		hn := newHarness(t, true)
		hn.startAndConnect(t)
		var downtime sim.Duration
		hn.env.Spawn("restarter", func(p *sim.Proc) {
			t0 := p.Now()
			hn.back.Restart(p, tc.fast)
			downtime = p.Now().Sub(t0)
		})
		hn.env.RunFor(20 * sim.Second)
		hn.env.Shutdown()
		if math.Abs(downtime.Seconds()-tc.want.Seconds()) > 0.005 {
			t.Errorf("fast=%v downtime = %v, want %v", tc.fast, downtime, tc.want)
		}
		if hn.back.Gate.Closed() {
			t.Errorf("fast=%v backend not serving after restart", tc.fast)
		}
	}
}

func TestPacketsDroppedDuringRestart(t *testing.T) {
	hn := newHarness(t, true)
	hn.startAndConnect(t)
	var delivered, dropped int
	hn.env.Spawn("restarter", func(p *sim.Proc) {
		p.Sleep(10 * sim.Millisecond)
		hn.back.Restart(p, false)
	})
	hn.env.Spawn("remote", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			if hn.back.WireDeliver(p, hn.guest.ID, ChunkBytes, int64(i)) {
				delivered++
			} else {
				dropped++
			}
			p.Sleep(5 * sim.Millisecond)
		}
	})
	hn.env.Spawn("guest-app", func(p *sim.Proc) {
		for {
			if _, err := hn.front.Recv(p); err != nil {
				if !hn.front.WaitReconnect(p, 5*sim.Second) {
					return
				}
			}
		}
	})
	hn.env.RunFor(5 * sim.Second)
	hn.env.Shutdown()
	if dropped == 0 {
		t.Fatal("no packets dropped during a 260ms outage with 5ms spacing")
	}
	// Roughly 260ms/5ms ≈ 52 drops; allow slack for pipeline effects.
	if dropped < 40 || dropped > 70 {
		t.Fatalf("dropped = %d, want ~52", dropped)
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestFrontendReconnectAfterRestart(t *testing.T) {
	hn := newHarness(t, true)
	hn.startAndConnect(t)
	var sawBreak, reconnected bool
	var resumedBytes int64
	hn.env.Spawn("guest-app", func(p *sim.Proc) {
		for {
			pkt, err := hn.front.Recv(p)
			if err != nil {
				sawBreak = true
				if !hn.front.WaitReconnect(p, 5*sim.Second) {
					t.Error("reconnect timed out")
					return
				}
				reconnected = true
				continue
			}
			resumedBytes += int64(pkt.Bytes)
			if reconnected {
				return // received data after reconnect: done
			}
		}
	})
	hn.env.Spawn("restarter", func(p *sim.Proc) {
		p.Sleep(50 * sim.Millisecond)
		hn.back.Restart(p, false)
	})
	hn.env.Spawn("remote", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			hn.back.WireDeliver(p, hn.guest.ID, ChunkBytes, int64(i))
			p.Sleep(10 * sim.Millisecond)
		}
	})
	hn.env.RunFor(10 * sim.Second)
	hn.env.Shutdown()
	if !sawBreak {
		t.Fatal("frontend never observed the disconnect")
	}
	if !reconnected || resumedBytes == 0 {
		t.Fatalf("reconnected=%v resumedBytes=%d", reconnected, resumedBytes)
	}
}

func TestBackendIsRestartable(t *testing.T) {
	hn := newHarness(t, true)
	hn.startAndConnect(t)
	hn.guest.Mem.Write(0, []byte("x")) // unrelated guest write
	hn.nb.Mem.Write(0, []byte("netback init state"))
	if err := hn.h.VMSnapshot(hn.nb.ID); err != nil {
		t.Fatal(err)
	}
	eng := snapshot.NewEngine(hn.h, hv.SystemCaller)
	if err := eng.Manage(hn.back, snapshot.Policy{Kind: snapshot.PolicyTimer, Interval: sim.Second}); err != nil {
		t.Fatal(err)
	}
	hn.env.RunFor(3500 * sim.Millisecond)
	hn.env.Shutdown()
	st, ok := eng.Stats(hn.nb.ID)
	if !ok || st.Restarts < 2 {
		t.Fatalf("engine stats = %+v", st)
	}
	// Downtime per restart must be ~260ms (slow mode).
	avg := st.TotalDowntime.Seconds() / float64(st.Restarts)
	if math.Abs(avg-0.26) > 0.02 {
		t.Fatalf("avg downtime = %.3fs", avg)
	}
}

func TestRemoveVif(t *testing.T) {
	hn := newHarness(t, true)
	hn.startAndConnect(t)
	hn.back.RemoveVif(hn.guest.ID)
	hn.env.Spawn("remote", func(p *sim.Proc) {
		if hn.back.WireDeliver(p, hn.guest.ID, ChunkBytes, 0) {
			t.Error("delivery to removed vif succeeded")
		}
	})
	hn.env.RunFor(sim.Second)
	hn.env.Shutdown()
	if _, err := hn.back.XS.Read("/local/domain/0/backend/vif/1/state"); err == nil {
		t.Fatal("vif xenstore node survived removal")
	}
}

// Removing a live guest's vif unmaps both of its ring pages: the backend
// must not keep mapping the guest's memory once the device is gone.
func TestRemoveVifUnmapsRings(t *testing.T) {
	hn := newHarness(t, true)
	hn.startAndConnect(t)
	if n := hn.h.MM.ForeignMapCount(hn.nb.ID, hn.guest.ID); n != 2 {
		t.Fatalf("connected vif maps %d ring pages, want 2", n)
	}
	hn.back.RemoveVif(hn.guest.ID)
	hn.env.Shutdown()
	if n := hn.h.MM.ForeignMapCount(hn.nb.ID, hn.guest.ID); n != 0 {
		t.Fatalf("removed vif left %d ring pages mapped", n)
	}
	for _, m := range hn.h.MM.MappersOf(hn.guest.ID) {
		if m == hn.nb.ID {
			t.Fatal("netback still maps the guest after RemoveVif")
		}
	}
}

// The rings survive a microreboot, so the backend keeps exactly the ring
// pages it mapped at connect time.
func TestRestartKeepsRingsMapped(t *testing.T) {
	hn := newHarness(t, true)
	hn.startAndConnect(t)
	before := hn.h.MM.ForeignMapCount(hn.nb.ID, hn.guest.ID)
	hn.env.Spawn("restarter", func(p *sim.Proc) { hn.back.Restart(p, false) })
	hn.env.RunFor(sim.Second)
	hn.env.Shutdown()
	if after := hn.h.MM.ForeignMapCount(hn.nb.ID, hn.guest.ID); after != before || before == 0 {
		t.Fatalf("ring pages mapped: %d before the restart, %d after", before, after)
	}
}

// Without a vif provisioned by the toolstack the guest is not attached to
// this backend, so Connect must refuse with ErrNotFound.
func TestConnectWithoutVifNotFound(t *testing.T) {
	hn := newHarness(t, true)
	var connErr error
	hn.env.Spawn("boot", func(p *sim.Proc) {
		hn.back.Start(p)
		connErr = hn.front.Connect(p, hn.back)
	})
	hn.env.RunFor(10 * sim.Second)
	hn.env.Shutdown()
	if !errors.Is(connErr, xtypes.ErrNotFound) {
		t.Fatalf("connect without a vif: %v", connErr)
	}
	if hn.front.Connected() {
		t.Fatal("connected without a provisioned vif")
	}
}

// When a later queue's handshake fails, the rings of the queues before it
// must be unmapped too: here queue 1 advertises a port the guest never
// allocated, and no ring page of queue 0 may stay mapped afterwards.
func TestFailedQueueHandshakeUnmapsEarlierQueues(t *testing.T) {
	hn := newHarness(t, true)
	var acceptErr error
	hn.env.Spawn("boot", func(p *sim.Proc) {
		hn.back.Start(p)
		v := hn.back.CreateVifQueues(hn.guest.ID, 2)
		if err := v.Advertise(hn.front.XS); err != nil {
			t.Error(err)
			return
		}
		path := v.RingRefPath(1)
		adv, err := hn.front.XS.Read(path)
		if err != nil {
			t.Error(err)
			return
		}
		// Keep queue 1's grants and replace its port.
		hn.front.XS.Write(path, adv[:strings.LastIndexByte(adv, '/')]+"/4242")
		acceptErr = v.Accept()
	})
	hn.env.RunFor(10 * sim.Second)
	hn.env.Shutdown()
	if acceptErr == nil {
		t.Fatal("handshake with an unallocated port succeeded")
	}
	if n := hn.h.MM.ForeignMapCount(hn.nb.ID, hn.guest.ID); n != 0 {
		t.Fatalf("failed handshake left %d ring pages mapped", n)
	}
}

// A 4-queue vif spreads flows across its rings and still delivers every
// packet in both directions.
func TestMultiQueueVifRoundTrip(t *testing.T) {
	hn := newHarness(t, true)
	done := false
	hn.env.Spawn("boot", func(p *sim.Proc) {
		hn.back.Start(p)
		hn.back.CreateVifQueues(hn.guest.ID, 4)
		if err := hn.front.Connect(p, hn.back); err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		if n := len(hn.front.v.queues); n != 4 {
			t.Errorf("queues = %d", n)
		}
		done = true
	})
	hn.env.RunFor(10 * sim.Second)
	if !done {
		t.Fatal("handshake did not complete")
	}
	const flows = 64
	received, forwarded := 0, 0
	hn.back.TxSink = func(xtypes.DomID, Packet) { forwarded++ }
	hn.env.Spawn("guest-recv", func(p *sim.Proc) {
		for i := 0; i < flows; i++ {
			if _, err := hn.front.Recv(p); err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			received++
		}
	})
	hn.env.Spawn("wire", func(p *sim.Proc) {
		for i := 0; i < flows; i++ {
			if !hn.back.WireDeliver(p, hn.guest.ID, ChunkBytes, int64(i)) {
				t.Errorf("wire deliver %d dropped", i)
				return
			}
		}
	})
	hn.env.Spawn("guest-send", func(p *sim.Proc) {
		for i := 0; i < flows; i++ {
			if err := hn.front.Send(p, ChunkBytes, int64(i)); err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
	})
	hn.env.RunFor(30 * sim.Second)
	if received != flows {
		t.Fatalf("received %d/%d", received, flows)
	}
	if forwarded != flows {
		t.Fatalf("forwarded %d/%d onto the wire", forwarded, flows)
	}
	// Distinct flow ids must actually spread across queues.
	used := 0
	for _, q := range hn.back.vifs[hn.guest.ID].queues {
		if q.tx.Stats().ReqPushed > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("flows hashed onto %d queue(s)", used)
	}
}

// At tx saturation the frontend queues descriptors far faster than the wire
// drains them, so the backend services multi-descriptor batches and nearly
// every push is notify-suppressed; with suppression ablated (AlwaysNotify)
// the ratio collapses to one descriptor per notify.
func TestTxBatchingAmortizesNotifies(t *testing.T) {
	run := func(alwaysNotify bool) (descs, notifies int64) {
		hn := newHarness(t, true)
		hn.startAndConnect(t)
		hn.back.SetAlwaysNotify(alwaysNotify)
		const chunks = 200
		hn.env.Spawn("sender", func(p *sim.Proc) {
			for i := 0; i < chunks; i++ {
				if err := hn.front.Send(p, ChunkBytes, 1); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		})
		hn.env.RunFor(60 * sim.Second)
		st := hn.back.DataPathStats()
		if st.TxDescs != chunks {
			t.Fatalf("tx descs = %d", st.TxDescs)
		}
		return st.TxDescs, st.TxNotifies
	}
	descs, suppressed := run(false)
	if ratio := float64(descs) / float64(suppressed); ratio < 4 {
		t.Fatalf("suppressed run: %.1f descs/notify, want >= 4", ratio)
	}
	baseDescs, baseNotifies := run(true)
	if baseDescs != baseNotifies {
		t.Fatalf("ablated run: %d descs vs %d notifies, want 1:1", baseDescs, baseNotifies)
	}
}

// A microreboot kills and respawns the pumps of every vif in DomID order,
// not in the order Go's map iteration happens to pick, so each restart
// spawns the same sequence of processes.
func TestRestartRespawnsPumpsInDomIDOrder(t *testing.T) {
	hn := newHarness(t, true)
	const restarts = 20
	var spawned []string
	hn.env.SetTrace(func(ev sim.TraceEvent) {
		if ev.Kind == "spawn" && strings.HasPrefix(ev.Proc, "netback-") {
			spawned = append(spawned, ev.Proc)
		}
	})
	hn.env.Spawn("restarter", func(p *sim.Proc) {
		hn.back.Start(p)
		for _, g := range []xtypes.DomID{9, 3, 6} {
			hn.back.CreateVif(g)
		}
		for i := 0; i < restarts; i++ {
			hn.back.Restart(p, true)
		}
	})
	hn.env.RunFor(20 * sim.Second)
	hn.env.Shutdown()
	var want []string
	for _, g := range []xtypes.DomID{3, 6, 9} {
		want = append(want, fmt.Sprintf("netback-rx-%v-q0", g), fmt.Sprintf("netback-tx-%v-q0", g))
	}
	if len(spawned) != restarts*len(want) {
		t.Fatalf("%d pump spawns over %d restarts, want %d", len(spawned), restarts, restarts*len(want))
	}
	for i := 0; i < restarts; i++ {
		if got := spawned[i*len(want) : (i+1)*len(want)]; !slices.Equal(got, want) {
			t.Fatalf("restart %d spawned %v, want %v", i, got, want)
		}
	}
}
