package sim

import (
	"math/rand"
	"testing"
)

func TestClockAdvances(t *testing.T) {
	env := NewEnv(1)
	var at Time
	env.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Second)
		at = p.Now()
	})
	env.RunAll()
	if at != Time(5*Second) {
		t.Fatalf("woke at %v, want 5s", at.Seconds())
	}
	if env.Now() != Time(5*Second) {
		t.Fatalf("clock at %v, want 5s", env.Now().Seconds())
	}
}

func TestSpawnOrderDeterministic(t *testing.T) {
	run := func() []int {
		env := NewEnv(42)
		var order []int
		for i := 0; i < 10; i++ {
			i := i
			env.Spawn("p", func(p *Proc) {
				p.Sleep(Duration(10-i) * Millisecond)
				order = append(order, i)
			})
		}
		env.RunAll()
		return order
	}
	a, b := run(), run()
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("runs incomplete: %v %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic order: %v vs %v", a, b)
		}
		if a[i] != 9-i {
			t.Fatalf("wrong wake order: %v", a)
		}
	}
}

func TestEqualTimeEventsFIFO(t *testing.T) {
	env := NewEnv(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		env.Spawn("p", func(p *Proc) {
			p.Sleep(Millisecond)
			order = append(order, i)
		})
	}
	env.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events not FIFO: %v", order)
		}
	}
}

func TestAfterCallbackAndCancel(t *testing.T) {
	env := NewEnv(1)
	fired := 0
	env.After(Second, func() { fired++ })
	cancel := env.After(2*Second, func() { fired += 100 })
	cancel()
	env.RunAll()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (canceled callback must not run)", fired)
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	env := NewEnv(1)
	ticks := 0
	env.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(Second)
			ticks++
		}
	})
	env.Run(Time(4*Second + Millisecond))
	if ticks != 4 {
		t.Fatalf("ticks = %d, want 4", ticks)
	}
	env.Shutdown()
	if env.LiveProcs() != 0 {
		t.Fatalf("leaked %d procs", env.LiveProcs())
	}
}

func TestAwaitStopsOnFirstStepAfterReturn(t *testing.T) {
	for _, tc := range []struct {
		work Duration // how long fn runs
		want Duration // clock advance when Await returns
	}{
		{0, Second},
		{Second, Second},
		{2500 * Millisecond, 3 * Second},
		{3 * Second, 3 * Second},
	} {
		env := NewEnv(1)
		env.RunFor(300 * Millisecond) // start off a step boundary
		start := env.Now()
		if !env.Await("work", 10*Second, func(p *Proc) { p.Sleep(tc.work) }) {
			t.Fatalf("work %v: Await reported a timeout", tc.work)
		}
		if got := env.Now().Sub(start); got != tc.want {
			t.Fatalf("work %v: clock advanced %v, want %v", tc.work, got, tc.want)
		}
		env.Shutdown()
	}
}

func TestAwaitTimesOutAtLimit(t *testing.T) {
	for _, limit := range []Duration{0, 2 * Second, 2500 * Millisecond} {
		env := NewEnv(1)
		env.RunFor(300 * Millisecond)
		start := env.Now()
		block := NewGate(env)
		if env.Await("stuck", limit, func(p *Proc) { block.Wait(p) }) {
			t.Fatalf("limit %v: Await reported completion of a blocked process", limit)
		}
		if got := env.Now().Sub(start); got != limit {
			t.Fatalf("limit %v: clock advanced %v, want the limit", limit, got)
		}
		env.Shutdown()
		if env.LiveProcs() != 0 {
			t.Fatalf("limit %v: leaked %d procs", limit, env.LiveProcs())
		}
	}
}

func TestKillUnwindsProcess(t *testing.T) {
	env := NewEnv(1)
	reached := false
	p := env.Spawn("victim", func(p *Proc) {
		p.Sleep(10 * Second)
		reached = true
	})
	env.Spawn("killer", func(q *Proc) {
		q.Sleep(Second)
		p.Kill()
	})
	env.RunAll()
	if reached {
		t.Fatal("killed process kept running")
	}
	if !p.Done() {
		t.Fatal("killed process not marked done")
	}
}

func TestChanFIFOAndBlocking(t *testing.T) {
	env := NewEnv(1)
	ch := NewChan[int](env)
	var got []int
	var recvAt Time
	env.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			v, ok := ch.Recv(p)
			if !ok {
				t.Error("unexpected close")
				return
			}
			got = append(got, v)
		}
		recvAt = p.Now()
	})
	env.Spawn("send", func(p *Proc) {
		p.Sleep(Second)
		ch.Send(1)
		ch.Send(2)
		p.Sleep(Second)
		ch.Send(3)
	})
	env.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
	if recvAt != Time(2*Second) {
		t.Fatalf("last recv at %vs, want 2s", recvAt.Seconds())
	}
}

func TestChanClose(t *testing.T) {
	env := NewEnv(1)
	ch := NewChan[int](env)
	var sawClose bool
	env.Spawn("recv", func(p *Proc) {
		ch.Send(7)
		ch.Close()
		if v, ok := ch.Recv(p); !ok || v != 7 {
			t.Errorf("Recv = %d,%v; want 7,true", v, ok)
		}
		if _, ok := ch.Recv(p); ok {
			t.Error("Recv on closed drained chan returned ok")
		}
		sawClose = true
	})
	env.RunAll()
	if !sawClose {
		t.Fatal("receiver never ran")
	}
}

func TestChanRecvTimeout(t *testing.T) {
	env := NewEnv(1)
	ch := NewChan[int](env)
	var ok1, ok2 bool
	var t1 Time
	env.Spawn("recv", func(p *Proc) {
		_, ok1 = ch.RecvTimeout(p, 2*Second)
		t1 = p.Now()
		_, ok2 = ch.RecvTimeout(p, 5*Second)
	})
	env.Spawn("send", func(p *Proc) {
		p.Sleep(3 * Second)
		ch.Send(9)
	})
	env.RunAll()
	if ok1 {
		t.Fatal("first recv should have timed out")
	}
	if t1 != Time(2*Second) {
		t.Fatalf("timeout at %vs, want 2s", t1.Seconds())
	}
	if !ok2 {
		t.Fatal("second recv should have succeeded")
	}
}

func TestResourceSerializes(t *testing.T) {
	env := NewEnv(1)
	cpu := NewResource(env, 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		env.Spawn("user", func(p *Proc) {
			cpu.Use(p, Second)
			finish = append(finish, p.Now())
		})
	}
	env.RunAll()
	want := []Time{Time(Second), Time(2 * Second), Time(3 * Second)}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish times %v, want %v", finish, want)
		}
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	env := NewEnv(1)
	r := NewResource(env, 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		env.Spawn("user", func(p *Proc) {
			r.Use(p, Second)
			finish = append(finish, p.Now())
		})
	}
	env.RunAll()
	// Two run in [0,1], two in [1,2].
	if finish[1] != Time(Second) || finish[3] != Time(2*Second) {
		t.Fatalf("finish times %v", finish)
	}
}

func TestUseChunkedInterleaves(t *testing.T) {
	env := NewEnv(1)
	cpu := NewResource(env, 1)
	var aDone, bDone Time
	env.Spawn("a", func(p *Proc) {
		cpu.UseChunked(p, 10*Millisecond, Millisecond)
		aDone = p.Now()
	})
	env.Spawn("b", func(p *Proc) {
		cpu.UseChunked(p, 10*Millisecond, Millisecond)
		bDone = p.Now()
	})
	env.RunAll()
	// Both should finish near 20ms (fair interleave), not one at 10ms.
	if aDone < Time(18*Millisecond) || bDone != Time(20*Millisecond) {
		t.Fatalf("aDone=%v bDone=%v; want both near 20ms", aDone, bDone)
	}
}

func TestGate(t *testing.T) {
	env := NewEnv(1)
	g := NewGate(env)
	var passedAt []Time
	for i := 0; i < 2; i++ {
		env.Spawn("waiter", func(p *Proc) {
			g.Wait(p)
			passedAt = append(passedAt, p.Now())
		})
	}
	env.Spawn("opener", func(p *Proc) {
		p.Sleep(2 * Second)
		g.Open()
	})
	env.Spawn("late", func(p *Proc) {
		p.Sleep(3 * Second)
		g.Wait(p) // already open: passes immediately
		passedAt = append(passedAt, p.Now())
	})
	env.RunAll()
	if len(passedAt) != 3 {
		t.Fatalf("passed %d waiters, want 3", len(passedAt))
	}
	if passedAt[0] != Time(2*Second) || passedAt[2] != Time(3*Second) {
		t.Fatalf("pass times %v", passedAt)
	}
}

func TestSignalBroadcastWakesAll(t *testing.T) {
	env := NewEnv(1)
	s := NewSignal(env)
	woke := 0
	for i := 0; i < 5; i++ {
		env.Spawn("w", func(p *Proc) {
			s.Wait(p)
			woke++
		})
	}
	env.Spawn("b", func(p *Proc) {
		p.Sleep(Second)
		s.Broadcast()
	})
	env.RunAll()
	if woke != 5 {
		t.Fatalf("woke = %d, want 5", woke)
	}
}

func TestDeterministicRand(t *testing.T) {
	a := NewEnv(7).Rand().Int63()
	b := NewEnv(7).Rand().Int63()
	if a != b {
		t.Fatal("same seed produced different values")
	}
	// The source is seeded on first use, after the Env has run, and draws
	// exactly the sequence of a source seeded with the Env's seed.
	env := NewEnv(7)
	env.Spawn("idle", func(p *Proc) { p.Sleep(Second) })
	env.RunAll()
	got, want := env.Rand(), rand.New(rand.NewSource(7))
	for i := 0; i < 64; i++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("draw %d = %d, want %d", i, g, w)
		}
	}
	if env.Rand() != got {
		t.Fatal("Rand returned a second source")
	}
}

func TestDurationString(t *testing.T) {
	cases := map[Duration]string{
		2 * Second:           "2.000s",
		250 * Millisecond:    "250.000ms",
		3 * Microsecond:      "3µs",
		Duration(5):          "5ns",
		1500 * Millisecond:   "1.500s",
		Duration(900) * 1000: "900µs",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(d), got, want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(Second)
	t1 := t0.Add(500 * Millisecond)
	if t1.Sub(t0) != 500*Millisecond {
		t.Fatalf("Sub = %v", t1.Sub(t0))
	}
	if t1.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v", t1.Seconds())
	}
}

// Regression: a canceled timer sitting at the heap root must not let Run
// execute events beyond its deadline (it once did, skewing every
// RunFor-driven loop that raced a RecvTimeout cancellation).
func TestRunRespectsDeadlineWithCanceledRoot(t *testing.T) {
	env := NewEnv(1)
	cancel := env.After(Second, func() { t.Error("canceled callback ran") })
	cancel()
	late := false
	env.After(10*Second, func() { late = true })
	env.Run(Time(2 * Second))
	if late {
		t.Fatal("event beyond deadline executed")
	}
	if env.Now() != Time(2*Second) {
		t.Fatalf("now = %v", env.Now())
	}
	env.RunAll()
	if !late {
		t.Fatal("event never ran")
	}
}

// A deadline behind the clock must not move it back: the same-instant lane
// holds events due at the current instant only, so a clock that stepped
// back under a pending Post would dispatch later work first.
func TestRunPastDeadlineKeepsClock(t *testing.T) {
	env := NewEnv(1)
	env.RunFor(10 * Millisecond)
	var order []int
	env.Post(func() { order = append(order, 1) })
	if got := env.Run(Time(5 * Millisecond)); got != Time(10*Millisecond) {
		t.Fatalf("Run(5ms) at 10ms returned %v", got.Seconds())
	}
	env.Post(func() { order = append(order, 2) })
	env.RunAll()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("dispatch order %v, want [1 2]", order)
	}
	if env.Now() != Time(10*Millisecond) {
		t.Fatalf("clock at %v, want 10ms", env.Now().Seconds())
	}
}

func TestTraceHook(t *testing.T) {
	env := NewEnv(1)
	var got []TraceEvent
	env.SetTrace(func(ev TraceEvent) { got = append(got, ev) })
	p := env.Spawn("worker", func(p *Proc) { p.Sleep(Second) })
	env.After(Millisecond, func() {})
	env.Spawn("killer", func(q *Proc) { p.Kill() })
	env.RunAll()
	kinds := map[string]int{}
	for _, ev := range got {
		kinds[ev.Kind]++
	}
	if kinds["spawn"] != 2 || kinds["resume"] < 2 || kinds["callback"] != 1 || kinds["kill"] != 1 {
		t.Fatalf("trace = %v", got)
	}
	// Removing the hook stops events.
	env.SetTrace(nil)
	n := len(got)
	env.Spawn("late", func(p *Proc) {})
	env.RunAll()
	if len(got) != n {
		t.Fatal("trace fired after removal")
	}
	if got[0].String() == "" {
		t.Fatal("empty trace rendering")
	}
}

// A queue that never drains (the netback rx inbox under load) must reuse the
// slots its receiver has already consumed instead of growing with every
// message ever sent.
func TestChanBacklogReusesCapacity(t *testing.T) {
	env := NewEnv(1)
	c := NewChan[int](env)
	c.Send(-1)
	c.Send(-2)
	for i := 0; i < 100_000; i++ {
		c.Send(i)
		if _, ok := c.TryRecv(); !ok {
			t.Fatal("backlog drained")
		}
	}
	if c.Len() != 2 {
		t.Fatalf("backlog = %d, want 2", c.Len())
	}
	if n := cap(c.items); n > 8 {
		t.Fatalf("backing array holds %d slots for a backlog of 2", n)
	}
	if v, _ := c.TryRecv(); v != 99_998 {
		t.Fatalf("head = %d, want 99998 (FIFO order lost)", v)
	}
}
