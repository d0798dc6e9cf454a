package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

type boom struct{ code int }

// runRecover runs env until until and returns the value Run panicked with.
func runRecover(env *Env, until Time) (r any) {
	defer func() { r = recover() }()
	env.Run(until)
	return nil
}

// A panic in a process body reaches the caller of Run with its original
// value, after the body's own deferred calls ran.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	env := NewEnv(1)
	deferred := false
	env.Spawn("faulty", func(p *Proc) {
		defer func() { deferred = true }()
		p.Sleep(Second)
		panic(boom{7})
	})
	r := runRecover(env, Time(2*Second))
	if b, ok := r.(boom); !ok || b.code != 7 {
		t.Fatalf("Run panicked with %#v, want boom{7}", r)
	}
	if !deferred {
		t.Fatal("the faulty body's deferred call did not run")
	}
	if env.Now() != Time(Second) {
		t.Fatalf("clock at %v, want 1s", env.Now().Seconds())
	}
	env.Shutdown() // must not hang on the dead coroutine
}

// A panic in a process or callback that another process's dispatch loop ran
// reaches the caller of Run with its original value, and leaves the
// dispatching process blocked where it was: its body unwinds at Shutdown,
// not with the panic.
func TestPanicInDispatchLoopSurfacesFromRun(t *testing.T) {
	for _, fault := range []string{"process", "callback"} {
		env := NewEnv(1)
		unwound := false
		sleeper := env.Spawn("sleeper", func(p *Proc) {
			defer func() { unwound = true }()
			for {
				p.Sleep(Second)
			}
		})
		raise := func() {
			if env.disp != sleeper {
				t.Errorf("%s: the fault ran outside the sleeper's dispatch loop", fault)
			}
			panic(boom{7})
		}
		if fault == "process" {
			env.Spawn("faulty", func(p *Proc) {
				p.Sleep(500 * Millisecond)
				raise()
			})
		} else {
			env.After(500*Millisecond, raise)
		}
		r := runRecover(env, Time(2*Second))
		if b, ok := r.(boom); !ok || b.code != 7 {
			t.Fatalf("%s: Run panicked with %#v, want boom{7}", fault, r)
		}
		if unwound {
			t.Fatalf("%s: the dispatching sleeper unwound with the panic", fault)
		}
		if env.Now() != Time(500*Millisecond) {
			t.Fatalf("%s: clock at %v, want 0.5s", fault, env.Now().Seconds())
		}
		env.Shutdown()
		if !unwound {
			t.Fatalf("%s: Shutdown did not unwind the sleeper", fault)
		}
		// A faulty process never finishes: its coroutine died with the
		// panic. A faulty callback leaves no process behind.
		want := 0
		if fault == "process" {
			want = 1
		}
		if n := env.LiveProcs(); n != want {
			t.Fatalf("%s: %d processes live after Shutdown, want %d", fault, n, want)
		}
	}
}

// A process that another process's dispatch loop resumed may kill the
// dispatching process: the killed body unwinds once, through its deferred
// calls, when its kill wakeup comes up in the loop.
func TestKillDispatchingProcess(t *testing.T) {
	env := NewEnv(1)
	var unwoundAt []Time
	victim := env.Spawn("victim", func(p *Proc) {
		defer func() { unwoundAt = append(unwoundAt, p.Now()) }()
		for {
			p.Sleep(Second)
		}
	})
	env.Spawn("killer", func(p *Proc) {
		p.Sleep(1500 * Millisecond)
		if env.disp != victim {
			t.Error("the killer runs outside the victim's dispatch loop")
		}
		victim.Kill()
		p.Sleep(Second)
	})
	env.RunAll()
	if !victim.Done() {
		t.Fatal("killed victim not done")
	}
	if len(unwoundAt) != 1 || unwoundAt[0] != Time(1500*Millisecond) {
		t.Fatalf("victim unwound at %v, want once at 1.5s", unwoundAt)
	}
	if env.Now() != Time(2500*Millisecond) {
		t.Fatalf("clock at %v, want 2.5s", env.Now().Seconds())
	}
}

// A process whose own wakeup comes next takes it without a coroutine switch,
// whether it runs the dispatch loop or was resumed by it: a ticker that a
// sleeping process's loop resumed sleeps 100 times on two resumes in all,
// one from the caller of Run and one from the loop.
func TestOwnWakeupNeedsNoSwitch(t *testing.T) {
	env := NewEnv(1)
	resumes := 0
	countResumes := func(p *Proc) {
		next := p.co.next
		p.co.next = func() (struct{}, bool) {
			resumes++
			return next()
		}
	}
	countResumes(env.Spawn("idle", func(p *Proc) { p.Sleep(Minute) }))
	ticks := 0
	countResumes(env.Spawn("ticker", func(p *Proc) {
		for ; ticks < 100; ticks++ {
			p.Sleep(Millisecond)
		}
	}))
	env.RunAll()
	if ticks != 100 || env.Now() != Time(Minute) {
		t.Fatalf("%d ticks, clock at %vs; want 100 ticks, 60s", ticks, env.Now().Seconds())
	}
	if resumes != 2 {
		t.Fatalf("%d coroutine resumes, want 2", resumes)
	}
}

// A Run deadline that a process's dispatch loop reaches stops the clock at
// the deadline and hands control back to the caller of Run; the next Run
// picks up the pending wakeups in (time, schedule) order.
func TestDispatchLoopStopsAtRunDeadline(t *testing.T) {
	env := NewEnv(1)
	var log []string
	a := env.Spawn("a", func(p *Proc) {
		for {
			p.Sleep(Second)
			log = append(log, fmt.Sprintf("a@%v", p.Now().Seconds()))
		}
	})
	env.Spawn("b", func(p *Proc) {
		for {
			p.Sleep(Second)
			if env.disp != a {
				t.Error("b runs outside a's dispatch loop")
			}
			log = append(log, fmt.Sprintf("b@%v", p.Now().Seconds()))
		}
	})
	if got := env.Run(Time(2500 * Millisecond)); got != Time(2500*Millisecond) {
		t.Fatalf("Run returned %v, want 2.5s", got.Seconds())
	}
	if env.disp != nil {
		t.Fatal("a dispatch loop is still running after Run returned")
	}
	if got, want := strings.Join(log, " "), "a@1 b@1 a@2 b@2"; got != want {
		t.Fatalf("log after Run(2.5s) = %q, want %q", got, want)
	}
	env.Run(Time(3 * Second))
	if got, want := strings.Join(log, " "), "a@1 b@1 a@2 b@2 a@3 b@3"; got != want {
		t.Fatalf("log after Run(3s) = %q, want %q", got, want)
	}
	env.Shutdown()
}

// Kill unwinds a process blocked inside Resource.Use through its deferred
// Release, so the slot goes to the next waiter.
func TestKillDuringUseFreesSlot(t *testing.T) {
	env := NewEnv(1)
	r := NewResource(env, 1)
	holder := env.Spawn("holder", func(p *Proc) { r.Use(p, Minute) })
	var acquiredAt Time
	env.Spawn("waiter", func(p *Proc) {
		p.Sleep(Second)
		holder.Kill()
		r.Use(p, Second)
		acquiredAt = p.Now().Add(-Second)
	})
	env.RunAll()
	if !holder.Done() {
		t.Fatal("killed holder not done")
	}
	if acquiredAt != Time(Second) {
		t.Fatalf("waiter acquired the slot at %vs, want 1s", acquiredAt.Seconds())
	}
	if r.InUse() != 0 {
		t.Fatalf("%d slots still held", r.InUse())
	}
}

// Shutdown unwinds blocked processes and stops the parked coroutines: no
// goroutine outlives the Env.
func TestNoGoroutineOutlivesShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv(1)
	ch := NewChan[int](env)
	for i := 0; i < 8; i++ {
		env.Spawn("reader", func(p *Proc) { ch.Recv(p) })
		env.Spawn("sleeper", func(p *Proc) { p.Sleep(Minute) })
		env.Spawn("short", func(p *Proc) { p.Sleep(Millisecond) })
	}
	never := env.Spawn("never-run", func(p *Proc) { t.Error("killed before its first turn, yet ran") })
	never.Kill()
	env.RunFor(Second)
	if during := runtime.NumGoroutine(); during <= before {
		t.Fatalf("no coroutines while processes are live (%d goroutines, %d before)", during, before)
	}
	env.Shutdown()
	if env.LiveProcs() != 0 {
		t.Fatalf("%d processes live after Shutdown", env.LiveProcs())
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after Shutdown, %d before NewEnv", after, before)
	}
}

// Finished processes hand their coroutine to the next Spawn: 10k sequential
// short-lived children need no more coroutines than the peak number of live
// processes.
func TestSpawnReusesCoroutines(t *testing.T) {
	env := NewEnv(1)
	peak := 0
	env.Spawn("parent", func(p *Proc) {
		for i := 0; i < 10_000; i++ {
			child := env.Spawn("child", func(c *Proc) { c.Sleep(Microsecond) })
			peak = max(peak, env.LiveProcs())
			p.WaitDone(child)
		}
	})
	env.RunAll()
	if env.LiveProcs() != 0 {
		t.Fatalf("%d processes live", env.LiveProcs())
	}
	// Every process has terminated, so every coroutine ever created is
	// parked in the free list.
	if n := len(env.coros); n == 0 || n > peak {
		t.Fatalf("%d coroutines for a peak of %d live processes", n, peak)
	}
	env.Shutdown()
}
