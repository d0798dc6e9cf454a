//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime"
	"slices"
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
		var faulty *Proc
		raise := func() {
			// The sleeper's coroutine runs the loop that runs the callback,
			// or its loop switched straight to the faulty process's.
			if fault == "callback" && sleeper.co.park != nil || fault == "process" && sleeper.co.park != faulty.co {
				t.Errorf("%s: the fault ran outside the sleeper's dispatch loop", fault)
			}
			panic(boom{7})
		}
		if fault == "process" {
			faulty = env.Spawn("faulty", func(p *Proc) {
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

// A process that another process's dispatch loop switched to may kill the
// dispatching process: the killed body unwinds once, through its deferred
// calls, when its kill wakeup comes up.
func TestKillDispatchingProcess(t *testing.T) {
	env := NewEnv(1)
	var unwoundAt []Time
	victim := env.Spawn("victim", func(p *Proc) {
		defer func() { unwoundAt = append(unwoundAt, p.Now()) }()
		for {
			p.Sleep(Second)
		}
	})
	var killer *Proc
	killer = env.Spawn("killer", func(p *Proc) {
		p.Sleep(1500 * Millisecond)
		if victim.co.park != killer.co {
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

// A process whose own wakeup comes next takes it without a coroutine switch:
// once both coroutines have started, a ticker sleeps 99 more times on three
// switches in all, from the caller of Run to the ticker, from the ticker's
// coroutine to the idle process when the ticker ends, and back to the
// caller of Run.
func TestOwnWakeupNeedsNoSwitch(t *testing.T) {
	env := NewEnv(1)
	idle := env.Spawn("idle", func(p *Proc) { p.Sleep(Minute) })
	ticks := 0
	ticker := env.Spawn("ticker", func(p *Proc) {
		for ; ticks < 100; ticks++ {
			p.Sleep(Millisecond)
		}
	})
	env.Run(0)
	switches := 0
	countSwitches(&switches, idle.co, ticker.co)
	env.RunAll()
	if ticks != 100 || env.Now() != Time(Minute) {
		t.Fatalf("%d ticks, clock at %vs; want 100 ticks, 60s", ticks, env.Now().Seconds())
	}
	if switches != 3 {
		t.Fatalf("%d coroutine switches, want 3", switches)
	}
}

// countSwitches counts into *n every switch through the Pulls of cs, whose
// goroutines must have started.
func countSwitches(n *int, cs ...*coro) {
	for _, c := range cs {
		next, yield := c.next, c.yield
		c.next = func() (struct{}, bool) {
			*n++
			return next()
		}
		c.yield = func(v struct{}) bool {
			*n++
			return yield(v)
		}
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
	b := env.Spawn("b", func(p *Proc) {
		for {
			p.Sleep(Second)
			log = append(log, fmt.Sprintf("b@%v", p.Now().Seconds()))
		}
	})
	// b's wakeups come up right after a's, so a's coroutine dispatches them.
	env.SetTrace(func(ev TraceEvent) {
		if ev.Kind == "resume" && ev.Proc == "b" && a.co.park != nil {
			t.Error("b runs outside a's dispatch loop")
		}
	})
	if got := env.Run(Time(2500 * Millisecond)); got != Time(2500*Millisecond) {
		t.Fatalf("Run returned %v, want 2.5s", got.Seconds())
	}
	if a.co.park == nil || b.co.park == nil {
		t.Fatal("a dispatch loop is still running after Run returned")
	}
	if got, want := strings.Join(log, " "), "a@1 b@1 a@2 b@2"; got != want {
		t.Fatalf("log after Run(2.5s) = %q, want %q", got, want)
	}
	env.Run(Time(3 * Second))
	if got, want := strings.Join(log, " "), "a@1 b@1 a@2 b@2 a@3 b@3"; got != want {
		t.Fatalf("log after Run(3s) = %q, want %q", got, want)
	}
	env.SetTrace(nil)
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

// A process that a killed body's deferred call spawns during Shutdown, and
// that then waits for good, is unwound too, and its coroutine ends.
func TestShutdownUnwindsProcessSpawnedWhileUnwinding(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv(1)
	ch := NewChan[int](env)
	unwound := false
	env.Spawn("parent", func(p *Proc) {
		defer env.Spawn("orphan", func(q *Proc) {
			defer func() { unwound = true }()
			ch.Recv(q)
		})
		ch.Recv(p)
	})
	env.RunFor(Second)
	env.Shutdown()
	if !unwound || env.LiveProcs() != 0 {
		t.Fatalf("orphan unwound %v, %d processes live after Shutdown; want true, 0", unwound, env.LiveProcs())
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after Shutdown, %d before NewEnv", after, before)
	}
}

// An Env runs on after Shutdown: new processes get new coroutines, and
// their switches and endings work as before.
func TestRunAfterShutdown(t *testing.T) {
	env := NewEnv(1)
	ticks := 0
	ticker := func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(Millisecond)
			ticks++
		}
	}
	env.Spawn("a", ticker)
	env.Spawn("b", ticker)
	env.RunFor(5 * Millisecond)
	env.Shutdown()
	ticks = 0
	env.Spawn("c", ticker)
	env.Spawn("d", ticker)
	env.RunAll()
	if ticks != 20 || env.LiveProcs() != 0 {
		t.Fatalf("%d ticks and %d live processes after Shutdown and RunAll, want 20 and 0", ticks, env.LiveProcs())
	}
	env.Shutdown()
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

// Three processes pass a token around a ring: each change of running
// process is one coroutine switch, straight from the process that blocks
// to the one it woke, plus one from the caller of Run in and one back.
func TestRingSwitchesOncePerChange(t *testing.T) {
	env := NewEnv(1)
	defer env.Shutdown()
	var ring [3]*Chan[int]
	for i := range ring {
		ring[i] = NewChan[int](env)
	}
	var procs [3]*Proc
	for i := range procs {
		in, out := ring[i], ring[(i+1)%len(ring)]
		procs[i] = env.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for {
				n, _ := in.Recv(p)
				p.Sleep(Microsecond)
				out.Send(n + 1)
			}
		})
	}
	ring[0].Send(0)
	env.RunFor(10 * Microsecond) // every coroutine has started
	switches := 0
	countSwitches(&switches, procs[0].co, procs[1].co, procs[2].co)
	var resumed []string
	env.SetTrace(func(ev TraceEvent) {
		if ev.Kind == "resume" {
			resumed = append(resumed, ev.Proc)
		}
	})
	env.RunFor(300 * Microsecond)
	env.SetTrace(nil)
	changes := 2
	for i := 1; i < len(resumed); i++ {
		if resumed[i] != resumed[i-1] {
			changes++
		}
	}
	if changes < 200 {
		t.Fatalf("%d changes of running process, want a busy ring", changes)
	}
	if switches != changes {
		t.Fatalf("%d coroutine switches for %d changes of running process, want one each", switches, changes)
	}
}

// A runtime.Goexit in a body ends the goroutine of the caller of Run, as it
// would a goroutine that called the body itself, also when the body's
// process was switched to by another's; Shutdown from another goroutine
// then leaves no coroutine behind.
func TestGoexitEndsRunCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv(1)
	env.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(Second)
		}
	})
	env.Spawn("quitter", func(p *Proc) {
		p.Sleep(1500 * Millisecond)
		runtime.Goexit()
	})
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		env.Run(Time(5 * Second))
		returned = true
	}()
	<-done
	if returned {
		t.Fatal("Run returned after a body called runtime.Goexit")
	}
	if env.Now() != Time(1500*Millisecond) {
		t.Fatalf("clock at %vs, want 1.5s", env.Now().Seconds())
	}
	env.Shutdown()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after Shutdown, %d before NewEnv", after, before)
	}
}

// A runtime.Goexit also ends every coroutine between the body's and the
// caller of Run, as it unwinds. One of them may be idle, dispatching from
// the free list: it leaves the list, so Spawn hands it no process.
func TestGoexitRetiresIdleCoroutine(t *testing.T) {
	env := NewEnv(1)
	env.Spawn("first", func(p *Proc) {
		env.Spawn("quitter", func(q *Proc) { runtime.Goexit() })
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		env.RunAll()
	}()
	<-done
	if n := len(env.coros); n != 0 {
		t.Fatalf("%d coroutines in the free list after the Goexit, want 0", n)
	}
	ran := false
	env.Spawn("after", func(p *Proc) { ran = true })
	env.RunAll()
	if !ran {
		t.Fatal("a process spawned after the Goexit never ran")
	}
	env.Shutdown()
}

// A coroutine whose process ended dispatches from the free list. When a
// callback it runs spawns a process, Spawn hands that process this very
// coroutine, which then runs it itself, without a switch.
func TestIdleCoroutineRunsSpawnedProcess(t *testing.T) {
	env := NewEnv(1)
	switches := 0
	var child *Proc
	childRan := false
	parent := env.Spawn("parent", func(p *Proc) {
		countSwitches(&switches, p.co)
		env.Post(func() {
			child = env.Spawn("child", func(c *Proc) {
				childRan = true
				c.Sleep(Millisecond)
			})
			if child.co == nil || len(env.coros) != 0 {
				t.Error("Spawn did not hand the child the idle coroutine")
			}
		})
	})
	env.RunAll()
	if !parent.Done() || !childRan || !child.Done() {
		t.Fatalf("parent done %v, child ran %v, child done %v", parent.Done(), childRan, child.Done())
	}
	// The one switch is back to the caller of Run, once nothing is due.
	if switches != 1 || len(env.coros) != 1 {
		t.Fatalf("%d switches and %d coroutines, want 1 and 1", switches, len(env.coros))
	}
	env.Shutdown()
}

// The hand-off rests on a property of iter.Pull that its documentation does
// not promise: next and yield may each be called from any goroutine, as
// long as the calls on one Pull alternate, and a switch through a Pull
// resumes whichever goroutine is parked there. If a Go release adds a check
// that yield runs on the Pull's own goroutine, this fails first.
func TestPullSwitchesFromAnyGoroutine(t *testing.T) {
	var log []string
	var aNext, bNext func() (struct{}, bool)
	var aYield, bYield func(struct{}) bool
	aNext, _ = iter.Pull(func(yield func(struct{}) bool) {
		aYield = yield
		log = append(log, "a starts")
		bNext() // a parks in b's Pull; b starts
		log = append(log, "a resumed by the test")
		aNext() // a parks in its own Pull, resuming b parked there
		log = append(log, "a resumed by the test again")
	})
	bNext, _ = iter.Pull(func(yield func(struct{}) bool) {
		bYield = yield
		log = append(log, "b starts")
		aYield(struct{}{}) // b parks in a's Pull, resuming the test
		log = append(log, "b resumed by a")
	})
	aNext() // the test parks in a's Pull; a starts
	log = append(log, "test resumed by b")
	if ok := bYield(struct{}{}); ok { // the test parks in b's Pull, resuming a
		t.Error("the switch through b's Pull returned true, want false once b ended")
	}
	log = append(log, "test resumed as b ends")
	if ok := aYield(struct{}{}); ok { // the test parks in a's Pull, resuming a
		t.Error("the switch through a's Pull returned true, want false once a ended")
	}
	log = append(log, "test resumed as a ends")
	want := []string{
		"a starts", "b starts", "test resumed by b", "a resumed by the test",
		"b resumed by a", "test resumed as b ends", "a resumed by the test again",
		"test resumed as a ends",
	}
	if !slices.Equal(log, want) {
		t.Fatalf("switch order:\n%s\nwant:\n%s", strings.Join(log, "\n"), strings.Join(want, "\n"))
	}
}
