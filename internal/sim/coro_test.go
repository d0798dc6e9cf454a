package sim

import (
	"runtime"
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
