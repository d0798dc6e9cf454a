//go:build go1.23

package sim

import (
	"iter"
	"slices"
)

// coro runs sim process bodies on an iter.Pull coroutine, one process after
// another. A finished process leaves its coroutine in its Env's free list,
// and the next Spawn hands it a new process, so steady-state spawning starts
// no goroutine.
//
// The goroutine of each coroutine, and the caller of Env.Run, is a strand:
// it gives up control only by switching through a Pull. A Pull is one
// runtime coroutine: a switch through it parks the calling goroutine there
// and resumes the one parked there, whichever goroutines those are, as long
// as the Pull's next and yield calls alternate. iter.Pull's yield checks
// only that alternation, not which goroutine calls it, so any strand may
// call any Pull's yield, not just the Pull's own goroutine.
// TestPullSwitchesFromAnyGoroutine fails if a Go release stops allowing it.
// So each strand records the Pull it is parked in (park here, Env.park for
// the caller of Run), and the strand whose process blocks runs Env.step and
// switches straight to the strand that runs the next wakeup, through the
// Pull that strand is parked in, with whichever of next and yield is due
// there. A change of running process costs one switch, a process's own next
// wakeup none, and "nothing due by the deadline" one switch back to the
// caller of Run. (runtime.coroswitch, which both calls wrap, is not
// available outside package iter.)
//
// A coroutine that ends resumes whoever is parked in its own Pull. Shutdown
// ends the idle coroutines that way: it resumes one with no process to
// run, the coroutine returns, whoever was parked in its Pull ends in turn,
// and so on along the chain of parks until control is back with Shutdown.
// A runtime.Goexit in a body ends its coroutine too, and every strand it
// resumes that way exits in turn (Env.handoff), up to the caller of Run.
//
// The file needs go1.23 for package iter. The build tag sets its language
// version, so go.mod can stay at go 1.22: hostbench's module requires this
// one, declares go 1.22 and builds with -mod=readonly, so a higher go line
// here would break its build.
//
// Four words keep a coro in the 32-byte size class: the process it runs
// reaches it through Env.start, and the body travels on the Proc.
type coro struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	// park is the coroutine whose Pull this coroutine's goroutine is parked
	// in, nil while it runs or once it has ended. A new coroutine is parked
	// in its own.
	park *coro
	// yieldDue is set when the next switch through this Pull is a yield.
	yieldDue bool
}

// newCoro returns an idle coroutine. Its goroutine does not start until the
// first switch through its Pull, a next.
func newCoro(e *Env) *coro {
	c := &coro{}
	c.park = c
	c.next, _ = iter.Pull(e.loop)
	return c
}

// pass switches through q's Pull with whichever of next and yield is due. It
// returns true when a later switch through q resumes the caller, false when
// q's coroutine has ended, at once if it already had.
func (q *coro) pass() bool {
	if q.yieldDue {
		q.yieldDue = false
		return q.yield(struct{}{})
	}
	q.yieldDue = true
	_, ok := q.next()
	return ok
}

// loop is the coroutine body. It runs the process it was started for, then
// each process Spawn hands it, and returns when resumed with none: that is
// Shutdown ending it. After each process it joins the free list and, as the
// strand that gave up control, dispatches: step switches to the strand the
// next wakeup belongs to, or returns at once when Spawn handed this
// coroutine that process meanwhile. After a process that panicked it hands
// control straight to the caller of Run instead, which re-raises the panic.
func (e *Env) loop(yield func(struct{}) bool) {
	c := e.start.co
	c.yield, c.park = yield, nil
	defer e.retire(c)
	for p := e.start; p != nil; p = e.start {
		p.run()
		p.co = nil
		if e.ending {
			return
		}
		e.coros = append(e.coros, c)
		if e.fault != nil {
			e.handoff(&c.park, e.park)
		} else {
			e.step(c)
		}
	}
}

// retire runs as c's goroutine ends. Outside Shutdown, only a runtime.Goexit
// ends one, possibly while it was parked or idle: retire leaves it no park,
// so wakeups of its processes resume nothing, and takes it out of the free
// list, so Spawn hands it no process.
func (e *Env) retire(c *coro) {
	c.park = nil
	if !e.ending {
		if i := slices.Index(e.coros, c); i >= 0 {
			e.coros = slices.Delete(e.coros, i, i+1)
		}
	}
}
