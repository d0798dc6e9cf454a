//go:build go1.23

package sim

import "iter"

// coro runs sim process bodies as an iter.Pull coroutine. Env.step resumes
// a process with next, and Proc.block hands control back with yield, so a
// resume never goes through the Go runtime's run queue. Dispatch runs on the
// coroutine of the process that blocked, so a process whose own wakeup comes
// next needs no switch at all: next and yield are paid only when the
// dispatch loop resumes another process, when that process hands an event
// not its own back to the loop, and when the loop has nothing due and yields
// to the caller of Env.Run.
//
// A coroutine outlives the process it runs. When the body returns, the
// coroutine parks in its Env's free list, and the next Spawn hands it a new
// process, so steady-state spawning starts no goroutine. Env.Shutdown
// resumes each parked coroutine with no process, which ends it.
//
// The file needs go1.23 for package iter. The build tag sets its language
// version, so go.mod can stay at go 1.22: hostbench's module requires this
// one, declares go 1.22 and builds with -mod=readonly, so a higher go line
// here would break its build.
//
// Four words keep a coro in the 32-byte size class.
type coro struct {
	proc  *Proc         // process to run on the next turn, nil while parked
	body  func(p *Proc) // proc's body, handed over by Spawn
	next  func() (struct{}, bool)
	yield func(struct{}) bool
}

// newCoro returns an idle coroutine. Its body does not start until the
// first next. It needs no stop: the loop ends when resumed while parked.
func newCoro() *coro {
	c := &coro{}
	c.next, _ = iter.Pull(c.loop)
	return c
}

// loop is the coroutine body: one process per turn. After a process
// terminates, the coroutine returns itself to the free list and yields to
// whoever resumed it; Spawn assigns the next process and a step's next
// resumes it here. Resumed with no process, by Env.Shutdown, the loop ends.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		p, body := c.proc, c.body
		c.body = nil
		p.run(body)
		c.proc, p.co = nil, nil
		p.env.coros = append(p.env.coros, c)
		yield(struct{}{})
		if c.proc == nil {
			return
		}
	}
}
