// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel drives cooperative processes: each process runs as a coroutine
// (coro.go), and exactly one process runs at any moment. A process gives up
// control by sleeping, waiting on a synchronization primitive, or
// terminating. The process that blocks dispatches the next events itself,
// on its own coroutine, advancing the virtual clock: it runs callbacks in
// place, returns straight into its body when the event is its own wakeup,
// and otherwise switches directly to the coroutine of the process the event
// wakes, which dispatches in turn when it blocks. Each change of running
// process is one coroutine switch, and there is no dispatcher to return to:
// only when nothing more is due by the Run deadline does control go back to
// the caller of Run, with one switch. Because execution is serialized and
// events dispatch in (time, sequence) order, every run with the same seed is
// bit-for-bit reproducible, whichever coroutine dispatches.
//
// A Signal.Broadcast wakes every waiter, and a waiter in Resource.Acquire or
// Chan.Recv often finds the slot or the item already taken by one woken
// before it, and waits again. Such a process records its wait condition
// while it waits, and the dispatch loop checks it when the wakeup comes up:
// if it still holds, the loop re-queues the process on the signal itself,
// exactly where the process's own Wait would, and does not resume it. The
// wakeup is still dispatched and traced, so the event order and the trace
// are those of resuming the process.
//
// Pending events live in two places. Events due at a later time wait in a
// 4-ary min-heap. Events due at the current instant — Post, Yield, Spawn,
// Kill and Signal.Broadcast wakeups, about half of what a data-path run
// schedules — are appended to a FIFO lane instead, skipping the heap. A
// heap event due at the current instant was scheduled before the clock
// reached it, so it precedes the whole lane; the dispatcher takes the heap
// root first in that case and the lane head otherwise, which keeps the
// strict (time, sequence) order. The lane is always empty when the clock
// advances.
//
// A panic in a process body or a callback reaches the caller of Run, RunFor
// or RunAll with its original value, and a runtime.Goexit in a body ends the
// caller's goroutine. A panic in a callback unwinds no process, not even the
// one whose coroutine ran the callback. A faulty process is left unfinished
// (LiveProcs still counts it), so afterwards the Env should only be shut
// down.
//
// The rest of the repository models a virtualization platform on top of this
// kernel: virtual machines, device backends, and workloads are all sim
// processes, and throughput/latency results arise from their interleaving on
// the virtual clock.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
)

// Time is a point on the virtual clock, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring time.Duration's constants so model code reads
// naturally without importing the real time package.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
)

// Seconds reports the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds reports the duration as a floating-point number of milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", d.Milliseconds())
	case d >= Microsecond:
		return fmt.Sprintf("%dµs", int64(d)/int64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// Seconds reports the instant as a floating-point number of seconds since
// simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between two instants.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// event is a scheduled resumption of a process or a callback. Events are
// recycled through Env.free once they fire or are compacted away, so model
// code that schedules millions of timers (fleet-scale churn) does not allocate
// per event.
type event struct {
	at   Time
	seq  uint64 // tie-break so equal-time events fire in schedule order
	gen  uint64 // bumped on recycle; cancel tokens for old incarnations no-op
	proc *Proc  // process to resume (nil for fn events)
	fn   func() // callback to invoke (nil for proc events)
	// canceled events stay queued but are skipped when popped (or removed
	// wholesale by compaction).
	canceled bool
}

// stale reports whether ev will never run: it was canceled, or its process
// has finished.
func (ev *event) stale() bool {
	return ev.canceled || (ev.proc != nil && ev.proc.done)
}

// eventQueue is a 4-ary min-heap of events ordered by (at, seq). The keys
// are unique, so the pop order is that total order whatever the heap's
// layout; a 4-ary heap is half as deep as a binary one, which shortens the
// sift-down every pop pays.
type eventQueue []*event

// before is the queue's order: earlier time first, then schedule order.
func before(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push adds ev, sifting it up past every parent it precedes.
func (q *eventQueue) push(ev *event) {
	//xoarlint:allow(hotpath) heap growth is amortized: steady state pops as often as it pushes, so capacity is reused
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !before(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// pop removes the root. The queue must not be empty.
func (q *eventQueue) pop() {
	h := *q
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	*q = h[:n]
	if n > 0 {
		h[:n].down(0, last)
	}
}

// down places ev at slot i, sifting it below any smaller child.
func (q eventQueue) down(i int, ev *event) {
	for {
		c := 4*i + 1
		if c >= len(q) {
			break
		}
		m, end := c, min(c+4, len(q))
		for j := c + 1; j < end; j++ {
			if before(q[j], q[m]) {
				m = j
			}
		}
		if !before(q[m], ev) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = ev
}

// init restores the heap order over arbitrary contents.
func (q eventQueue) init() {
	if len(q) < 2 {
		return
	}
	for i := (len(q) - 2) / 4; i >= 0; i-- {
		q.down(i, q[i])
	}
}

// Env is a simulation environment: a virtual clock, an event queue, and the
// set of processes driven by them. An Env is not safe for concurrent use by
// real OS threads; all model code runs inside sim processes.
type Env struct {
	now    Time
	seq    uint64
	queue  eventQueue
	seed   int64
	rng    *rand.Rand // built from seed on the first Rand call
	procs  map[*Proc]struct{}
	lastEv string
	trace  func(TraceEvent)
	nextID int32

	// ending is set while Shutdown ends the idle coroutines.
	ending bool

	// until is the deadline of the Run in progress: step takes no event due
	// after it.
	until Time
	// park is the coroutine whose Pull the caller of Run is parked in while
	// a process runs (coro.go).
	park *coro
	// start is the process whose wakeup step dispatched last. An idle
	// coroutine that step hands control to starts it (coro.go).
	start *Proc
	// fault is a panic from a process body or a callback on a process
	// coroutine, for the caller of Run to re-raise.
	fault any

	// lane[laneHead:] are the events scheduled for the current instant since
	// the clock reached it, in schedule order. The lane starts on laneBuf,
	// so a new Env's lane allocates nothing until one instant queues more
	// than 32 events; the gated benchmarks queue at most 17.
	lane     []*event
	laneHead int
	laneBuf  [32]*event

	// free holds recycled event structs for reuse by schedule.
	free []*event
	// stale counts canceled events still sitting in the heap or the lane;
	// once they outnumber live entries both are compacted.
	stale       int
	compactions int

	// coros holds idle coroutines, whose process terminated, for reuse by
	// Spawn.
	coros []*coro
}

// NewEnv returns a fresh environment whose random source is seeded with seed.
func NewEnv(seed int64) *Env {
	e := &Env{
		seed:  seed,
		procs: make(map[*Proc]struct{}),
	}
	e.lane = e.laneBuf[:0]
	return e
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random source. The source is
// seeded on the first call, so an Env that never draws does not pay for
// math/rand's 607-word state.
func (e *Env) Rand() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(e.seed))
	}
	return e.rng
}

// schedule enqueues an event at absolute time at — on the lane if that is
// the current instant, else on the heap — reusing a recycled event struct
// when one is available.
func (e *Env) schedule(at Time, p *Proc, fn func()) *event {
	if at < e.now {
		at = e.now
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.proc, ev.fn, ev.canceled = at, e.seq, p, fn, false
	} else {
		//xoarlint:allow(hotpath) free-list miss is warm-up only; steady state recycles fired events
		ev = &event{at: at, seq: e.seq, proc: p, fn: fn}
	}
	if p != nil {
		p.pending = ev
	}
	if at == e.now {
		e.pushLane(ev)
	} else {
		e.queue.push(ev)
	}
	return ev
}

// pushLane appends ev to the lane. As in Chan.Send, a full lane whose front
// half is already dispatched slides its pending tail to the front instead of
// growing, so a long same-instant burst reuses the lane's capacity.
func (e *Env) pushLane(ev *event) {
	if len(e.lane) == cap(e.lane) && 2*e.laneHead >= len(e.lane) {
		n := copy(e.lane, e.lane[e.laneHead:])
		clear(e.lane[n:])
		e.lane = e.lane[:n]
		e.laneHead = 0
	}
	//xoarlint:allow(hotpath) lane growth is amortized: the lane drains every instant, so steady state reuses its capacity
	e.lane = append(e.lane, ev)
}

// popLane removes the lane head. A drained lane restarts at the front of its
// backing array.
func (e *Env) popLane() {
	e.lane[e.laneHead] = nil
	e.laneHead++
	if e.laneHead == len(e.lane) {
		e.lane = e.lane[:0]
		e.laneHead = 0
	}
}

// recycle returns a fired or discarded event to the free list. Bumping gen
// invalidates any outstanding cancel token for this incarnation.
func (e *Env) recycle(ev *event) {
	ev.gen++
	ev.proc, ev.fn = nil, nil
	ev.canceled = false
	//xoarlint:allow(hotpath) free-list growth is bounded by peak in-flight events; steady state reuses capacity
	e.free = append(e.free, ev)
}

// discard removes a stale (canceled or dead-owner) event that has been taken
// out of the queue, updating the bookkeeping that schedule maintains.
func (e *Env) discard(ev *event) {
	if ev.canceled {
		e.stale--
	}
	if ev.proc != nil && ev.proc.pending == ev {
		ev.proc.pending = nil
	}
	e.recycle(ev)
}

// After schedules fn to run after delay d. The returned cancel function
// removes the callback if it has not fired yet; calling it after the callback
// ran (or canceling twice) is a harmless no-op, even though the underlying
// event struct may since have been recycled for an unrelated timer.
func (e *Env) After(d Duration, fn func()) (cancel func()) {
	ev := e.schedule(e.now.Add(d), nil, fn)
	gen := ev.gen
	return func() { e.cancel(ev, gen) }
}

// cancel removes the callback ev if it has not fired yet. gen is ev's
// generation when it was scheduled: once ev fires it is recycled with a new
// generation, so a late cancel leaves alone whatever timer reuses the
// struct.
func (e *Env) cancel(ev *event, gen uint64) {
	if ev.gen != gen || ev.canceled {
		return
	}
	ev.canceled = true
	e.stale++
	e.maybeCompact()
}

// Post schedules fn to run at the current instant, after already-queued
// events for this instant; it goes on the lane, never the heap. Unlike After
// it returns no cancel token and so allocates nothing: this is the delivery
// primitive for the event-channel upcall path, where a handler fires on
// every notification.
//
//xoarlint:hot
func (e *Env) Post(fn func()) {
	e.schedule(e.now, nil, fn)
}

// maybeCompact drops the stale entries from the heap and the lane once
// canceled events are more than half the queue. Without this, a workload
// that arms and cancels timers per guest (churn at fleet scale) grows the
// heap without bound, and one that arms and cancels a timer per request
// sifts every push and pop through dead entries. A pass over n entries
// removes more than n/2 of them, each canceled once, so compaction costs
// amortized O(1) per cancel at any queue size. The rebuild cannot perturb
// determinism: the heap's pop order is the strict total order (at, seq),
// independent of its internal layout, and the lane keeps its order.
func (e *Env) maybeCompact() {
	if e.stale*2 <= e.QueueLen() {
		return
	}
	e.queue = e.queue[:e.sweep(e.queue)]
	e.queue.init()
	e.lane = e.lane[:e.laneHead+e.sweep(e.lane[e.laneHead:])]
	e.stale = 0
	e.compactions++
}

// sweep discards the stale events of evs, moves the live ones to its front
// in order, clears the vacated tail and returns the live count.
func (e *Env) sweep(evs []*event) int {
	n := 0
	for _, ev := range evs {
		if ev.stale() {
			e.discard(ev)
			continue
		}
		evs[n] = ev
		n++
	}
	clear(evs[n:])
	return n
}

// Proc is a cooperative simulation process. It fits the 80-byte size class
// with id packed beside the flags.
type Proc struct {
	env    *Env
	name   string
	body   func(p *Proc) // nil once the body has run
	co     *coro         // coroutine running the body, nil once terminated
	id     int32
	done   bool
	killed bool
	// pending is the queued wakeup for this process, if any. A live process
	// has at most one (it is blocked on exactly one thing); tracking it lets
	// Kill cancel the orphaned wakeup instead of leaving it to bloat the heap.
	pending *event
	// cond is the wait condition of the Resource.Acquire or Chan.Recv the
	// process is waiting in, nil otherwise. step checks it before resuming
	// the process.
	cond waitCond
}

// waitCond is the loop condition of a call that waits on a Signal until it
// can proceed: Resource.Acquire and Chan.Recv.
type waitCond interface {
	// rewait returns the Signal to wait on again while the condition holds,
	// nil once the call can proceed.
	rewait() *Signal
}

// Spawn starts a new process running fn. fn begins executing at the current
// virtual time, after the currently running process next yields.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	e.nextID++
	p := &Proc{env: e, name: name, id: e.nextID, body: fn}
	if n := len(e.coros); n > 0 {
		p.co = e.coros[n-1]
		e.coros[n-1] = nil
		e.coros = e.coros[:n-1]
	} else {
		p.co = newCoro(e)
	}
	e.procs[p] = struct{}{}
	e.emitTrace("spawn", name)
	e.schedule(e.now, p, nil)
	return p
}

// run executes the process body on its coroutine and marks the process
// terminated, unless the body faulted (see exec).
func (p *Proc) run() {
	if !p.killed && !p.exec() {
		return
	}
	p.cond = nil // a Kill unwinds a waiting body without clearing it
	p.done = true
	delete(p.env.procs, p)
}

// exec runs the body and reports whether it returned or was unwound by
// Kill, through the procKilled panic, so its deferred releases ran. A body
// that panics or calls runtime.Goexit faults: the panic is kept for the
// caller of Run, a Goexit goes on to end the coroutine, and the process is
// marked killed, so nothing schedules it again, but stays unfinished.
func (p *Proc) exec() (ok bool) {
	defer func() {
		if ok {
			return
		}
		r := recover() // nil for runtime.Goexit
		if _, ok = r.(procKilled); !ok {
			p.killed = true
			if r != nil {
				p.env.fault = r
			}
		}
	}()
	body := p.body
	p.body = nil
	body(p)
	return true
}

// procKilled is the panic payload used to unwind a killed process.
type procKilled struct{}

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Done reports whether the process has terminated.
func (p *Proc) Done() bool { return p.done }

// block suspends the calling process until its next wakeup: its own step
// dispatches until then, switching away when another process's wakeup comes
// first, and returns when that wakeup is dispatched, on this coroutine or by
// another. Must only be called from within the process's own body.
func (p *Proc) block() {
	p.env.step(p.co)
	if p.killed {
		panic(procKilled{})
	}
}

// Sleep suspends the process for virtual duration d.
func (p *Proc) Sleep(d Duration) {
	p.env.schedule(p.env.now.Add(d), p, nil)
	p.block()
}

// Yield relinquishes the processor without advancing time; other processes
// scheduled at the current instant run before this one resumes.
func (p *Proc) Yield() { p.Sleep(0) }

// Kill terminates the target process the next time it would run. A process
// must not kill itself; it should simply return instead.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	p.env.emitTrace("kill", p.name)
	// The process's queued wakeup (a sleep, say) is orphaned by the kill:
	// cancel it so compaction can reclaim it instead of letting dead guests'
	// timers accumulate in the heap.
	if ev := p.pending; ev != nil && !ev.canceled {
		ev.canceled = true
		p.env.stale++
	}
	// Schedule a resumption so the body unwinds promptly.
	p.env.schedule(p.env.now, p, nil)
	p.env.maybeCompact()
}

// peekLive discards stale events — canceled timers and wakeups for finished
// processes — from the front of the queue and returns the next live event
// without removing it, or nil when the queue is drained. The front is the
// lane head, unless the heap root is due at the same instant with a smaller
// seq. step tests the deadline against the same live front it then
// removes: skipping stale events only at pop time once let a
// deadline-bounded Run execute an event beyond its deadline.
func (e *Env) peekLive() *event {
	for {
		var ev *event
		if e.laneHead < len(e.lane) {
			ev = e.lane[e.laneHead]
		}
		if len(e.queue) > 0 && (ev == nil || before(e.queue[0], ev)) {
			ev = e.queue[0]
		}
		if ev == nil || !ev.stale() {
			return ev
		}
		e.remove(ev)
		e.discard(ev)
	}
}

// remove takes ev, the front peekLive found, off the lane or the heap.
func (e *Env) remove(ev *event) {
	if e.laneHead < len(e.lane) && e.lane[e.laneHead] == ev {
		e.popLane()
	} else {
		e.queue.pop()
	}
}

// step is the dispatch loop: it runs the live events due by the current
// Run's deadline in (at, seq) order on the calling strand, and it is the
// only place an event is taken off the queue. self is the coroutine calling
// it: the one whose process blocks or ended, nil for the caller of Run.
//
// step runs callbacks in place. A wakeup of a process on self ends the
// loop at once: block returns straight into the body without a coroutine
// switch, and an idle self starts the process Spawn handed it. Any other
// wakeup hands control to the strand of the woken process with one switch
// (coro.go), and so does nothing left due by the deadline, to the caller of
// Run; step returns when a later switch resumes self. On the caller of Run,
// nothing left due ends the loop at once.
//
// A wakeup of a live process whose wait condition still holds does not
// resume it: the loop puts the process back on its signal's waiter list, as
// the Wait in the process's own loop would, and goes on. That holds for
// self's process too, which then keeps dispatching as if its body had waited
// again.
//
// A panic from a callback would unwind the body of the process whose
// coroutine runs the loop; call catches it and hands it to the caller of Run
// instead. On the caller of Run, the panic goes straight up.
//
// This is the loop every simulated nanosecond flows through, so it must stay
// allocation-free in steady state.
//
//xoarlint:hot
func (e *Env) step(self *coro) {
	park := &e.park
	if self != nil {
		park = &self.park
	}
	var to *coro
	for to == nil {
		ev := e.peekLive()
		if ev == nil || ev.at > e.until {
			if self == nil {
				return
			}
			to = e.park
			break
		}
		e.remove(ev)
		if ev.at > e.now {
			e.now = ev.at
		}
		if ev.fn != nil {
			fn := ev.fn
			e.recycle(ev)
			e.lastEv = "fn-callback"
			e.emitTrace("callback", "")
			if e.call(self, fn) {
				return
			}
			continue
		}
		p := ev.proc
		if p.pending == ev {
			p.pending = nil
		}
		e.recycle(ev)
		e.lastEv = p.name
		e.emitTrace("resume", p.name)
		if p.cond != nil && p.requeue() {
			continue
		}
		e.start = p
		if p.co == self {
			return
		}
		// A coroutine that ended with a runtime.Goexit has no park, and its
		// processes' wakeups resume nothing.
		to = p.co.park
	}
	// This is handoff and coro.pass written out: a resumed strand returns
	// through every frame between its switch and its body, and each costs
	// a mispredicted return after the stack change, so the switch nearly
	// every resume comes back through sits in step itself.
	*park = to
	var ok bool
	if to.yieldDue {
		to.yieldDue = false
		ok = to.yield(struct{}{})
	} else {
		to.yieldDue = true
		_, ok = to.next()
	}
	*park = nil
	if !ok && !e.ending {
		runtime.Goexit()
	}
}

// handoff parks the running strand, whose park slot is park, in the Pull of
// coroutine to and resumes the strand parked there. It returns when a later
// switch through that Pull resumes this strand, or when to's coroutine ends:
// outside Shutdown, only a runtime.Goexit ends one, and handoff passes it on
// toward the caller of Run.
func (e *Env) handoff(park **coro, to *coro) {
	*park = to
	ok := to.pass()
	*park = nil
	if !ok && !e.ending {
		runtime.Goexit()
	}
}

// call runs callback fn for the step of strand self. On a process coroutine
// it traps a panic from fn and reports whether it did, once a later step
// resumes self.
func (e *Env) call(self *coro, fn func()) (trapped bool) {
	if self != nil {
		defer e.trap(self, &trapped)
	}
	//xoarlint:allow(hotpath) scheduled callback bodies are charged to their own hot roots (evtchn upcalls, driver pumps); the dispatcher only invokes them
	fn()
	return false
}

// trap recovers a panic that a callback raised in self's dispatch loop,
// keeps it for the caller of Run and hands control there, leaving the body
// of self's process blocked where it was. It returns when a later step
// resumes self, for its process's wakeup, and sets *trapped so step returns.
func (e *Env) trap(self *coro, trapped *bool) {
	if r := recover(); r != nil {
		e.fault = r
		e.handoff(&self.park, e.park)
		*trapped = true
	}
}

// requeue puts p, whose wakeup step just dispatched, back on the signal it
// waits on when p is live and its wait condition still holds, as the Wait
// in p's own loop would, and reports whether it did. Only the wakeups of
// waiters in Resource.Acquire and Chan.Recv get here; it is a call of its
// own so that the loop in step, which every event runs, stays short.
func (p *Proc) requeue() bool {
	if p.killed {
		return false
	}
	//xoarlint:allow(hotpath) cond is a *Resource or a *Chan[T]; (*Resource).rewait and (*Chan[T]).rewait only compare fields and return one
	s := p.cond.rewait()
	if s == nil {
		return false
	}
	s.enqueue(p)
	return true
}

// maxTime is the deadline of RunAll and Shutdown, which run until the queue
// drains.
const maxTime = Time(math.MaxInt64)

// Run processes events until the queue is empty or the virtual clock would
// pass until. It returns the virtual time at which it stopped. A deadline
// behind the clock runs nothing: the clock never moves back, since the lane
// holds only events due at the current instant.
//
//xoarlint:hot bench=BenchmarkMicro_SimEventsPerSec
func (e *Env) Run(until Time) Time {
	if until < e.now {
		return e.now
	}
	e.until = until
	e.step(nil)
	e.raise()
	if e.now > until {
		panic(fmt.Sprintf("sim: clock overran Run(until=%d): now=%d lastEv=%q", until, e.now, e.lastEv))
	}
	e.now = until
	return e.now
}

// RunFor processes events for up to duration d of virtual time from now.
func (e *Env) RunFor(d Duration) Time { return e.Run(e.now.Add(d)) }

// Await runs fn in a new process and advances the clock in one-second steps
// until fn returns or limit has elapsed, reporting whether fn returned. The
// clock always stops on a step boundary: at start + k seconds for the
// smallest k by which fn has returned, or at start + limit. This is how code
// outside the simulation waits on an operation inside it.
func (e *Env) Await(name string, limit Duration, fn func(p *Proc)) bool {
	done := false
	e.Spawn(name, func(p *Proc) {
		fn(p)
		done = true
	})
	deadline := e.now.Add(limit)
	for !done && e.now < deadline {
		e.Run(min(e.now.Add(Second), deadline))
	}
	return done
}

// RunAll processes events until no more remain. Processes blocked forever on
// empty channels stay blocked; Shutdown unwinds them.
//
//xoarlint:allow(unused) test support: about 80 test call sites drain an Env with it, and it needs Env's unexported state
func (e *Env) RunAll() Time {
	e.until = maxTime
	e.step(nil)
	e.raise()
	return e.now
}

// raise re-raises, on the caller of Run, a panic that a process body or a
// callback raised on a process coroutine.
func (e *Env) raise() {
	if r := e.fault; r != nil {
		e.fault = nil
		panic(r)
	}
}

// Shutdown kills every live process and ends the parked coroutines, so no
// goroutine outlives the Env. Call when a simulation ends with processes
// still blocked (e.g. servers in accept loops); it keeps long test runs from
// accumulating goroutines.
func (e *Env) Shutdown() {
	// Kill in a stable order for determinism.
	procs := make([]*Proc, 0, len(e.procs))
	for p := range e.procs {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i].id < procs[j].id })
	for _, p := range procs {
		p.Kill()
	}
	e.until = maxTime
	e.step(nil)
	e.raise()
	// End the idle coroutines: each resumed with no process returns, and so
	// does every coroutine parked behind it (coro.go). A process still live
	// here was spawned while the killed ones unwound and waits for good;
	// marked killed, it unwinds if the chain resumes its coroutine.
	e.ending = true
	for p := range e.procs {
		p.killed = true
	}
	e.start = nil
	for _, c := range e.coros {
		if c.park != nil { // else ended already, along another's chain
			e.handoff(&e.park, c.park)
		}
	}
	e.coros = nil
	e.ending = false
}

// LiveProcs returns the number of processes that have started but not
// terminated. Used by tests to detect leaks.
func (e *Env) LiveProcs() int { return len(e.procs) }

// QueueLen reports the number of pending events, the heap's plus the lane's,
// including stale entries that compaction has not yet reclaimed. Diagnostic
// only.
func (e *Env) QueueLen() int { return len(e.queue) + len(e.lane) - e.laneHead }

// Compactions reports how many stale-event compaction passes have run; each
// pass sweeps both the heap and the lane. Diagnostic only.
func (e *Env) Compactions() int { return e.compactions }
