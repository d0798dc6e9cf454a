// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel drives cooperative processes: each process runs as a coroutine
// (coro.go), and exactly one process runs at any moment. A process yields
// control by sleeping, waiting on a synchronization primitive, or
// terminating; the scheduler then advances the virtual clock to the next
// pending event and resumes its owner with a direct coroutine switch.
// Because execution is serialized and the event queue is ordered by (time,
// sequence), every run with the same seed is bit-for-bit reproducible.
//
// A panic in a process body unwinds that process and reaches the caller of
// Run, RunFor or RunAll with its original value. The process is left
// unfinished, so afterwards the Env should only be shut down.
//
// The rest of the repository models a virtualization platform on top of this
// kernel: virtual machines, device backends, and workloads are all sim
// processes, and throughput/latency results arise from their interleaving on
// the virtual clock.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
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
	// canceled events stay in the heap but are skipped when popped (or
	// removed wholesale by compaction).
	canceled bool
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

//xoarlint:allow(hotpath) heap growth is amortized: steady state pops as often as it pushes, so capacity is reused
func (q *eventQueue) Push(x any) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Env is a simulation environment: a virtual clock, an event queue, and the
// set of processes driven by them. An Env is not safe for concurrent use by
// real OS threads; all model code runs inside sim processes.
type Env struct {
	now    Time
	seq    uint64
	queue  eventQueue
	rng    *rand.Rand
	procs  map[*Proc]struct{}
	lastEv string
	trace  func(TraceEvent)
	nextID int

	// free holds recycled event structs for reuse by schedule.
	free []*event
	// stale counts canceled events still sitting in the queue; once they
	// outnumber live entries the queue is compacted.
	stale       int
	compactions int

	// coros holds parked coroutines whose process terminated, for reuse by
	// Spawn.
	coros []*coro

	stopped bool
}

// NewEnv returns a fresh environment whose random source is seeded with seed.
func NewEnv(seed int64) *Env {
	return &Env{
		rng:   rand.New(rand.NewSource(seed)),
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random source.
func (e *Env) Rand() *rand.Rand { return e.rng }

// schedule enqueues an event at absolute time at, reusing a recycled event
// struct when one is available.
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
	heap.Push(&e.queue, ev)
	return ev
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
	return func() {
		if ev.gen != gen || ev.canceled {
			return
		}
		ev.canceled = true
		e.stale++
		e.maybeCompact()
	}
}

// Post schedules fn to run at the current instant, after already-queued
// events for this instant. Unlike After it returns no cancel token and so
// allocates nothing: this is the delivery primitive for the event-channel
// upcall path, where a handler fires on every notification.
//
//xoarlint:hot
func (e *Env) Post(fn func()) {
	e.schedule(e.now, nil, fn)
}

// compactMinQueue is the queue size below which compaction is never worth it;
// peekLive already discards stale roots lazily.
const compactMinQueue = 128

// maybeCompact rebuilds the event heap without stale entries once more than
// half of a non-trivial queue is dead weight — canceled timers and wakeups
// owned by finished processes. Without this, a workload that arms and cancels
// timers per guest (churn at fleet scale) grows the heap without bound. The
// rebuild cannot perturb determinism: pop order is the strict total order
// (at, seq), independent of the heap's internal layout.
func (e *Env) maybeCompact() {
	if len(e.queue) < compactMinQueue || e.stale*2 <= len(e.queue) {
		return
	}
	live := e.queue[:0]
	for _, ev := range e.queue {
		if ev.canceled || (ev.proc != nil && ev.proc.done) {
			e.discard(ev)
			continue
		}
		live = append(live, ev)
	}
	for i := len(live); i < len(e.queue); i++ {
		e.queue[i] = nil
	}
	e.queue = live
	e.stale = 0
	heap.Init(&e.queue)
	e.compactions++
}

// Proc is a cooperative simulation process.
type Proc struct {
	env    *Env
	name   string
	id     int
	body   func(p *Proc)
	co     *coro // coroutine running the body, nil once terminated
	done   bool
	killed bool
	// pending is the queued wakeup for this process, if any. A live process
	// has at most one (it is blocked on exactly one thing); tracking it lets
	// Kill cancel the orphaned wakeup instead of leaving it to bloat the heap.
	pending *event
	// doneWatchers are signalled when the process terminates.
	doneSig *Signal
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
		p.co = newCoro()
	}
	p.co.proc = p
	p.doneSig = NewSignal(e)
	e.procs[p] = struct{}{}
	e.emitTrace("spawn", name)
	e.schedule(e.now, p, nil)
	return p
}

// run executes the process body on its coroutine and marks the process
// terminated. A Kill unwinds the body through the procKilled panic, so its
// deferred releases run; any other panic propagates to the scheduler.
func (p *Proc) run() {
	if !p.killed {
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(procKilled); ok {
						return // normal termination via Kill
					}
					panic(r)
				}
			}()
			p.body(p)
		}()
	}
	p.body = nil
	p.done = true
	delete(p.env.procs, p)
	p.doneSig.Broadcast()
}

// procKilled is the panic payload used to unwind a killed process.
type procKilled struct{}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Done reports whether the process has terminated.
func (p *Proc) Done() bool { return p.done }

// block suspends the calling process until the scheduler resumes it.
// Must only be called from within the process's own body. A yield that
// reports false means the coroutine was stopped; the body unwinds as if
// killed.
func (p *Proc) block() {
	if !p.co.yield(struct{}{}) || p.killed {
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

// WaitDone blocks the calling process until target terminates.
func (p *Proc) WaitDone(target *Proc) {
	for !target.done {
		target.doneSig.Wait(p)
	}
}

// peekLive discards stale events — canceled timers and wakeups for finished
// processes — from the heap root and returns the next live event without
// removing it, or nil when the queue is drained. Run and step must agree on
// the live root: skipping stale events only at pop time once let a
// deadline-bounded Run execute an event beyond its deadline.
func (e *Env) peekLive() *event {
	for len(e.queue) > 0 {
		ev := e.queue[0]
		if ev.canceled || (ev.proc != nil && ev.proc.done) {
			heap.Pop(&e.queue)
			e.discard(ev)
			continue
		}
		return ev
	}
	return nil
}

// step runs the next live event from the queue. It reports false when the
// queue is exhausted. This is the dispatch loop every simulated nanosecond
// flows through, so it must stay allocation-free in steady state.
//
//xoarlint:hot
func (e *Env) step() bool {
	ev := e.peekLive()
	if ev == nil {
		return false
	}
	heap.Pop(&e.queue)
	if ev.at > e.now {
		e.now = ev.at
	}
	if ev.fn != nil {
		fn := ev.fn
		e.recycle(ev)
		e.lastEv = "fn-callback"
		e.emitTrace("callback", "")
		//xoarlint:allow(hotpath) scheduled callback bodies are charged to their own hot roots (evtchn upcalls, driver pumps); the dispatcher only invokes them
		fn()
		return true
	}
	p := ev.proc
	if p.pending == ev {
		p.pending = nil
	}
	e.recycle(ev)
	e.lastEv = p.name
	e.emitTrace("resume", p.name)
	p.co.next()
	return true
}

// Run processes events until the queue is empty or the virtual clock would
// pass until. It returns the virtual time at which it stopped.
//
//xoarlint:hot bench=BenchmarkMicro_SimEventsPerSec
func (e *Env) Run(until Time) Time {
	for {
		ev := e.peekLive()
		if ev == nil {
			break
		}
		if ev.at > until {
			e.now = until
			return e.now
		}
		e.step()
		if e.now > until {
			panic(fmt.Sprintf("sim: clock overran Run(until=%d): now=%d lastEv=%q", until, e.now, e.lastEv))
		}
	}
	if e.now < until {
		e.now = until
	}
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
func (e *Env) RunAll() Time {
	for e.step() {
	}
	return e.now
}

// Shutdown kills every live process and stops the parked coroutines, so no
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
	for e.step() {
	}
	for _, c := range e.coros {
		c.stop()
	}
	e.coros = nil
	e.stopped = true
}

// LiveProcs returns the number of processes that have started but not
// terminated. Used by tests to detect leaks.
func (e *Env) LiveProcs() int { return len(e.procs) }

// QueueLen reports the number of events currently in the heap, including
// stale entries that compaction has not yet reclaimed. Diagnostic only.
func (e *Env) QueueLen() int { return len(e.queue) }

// Compactions reports how many stale-event compaction passes have run.
// Diagnostic only.
func (e *Env) Compactions() int { return e.compactions }
