package sim

// Signal is a broadcast condition variable for sim processes. Waiters block
// until the next Broadcast; there is no stored state, so callers must re-check
// their predicate in a loop, exactly as with sync.Cond.
type Signal struct {
	env     *Env
	waiters []*Proc
}

// NewSignal returns a signal bound to env.
func NewSignal(env *Env) *Signal { return &Signal{env: env} }

// Wait blocks p until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.enqueue(p)
	p.block()
}

// waitWhile is Wait for a caller that loops on c: it records c on p while p
// waits, so the dispatch loop can re-queue p itself instead of resuming it
// while c still holds.
func (s *Signal) waitWhile(p *Proc, c waitCond) {
	p.cond = c
	s.Wait(p)
	p.cond = nil
}

// enqueue adds p to the back of the waiter list.
func (s *Signal) enqueue(p *Proc) {
	// The waiter list retains its capacity across Broadcast, so in steady
	// state (bounded concurrent waiters) this append never grows the slice.
	//xoarlint:allow(hotpath) waiter list growth is bounded by concurrent waiters; steady state reuses capacity retained by Broadcast
	s.waiters = append(s.waiters, p)
}

// Broadcast wakes every process currently waiting. The wakeups are scheduled
// at the current instant in FIFO order, so they go on the Env's same-instant
// lane and run after every event already queued for this instant, without
// passing through the heap. The waiter slice's capacity is retained (entries
// are nilled for GC) so the Wait/Broadcast cycle is allocation-free in
// steady state. No user code runs during the loop — the scheduler only
// enqueues wakeups — so truncating before iterating is safe.
func (s *Signal) Broadcast() {
	ws := s.waiters
	s.waiters = s.waiters[:0]
	for i, w := range ws {
		ws[i] = nil
		if !w.done {
			s.env.schedule(s.env.now, w, nil)
		}
	}
}

// Chan is an unbounded FIFO queue carrying values between sim processes.
// Receives block while the queue is empty; sends never block.
//
// Dequeues advance a head index instead of re-slicing items[1:], which would
// permanently strand the popped element's capacity. The backing array is
// reused when the queue drains, and when a send finds it full with at least
// half its slots already dequeued, so a steady-state send/receive cycle
// (the netback rx inbox, xenstore watch events) performs no allocation even
// if the queue never drains.
type Chan[T any] struct {
	env    *Env
	items  []T
	head   int
	sig    *Signal
	closed bool
	// wake is sig.Broadcast, bound by the first RecvTimeout: the timeout
	// callback of every RecvTimeout, so none allocates one.
	wake func()
}

// NewChan returns an empty queue bound to env.
func NewChan[T any](env *Env) *Chan[T] {
	return &Chan[T]{env: env, sig: NewSignal(env)}
}

// Send enqueues v and wakes any blocked receivers. Sending on a closed
// channel panics, mirroring Go channel semantics.
func (c *Chan[T]) Send(v T) {
	if c.closed {
		panic("sim: send on closed Chan")
	}
	// Slide the live tail to the front rather than grow past dequeued
	// slots. Waiting until half the array is dead keeps the copy amortized
	// O(1) per send.
	if len(c.items) == cap(c.items) && 2*c.head >= len(c.items) {
		n := copy(c.items, c.items[c.head:])
		clear(c.items[n:])
		c.items = c.items[:n]
		c.head = 0
	}
	//xoarlint:allow(hotpath) queue growth is bounded by backlog; dequeued slots are reused, so steady state reuses capacity
	c.items = append(c.items, v)
	c.sig.Broadcast()
}

// pop removes and returns the head element. Callers must ensure the queue is
// non-empty. The vacated slot is zeroed so queued pointers do not outlive
// their dequeue, and a drained queue resets to the start of its backing
// array so future sends reuse the capacity.
func (c *Chan[T]) pop() T {
	v := c.items[c.head]
	var zero T
	c.items[c.head] = zero
	c.head++
	if c.head == len(c.items) {
		c.items = c.items[:0]
		c.head = 0
	}
	return v
}

// Close marks the channel closed; blocked and future receivers observe
// ok == false once the queue drains.
func (c *Chan[T]) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.sig.Broadcast()
}

// Recv dequeues the next value, blocking p while the queue is empty. It
// returns ok == false when the channel is closed and drained.
func (c *Chan[T]) Recv(p *Proc) (v T, ok bool) {
	for c.Len() == 0 {
		if c.closed {
			var zero T
			return zero, false
		}
		c.sig.waitWhile(p, c)
	}
	return c.pop(), true
}

// rewait implements waitCond for Recv: a waiter waits again while the queue
// is empty and open.
func (c *Chan[T]) rewait() *Signal {
	if c.Len() == 0 && !c.closed {
		return c.sig
	}
	return nil
}

// TryRecv dequeues the next value without blocking. ok is false when the
// queue is empty.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	if c.Len() == 0 {
		var zero T
		return zero, false
	}
	return c.pop(), true
}

// RecvTimeout dequeues the next value, giving up after d. ok is false on
// timeout or close. The timeout is a Broadcast at the deadline, which wakes
// the waiter to find the clock there; it is canceled on return, and it
// allocates nothing after the channel's first RecvTimeout.
func (c *Chan[T]) RecvTimeout(p *Proc, d Duration) (v T, ok bool) {
	env := p.env
	deadline := env.now.Add(d)
	if c.wake == nil {
		c.wake = c.sig.Broadcast
	}
	ev := env.schedule(deadline, nil, c.wake)
	defer env.cancel(ev, ev.gen)
	for c.Len() == 0 {
		if c.closed || env.now >= deadline {
			var zero T
			return zero, false
		}
		c.sig.Wait(p)
	}
	return c.pop(), true
}

// Len reports the number of queued values.
func (c *Chan[T]) Len() int { return len(c.items) - c.head }

// Resource models a server with fixed capacity (a CPU, a disk arm, a bus).
// Acquire blocks while all slots are busy. Release wakes every waiter: the
// first to run while a slot is free takes it, and the rest go back to the
// end of the waiter list, behind any process that started waiting after the
// release (the dispatch loop re-queues them without resuming them). Under
// small work quanta this approximates processor sharing closely enough for
// the throughput experiments.
type Resource struct {
	env      *Env
	capacity int
	inUse    int
	sig      *Signal

	// busy accumulates total busy slot-time for utilization reporting.
	busy      Duration
	lastCheck Time
}

// NewResource returns a resource with the given number of slots.
func NewResource(env *Env, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{env: env, capacity: capacity, sig: NewSignal(env)}
}

func (r *Resource) account() {
	now := r.env.now
	r.busy += Duration(int64(now-r.lastCheck) * int64(r.inUse))
	r.lastCheck = now
}

// Acquire blocks p until a slot is free, then claims it.
func (r *Resource) Acquire(p *Proc) {
	for r.inUse >= r.capacity {
		r.sig.waitWhile(p, r)
	}
	r.account()
	r.inUse++
}

// rewait implements waitCond for Acquire: a waiter waits again while every
// slot is busy.
func (r *Resource) rewait() *Signal {
	if r.inUse >= r.capacity {
		return r.sig
	}
	return nil
}

// Release frees a slot claimed by Acquire.
func (r *Resource) Release() {
	if r.inUse == 0 {
		panic("sim: release of idle resource")
	}
	r.account()
	r.inUse--
	r.sig.Broadcast()
}

// Use occupies one slot for duration d: acquire, hold, release. The release
// is deferred so a process killed while holding the slot (a driver pump torn
// down mid-transfer by a microreboot) does not leak it.
func (r *Resource) Use(p *Proc, d Duration) {
	r.Acquire(p)
	defer r.Release()
	p.Sleep(d)
}

// UseChunked occupies one slot for total duration d, but releases and
// re-acquires the slot every quantum so competing users interleave. This is
// how vCPUs share a physical CPU in the platform model.
func (r *Resource) UseChunked(p *Proc, d, quantum Duration) {
	if quantum <= 0 {
		quantum = Millisecond
	}
	for d > 0 {
		step := d
		if step > quantum {
			step = quantum
		}
		r.Use(p, step)
		d -= step
		if d > 0 {
			// Let processes woken by the release acquire the slot before we
			// re-acquire it; otherwise one user would monopolize the resource.
			p.Yield()
		}
	}
}

// InUse reports the number of currently held slots.
func (r *Resource) InUse() int { return r.inUse }

// BusyTime reports accumulated busy slot-time.
func (r *Resource) BusyTime() Duration {
	r.account()
	return r.busy
}

// Gate is a binary latch: processes wait until it opens. Once opened it stays
// open and waiters pass immediately. Used for "device ready" conditions.
type Gate struct {
	open bool
	sig  *Signal
}

// NewGate returns a closed gate bound to env.
func NewGate(env *Env) *Gate { return &Gate{sig: NewSignal(env)} }

// Open opens the gate and releases all waiters.
func (g *Gate) Open() {
	if g.open {
		return
	}
	g.open = true
	g.sig.Broadcast()
}

// Closed reports whether the gate has not yet opened.
func (g *Gate) Closed() bool { return !g.open }

// Reset closes the gate again; subsequent waiters block until the next Open.
func (g *Gate) Reset() { g.open = false }

// Wait blocks p until the gate opens.
func (g *Gate) Wait(p *Proc) {
	for !g.open {
		g.sig.Wait(p)
	}
}
