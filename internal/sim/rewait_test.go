package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// The dispatch loop re-queues a waiter of Resource.Acquire or Chan.Recv
// whose condition still holds instead of resuming it. The tests here check
// that this is exact: each scenario also runs on refResource and refChan,
// the plain `for cond { sig.Wait(p) }` loops over the public Signal API,
// and both runs must log the same trace-hook events and the same
// acquisitions and receptions at the same times.

// slots is what the scenarios use of a Resource.
type slots interface {
	Acquire(p *Proc)
	Release()
}

// queue is what the scenarios use of a Chan[int].
type queue interface {
	Send(v int)
	Close()
	Recv(p *Proc) (int, bool)
	RecvTimeout(p *Proc, d Duration) (int, bool)
}

// coverage counts what the reference primitives saw, so a test can check
// that its scenarios reach the cases the re-wait must get right.
type coverage struct {
	resourceRewaits int // a woken Acquire waiter found every slot busy
	chanRewaits     int // a woken Recv waiter found the queue empty
	timeouts        int // a RecvTimeout gave up at its deadline
	atDeadline      int // a RecvTimeout got an item at its deadline
	killsWaiting    int // a process was killed inside Acquire or a receive
	closeWaiting    int // Close found receivers waiting
}

// prims builds the primitives a scenario runs on.
type prims struct {
	name     string
	resource func(env *Env, capacity int, cov *coverage) slots
	queue    func(env *Env, cov *coverage) queue
}

var (
	simPrims = prims{
		name:     "sim",
		resource: func(env *Env, n int, _ *coverage) slots { return NewResource(env, n) },
		queue:    func(env *Env, _ *coverage) queue { return NewChan[int](env) },
	}
	refPrims = prims{
		name: "reference",
		resource: func(env *Env, n int, cov *coverage) slots {
			return &refResource{sig: NewSignal(env), capacity: n, cov: cov}
		},
		queue: func(env *Env, cov *coverage) queue {
			return &refChan{env: env, sig: NewSignal(env), cov: cov}
		},
	}
)

// refResource is Resource as a plain wait loop: every woken waiter is
// resumed and checks for a free slot itself.
type refResource struct {
	sig             *Signal
	capacity, inUse int
	cov             *coverage
}

func (r *refResource) Acquire(p *Proc) {
	for waits := 0; r.inUse >= r.capacity; waits++ {
		if waits > 0 {
			r.cov.resourceRewaits++
		}
		r.sig.Wait(p)
	}
	r.inUse++
}

func (r *refResource) Release() {
	r.inUse--
	r.sig.Broadcast()
}

// refChan is Chan as plain wait loops, with RecvTimeout's timeout an After
// callback that sets a flag.
type refChan struct {
	env    *Env
	sig    *Signal
	items  []int
	closed bool
	cov    *coverage
}

func (c *refChan) Send(v int) {
	c.items = append(c.items, v)
	c.sig.Broadcast()
}

func (c *refChan) Close() {
	c.closed = true
	c.sig.Broadcast()
}

func (c *refChan) pop() int {
	v := c.items[0]
	c.items = c.items[1:]
	return v
}

func (c *refChan) Recv(p *Proc) (int, bool) {
	for waits := 0; len(c.items) == 0; waits++ {
		if c.closed {
			return 0, false
		}
		if waits > 0 {
			c.cov.chanRewaits++
		}
		c.sig.Wait(p)
	}
	return c.pop(), true
}

func (c *refChan) RecvTimeout(p *Proc, d Duration) (int, bool) {
	deadline := c.env.Now().Add(d)
	timedOut := false
	cancel := c.env.After(d, func() {
		timedOut = true
		c.sig.Broadcast()
	})
	defer cancel()
	for len(c.items) == 0 {
		if c.closed {
			return 0, false
		}
		if timedOut || c.env.Now() >= deadline {
			c.cov.timeouts++
			return 0, false
		}
		c.sig.Wait(p)
	}
	if c.env.Now() == deadline {
		c.cov.atDeadline++
	}
	return c.pop(), true
}

// recorder logs a run: every trace-hook event and every line a process
// body logs, with its time, in the order they happen.
type recorder struct {
	env *Env
	log []string
}

func newRecorder(env *Env) *recorder {
	rec := &recorder{env: env}
	env.SetTrace(func(ev TraceEvent) { rec.log = append(rec.log, ev.String()) })
	return rec
}

func (rec *recorder) logf(format string, args ...any) {
	rec.log = append(rec.log, fmt.Sprintf("%d ", rec.env.Now())+fmt.Sprintf(format, args...))
}

// firstDiff describes where two logs part, or returns "" when they are
// equal.
func firstDiff(a, b []string) string {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("line %d: %q vs %q", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("%d lines vs %d", len(a), len(b))
	}
	return ""
}

// contention plays one seeded scenario on mk's primitives and returns its
// log. Contenders share a Resource of capacity 1–3, and newcomers join them
// mid-run; receivers share a Chan, some through RecvTimeout, fed in bursts
// and closed while they wait; a killer kills processes that are waiting.
// Delays are 0–3µs, so many events share an instant.
func contention(seed int64, mk prims, cov *coverage) []string {
	env := NewEnv(seed)
	defer env.Shutdown()
	rec := newRecorder(env)
	r := rand.New(rand.NewSource(seed))
	delay := func() Duration { return Duration(r.Intn(4)) * Microsecond }
	res := mk.resource(env, 1+r.Intn(3), cov)
	ch := mk.queue(env, cov)

	var (
		procs   []*Proc
		waiting []bool // procs[i] is inside Acquire or a receive
		closed  bool
	)
	spawn := func(name string, body func(p *Proc, i int)) {
		i := len(procs)
		waiting = append(waiting, false)
		procs = append(procs, env.Spawn(name, func(p *Proc) { body(p, i) }))
	}
	contender := func(name string) {
		spawn(name, func(p *Proc, i int) {
			for round := 0; round < 4; round++ {
				p.Sleep(delay())
				func() {
					waiting[i] = true
					res.Acquire(p)
					waiting[i] = false
					rec.logf("%s acquires", name)
					defer res.Release()
					p.Sleep(delay())
				}()
			}
		})
	}
	receiver := func(name string, timeout bool) {
		spawn(name, func(p *Proc, i int) {
			for {
				waiting[i] = true
				var v int
				var ok bool
				if timeout {
					v, ok = ch.RecvTimeout(p, Duration(1+r.Intn(3))*Microsecond)
				} else {
					v, ok = ch.Recv(p)
				}
				waiting[i] = false
				rec.logf("%s receives %d %v", name, v, ok)
				if !ok && (closed || !timeout) {
					return
				}
				p.Sleep(delay())
			}
		})
	}

	for i, n := 0, 2+r.Intn(5); i < n; i++ {
		contender(fmt.Sprintf("c%d", i))
	}
	for i, n := 0, 2+r.Intn(5); i < n; i++ {
		receiver(fmt.Sprintf("r%d", i), r.Intn(3) == 0)
	}
	env.Spawn("newcomers", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(Duration(r.Intn(6)) * Microsecond)
			contender(fmt.Sprintf("n%d", i))
		}
	})
	env.Spawn("sender", func(p *Proc) {
		v := 0
		for i := 0; i < 12; i++ {
			p.Sleep(delay())
			for k := r.Intn(3); k >= 0; k-- {
				v++
				ch.Send(v)
			}
		}
		p.Sleep(delay())
		for j, w := range waiting {
			if w && procs[j].name[0] == 'r' {
				cov.closeWaiting++
			}
		}
		closed = true
		ch.Close()
	})
	env.Spawn("killer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(Duration(r.Intn(10)) * Microsecond)
			var cands []int
			for j, w := range waiting {
				if w {
					cands = append(cands, j)
				}
			}
			if len(cands) > 0 {
				j := cands[r.Intn(len(cands))]
				waiting[j] = false
				procs[j].Kill()
				cov.killsWaiting++
			}
		}
	})
	env.RunAll()
	return rec.log
}

// TestRewaitMatchesWaitLoops runs seeded contention scenarios on Resource
// and Chan and on the reference wait loops, and requires the same log:
// the same trace-hook sequence, and the same acquisitions and receptions at
// the same times. It also checks that the scenarios reach the cases the
// re-wait must get right.
func TestRewaitMatchesWaitLoops(t *testing.T) {
	var cov coverage
	for seed := int64(1); seed <= 300; seed++ {
		got := contention(seed, simPrims, &coverage{})
		want := contention(seed, refPrims, &cov)
		if d := firstDiff(got, want); d != "" {
			t.Fatalf("seed %d: sim and reference runs differ at %s", seed, d)
		}
	}
	for what, n := range map[string]int{
		"Acquire re-waits":                   cov.resourceRewaits,
		"Recv re-waits":                      cov.chanRewaits,
		"RecvTimeout timeouts":               cov.timeouts,
		"RecvTimeout items at the deadline":  cov.atDeadline,
		"kills while waiting":                cov.killsWaiting,
		"receivers waiting when Close comes": cov.closeWaiting,
	} {
		if n == 0 {
			t.Errorf("no scenario covered %s", what)
		}
	}
}

// TestReleaseRequeuesWokenWaitersBehindNewcomers pins Resource's policy. h
// holds the only slot while w1 and w2 wait. At h's release, n1 and n2 run
// before the woken waiters: n1 takes the slot and n2 waits. w1 and w2 then
// go back on the waiter list behind n2, so n2 is served before them. A
// release that woke only the first waiter and kept it at the head of the
// list would serve w1 before n2.
func TestReleaseRequeuesWokenWaitersBehindNewcomers(t *testing.T) {
	var logs [2][]string
	var order []string
	for k, mk := range []prims{simPrims, refPrims} {
		env := NewEnv(1)
		rec := newRecorder(env)
		res := mk.resource(env, 1, &coverage{})
		order = order[:0]
		use := func(p *Proc, name string, hold Duration) {
			res.Acquire(p)
			rec.logf("%s acquires", name)
			order = append(order, name)
			p.Sleep(hold)
			res.Release()
		}
		env.Spawn("h", func(p *Proc) { use(p, "h", 5*Microsecond) })
		for _, name := range []string{"w1", "w2"} {
			env.Spawn(name, func(p *Proc) { use(p, name, Microsecond) })
		}
		for _, name := range []string{"n1", "n2"} {
			env.Spawn(name, func(p *Proc) {
				p.Sleep(5 * Microsecond)
				use(p, name, Microsecond)
			})
		}
		env.RunAll()
		logs[k] = rec.log
		if got := fmt.Sprint(order); got != "[h n1 n2 w1 w2]" {
			t.Errorf("%s: acquisition order %s, want [h n1 n2 w1 w2]", mk.name, got)
		}
	}
	if d := firstDiff(logs[0], logs[1]); d != "" {
		t.Fatalf("sim and reference runs differ at %s", d)
	}
}

// TestRecvTimeoutAtTheDeadline covers the deadline instant itself: with
// nothing sent, RecvTimeout gives up exactly at its deadline; an item sent
// at that instant is received, whether the sender or the timeout runs
// first. Each case must also log what the reference loop logs.
func TestRecvTimeoutAtTheDeadline(t *testing.T) {
	const d = 5 * Microsecond
	for _, tc := range []struct {
		name        string
		send        bool
		senderFirst bool
		want        string
	}{
		{"nothing sent", false, false, "5000 received 0 false"},
		{"sent at the deadline, sender first", true, true, "5000 received 7 true"},
		{"sent at the deadline, timeout first", true, false, "5000 received 7 true"},
	} {
		var logs [2][]string
		for k, mk := range []prims{simPrims, refPrims} {
			env := NewEnv(1)
			rec := newRecorder(env)
			ch := mk.queue(env, &coverage{})
			sender := func() {
				env.Spawn("sender", func(p *Proc) {
					p.Sleep(d)
					ch.Send(7)
				})
			}
			if tc.send && tc.senderFirst {
				sender()
			}
			env.Spawn("receiver", func(p *Proc) {
				v, ok := ch.RecvTimeout(p, d)
				rec.logf("received %d %v", v, ok)
			})
			if tc.send && !tc.senderFirst {
				sender()
			}
			env.RunAll()
			logs[k] = rec.log
			if got := rec.log[len(rec.log)-1]; got != tc.want {
				t.Errorf("%s, %s: %q, want %q", tc.name, mk.name, got, tc.want)
			}
		}
		if d := firstDiff(logs[0], logs[1]); d != "" {
			t.Fatalf("%s: sim and reference runs differ at %s", tc.name, d)
		}
	}
}

// TestRecvTimeoutAllocatesNothing checks that RecvTimeout, on the timeout
// path and on the item path alike, allocates nothing once the channel's
// first call has bound its timeout callback.
func TestRecvTimeoutAllocatesNothing(t *testing.T) {
	env := NewEnv(1)
	defer env.Shutdown()
	ch := NewChan[int](env)
	received, timeouts := 0, 0
	env.Spawn("receiver", func(p *Proc) {
		for {
			if _, ok := ch.RecvTimeout(p, 2*Microsecond); ok {
				received++
			} else {
				timeouts++
			}
		}
	})
	env.Spawn("sender", func(p *Proc) {
		for {
			p.Sleep(3 * Microsecond)
			ch.Send(1)
		}
	})
	env.RunFor(100 * Microsecond)
	received, timeouts = 0, 0
	allocs := testing.AllocsPerRun(100, func() { env.RunFor(30 * Microsecond) })
	if received == 0 || timeouts == 0 {
		t.Fatalf("measured %d receptions and %d timeouts; want both paths", received, timeouts)
	}
	if allocs != 0 {
		t.Fatalf("RecvTimeout allocates %.1f times per 30µs of receives and timeouts, want 0", allocs)
	}
}

// TestProcFitsSizeClass keeps Proc within Go's 80-byte size class on 64-bit
// platforms. The wait condition's interface field fits only because the
// body travels on the coroutine instead; one more word would move every
// Spawn into the 96-byte class, which the lifecycle benchmarks' B/op gates
// would report as a regression.
func TestProcFitsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Proc{}); size > 80 {
		t.Fatalf("Proc is %d bytes, past the 80-byte size class", size)
	}
}

// TestCoroFitsSizeClass keeps coro within Go's 32-byte size class on 64-bit
// platforms: every coroutine a Spawn starts allocates one, and a fifth word
// would move it into the 48-byte class.
func TestCoroFitsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(coro{}); size > 32 {
		t.Fatalf("coro is %d bytes, past the 32-byte size class", size)
	}
}
