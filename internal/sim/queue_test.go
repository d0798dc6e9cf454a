package sim

import "testing"

// deadQueueBound is the most entries a queue with no live event may hold
// once a cancel or a dispatch has run: a canceled timer with nothing live
// beside it is more than half the queue, so it is compacted at once, and
// the dispatch loop discards dead entries at the front.
const deadQueueBound = 1

// TestScheduleCancelBoundedQueue is the regression test for stale-event
// compaction: a workload that arms and immediately cancels timers in a loop
// (the shape left behind by short-lived guests tearing down their watchdogs)
// must not grow the event heap without bound.
func TestScheduleCancelBoundedQueue(t *testing.T) {
	env := NewEnv(1)
	const rounds = 100_000
	for i := 0; i < rounds; i++ {
		cancel := env.After(Second, func() {})
		cancel()
		if n := env.QueueLen(); n > deadQueueBound {
			t.Fatalf("queue holds %d entries after %d schedule-and-cancel rounds; compaction should bound it at %d", n, i+1, deadQueueBound)
		}
	}
	if env.Compactions() == 0 {
		t.Fatalf("no compaction passes ran under pure cancel churn")
	}
	env.RunAll()
}

// TestKilledProcWakeupsCompacted covers the other stale-event source: sleeping
// processes killed mid-sleep leave orphaned wakeups behind, and those must be
// reclaimed too.
func TestKilledProcWakeupsCompacted(t *testing.T) {
	env := NewEnv(1)
	var procs []*Proc
	for i := 0; i < 2000; i++ {
		procs = append(procs, env.Spawn("sleeper", func(p *Proc) {
			p.Sleep(Minute)
		}))
	}
	env.RunFor(Millisecond) // let every proc start and go to sleep
	for _, p := range procs {
		p.Kill()
	}
	env.RunFor(Millisecond) // unwind the kills
	if n := env.QueueLen(); n > deadQueueBound {
		t.Fatalf("queue holds %d entries after killing %d sleepers; orphaned wakeups were not reclaimed", n, len(procs))
	}
	if got := env.LiveProcs(); got != 0 {
		t.Fatalf("%d processes still live after kill", got)
	}
}

// TestCompactionPreservesLiveEvents pins that compaction only drops stale
// entries: live timers scheduled before heavy cancel churn must still fire,
// in order, at their original times.
func TestCompactionPreservesLiveEvents(t *testing.T) {
	env := NewEnv(1)
	var fired []int
	for i := 0; i < 64; i++ {
		i := i
		env.After(Duration(i+1)*Millisecond, func() { fired = append(fired, i) })
	}
	for i := 0; i < 50_000; i++ {
		cancel := env.After(Second, func() {})
		cancel()
	}
	if env.Compactions() == 0 {
		t.Fatalf("test did not exercise compaction")
	}
	env.RunFor(Second)
	if len(fired) != 64 {
		t.Fatalf("%d of 64 live timers fired after compaction", len(fired))
	}
	for i, v := range fired {
		if v != i {
			t.Fatalf("timers fired out of order: %v", fired)
		}
	}
}

// TestCancelAfterRecycleIsNoOp pins the generation guard on cancel tokens: a
// cancel called after its timer already fired must not cancel an unrelated
// timer that recycled the same event struct.
func TestCancelAfterRecycleIsNoOp(t *testing.T) {
	env := NewEnv(1)
	fired := 0
	var cancels []func()
	for i := 0; i < 64; i++ {
		cancels = append(cancels, env.After(Microsecond, func() { fired++ }))
	}
	env.RunFor(Millisecond)
	if fired != 64 {
		t.Fatalf("first batch: %d of 64 fired", fired)
	}
	// The second batch reuses the recycled structs of the first.
	for i := 0; i < 64; i++ {
		env.After(Microsecond, func() { fired++ })
	}
	for _, c := range cancels {
		c() // stale tokens: must not touch the recycled events
	}
	env.RunFor(Millisecond)
	if fired != 128 {
		t.Fatalf("second batch lost timers to stale cancel tokens: fired=%d, want 128", fired)
	}
}

// TestEventReuseKeepsOrderDeterministic replays a mixed sleep/cancel/kill
// workload twice and requires identical wake orders — free-list reuse and
// compaction must not perturb the (time, seq) total order.
func TestEventReuseKeepsOrderDeterministic(t *testing.T) {
	run := func() []int {
		env := NewEnv(7)
		var order []int
		for i := 0; i < 200; i++ {
			i := i
			d := Duration(env.Rand().Intn(1000)+1) * Microsecond
			env.Spawn("p", func(p *Proc) {
				p.Sleep(d)
				order = append(order, i)
			})
			if i%3 == 0 {
				cancel := env.After(d, func() {})
				cancel()
			}
		}
		env.RunAll()
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 200 {
		t.Fatalf("runs incomplete: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("wake order diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
