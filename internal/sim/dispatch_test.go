package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// dispatchKey is where a test-scheduled event belongs in dispatch order: its
// due time, then the order in which the test scheduled it.
type dispatchKey struct {
	at Time
	n  int
}

func (k dispatchKey) before(o dispatchKey) bool {
	return k.at < o.at || (k.at == o.at && k.n < o.n)
}

// dispatchLog keys every event the test schedules and checks each dispatch
// against that key.
type dispatchLog struct {
	env  *Env
	n    int
	last dispatchKey
	want map[dispatchKey]bool // false once canceled or orphaned by a kill
	runs map[dispatchKey]int
	err  string // first violation; process bodies must not call t.Fatal
}

func (l *dispatchLog) key(at Time) dispatchKey {
	l.n++
	k := dispatchKey{at, l.n}
	l.want[k] = true
	return k
}

func (l *dispatchLog) ran(k dispatchKey) {
	switch {
	case l.err != "":
	case k.at != l.env.Now():
		l.err = fmt.Sprintf("event %+v dispatched at %d", k, l.env.Now())
	case !l.last.before(k):
		l.err = fmt.Sprintf("event %+v dispatched after %+v", k, l.last)
	}
	l.last = k
	l.runs[k]++
}

// drop records that k must never run, unless it already has.
func (l *dispatchLog) drop(k dispatchKey) {
	if l.runs[k] == 0 {
		l.want[k] = false
	}
}

func (l *dispatchLog) after(d Duration, fn func()) (cancel func()) {
	k := l.key(l.env.Now().Add(d))
	c := l.env.After(d, func() { l.ran(k); fn() })
	return func() { c(); l.drop(k) }
}

func (l *dispatchLog) post(fn func()) {
	k := l.key(l.env.Now())
	l.env.Post(func() { l.ran(k); fn() })
}

// worker is a test process; pending is the key of its queued wakeup, zero
// when it has none.
type worker struct {
	p       *Proc
	pending dispatchKey
	killed  bool
}

func (l *dispatchLog) spawn(body func(w *worker)) *worker {
	w := &worker{}
	k := l.key(l.env.Now())
	w.pending = k
	w.p = l.env.Spawn("worker", func(p *Proc) {
		w.pending = dispatchKey{}
		l.ran(k)
		body(w)
	})
	return w
}

// sleep covers Yield too: a zero-length sleep is due at the current instant.
func (l *dispatchLog) sleep(w *worker, d Duration) {
	k := l.key(l.env.Now().Add(d))
	w.pending = k
	if d == 0 {
		w.p.Yield()
	} else {
		w.p.Sleep(d)
	}
	w.pending = dispatchKey{}
	l.ran(k)
}

func (l *dispatchLog) kill(w *worker) {
	if w.killed || w.p.Done() {
		return
	}
	w.killed = true
	if w.pending != (dispatchKey{}) {
		l.drop(w.pending)
	}
	w.p.Kill()
}

// testSignal mirrors a Signal's waiter list so Broadcast can key each
// wakeup in the order the Signal schedules them.
type testSignal struct {
	sig     *Signal
	waiters []*worker
}

func (s *testSignal) wait(l *dispatchLog, w *worker) {
	s.waiters = append(s.waiters, w)
	s.sig.Wait(w.p)
	k := w.pending
	w.pending = dispatchKey{}
	l.ran(k)
}

func (s *testSignal) broadcast(l *dispatchLog) {
	for _, w := range s.waiters {
		if !w.killed && !w.p.Done() {
			w.pending = l.key(l.env.Now())
		}
	}
	s.waiters = s.waiters[:0]
	s.sig.Broadcast()
}

// TestDispatchOrderProperty drives random mixes of After (delay 0
// included), Post, Spawn, Sleep, Yield, Signal wait/broadcast, cancels and
// kills, and checks that every event dispatches in strict (time, schedule
// order), that every event not canceled or orphaned by a kill runs exactly
// once, and that the queue drains. Each seed also plays one fixed scene at
// a shared instant T: callbacks already queued for T schedule same-instant
// work while earlier ones for T are still pending, a delay-0 callback is
// canceled before it fires, cancel churn compacts the queue mid-instant, and
// a process is killed while its Yield wakeup is queued for T.
func TestDispatchOrderProperty(t *testing.T) {
	for seed := int64(1); seed <= 240; seed++ {
		if err := dispatchScenario(seed); err != "" {
			t.Fatalf("seed %d: %s", seed, err)
		}
	}
}

// cancelChurn is how many timers a churn burst arms and cancels at once.
const cancelChurn = 128

func dispatchScenario(seed int64) string {
	env := NewEnv(seed)
	defer env.Shutdown()
	r := rand.New(rand.NewSource(seed))
	l := &dispatchLog{env: env, want: map[dispatchKey]bool{}, runs: map[dispatchKey]int{}}
	const budget = 400
	sigs := []*testSignal{{sig: NewSignal(env)}, {sig: NewSignal(env)}}
	var (
		workers []*worker
		cancels []func()
		self    *worker // the worker running act, which must not kill itself
		act     func()
		body    func(w *worker)
	)
	delay := func() Duration { return Duration(r.Intn(4)) * Microsecond }
	act = func() {
		for i := r.Intn(3); i >= 0 && l.n < budget; i-- {
			switch r.Intn(10) {
			case 0, 1:
				cancels = append(cancels, l.after(delay(), act))
			case 2:
				l.post(act)
			case 3:
				workers = append(workers, l.spawn(body))
			case 4:
				sigs[r.Intn(len(sigs))].broadcast(l)
			case 5:
				if len(cancels) > 0 {
					cancels[r.Intn(len(cancels))]()
				}
			case 6:
				if len(workers) > 0 {
					if w := workers[r.Intn(len(workers))]; w != self {
						l.kill(w)
					}
				}
			case 7:
				l.after(0, act)()
			case 8:
				for j := 0; j < cancelChurn; j++ {
					env.After(Second, func() {})()
				}
			case 9:
				cancels = append(cancels, l.after(0, act))
			}
		}
	}
	body = func(w *worker) {
		for i := r.Intn(6); i >= 0; i-- {
			switch r.Intn(5) {
			case 0, 1:
				l.sleep(w, delay())
			case 2:
				sigs[r.Intn(len(sigs))].wait(l, w)
			default:
				self = w
				act()
				self = nil
			}
		}
	}

	// The fixed scene at T. A, B and C are the first events queued for T,
	// so the victim's wakeup for T and all work posted at T come after
	// them.
	T := Duration(1+r.Intn(3)) * Microsecond
	victim := l.spawn(func(w *worker) {
		l.sleep(w, T)
		l.sleep(w, 0)
	})
	var canceledAtT func()
	compacted := false
	// A posts the kill, which runs after B, C and the victim's wakeup, and
	// queues three delay-0 callbacks; it cancels the last one at once.
	l.after(T, func() {
		l.post(func() {
			if victim.pending.at != env.Now() {
				l.err = "victim has no wakeup queued for T"
			}
			l.kill(victim)
		})
		canceledAtT = l.after(0, func() {})
		l.after(0, act)
		l.after(0, func() {})()
	})
	// B cancels A's first delay-0 callback before it fires.
	l.after(T, func() { canceledAtT() })
	// C churns cancels until the queue compacts, with A's work pending.
	l.after(T, func() {
		before := env.Compactions()
		for j := 0; j < 4*cancelChurn; j++ {
			env.After(Second, func() {})()
		}
		compacted = env.Compactions() > before
	})
	for i := 0; i < 4; i++ {
		workers = append(workers, l.spawn(body))
	}
	act()

	env.RunAll()
	switch {
	case l.err != "":
		return l.err
	case !compacted:
		return "cancel churn at T did not compact the queue"
	case !victim.p.Done():
		return "victim outlived its kill"
	case env.QueueLen() != 0:
		return fmt.Sprintf("QueueLen() = %d after RunAll", env.QueueLen())
	}
	for k, want := range l.want {
		if got := l.runs[k]; (want && got != 1) || (!want && got != 0) {
			return fmt.Sprintf("event %+v ran %d times (want run: %v)", k, got, want)
		}
	}
	return ""
}
