package ring

import (
	"errors"
	"testing"
	"testing/quick"

	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

type req struct{ id int }
type resp struct{ id int }

func TestRequestResponseRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	r := New[req, resp](env, 8)
	var got []int
	env.Spawn("backend", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			rq, err := r.PopRequest(p)
			if err != nil {
				t.Error(err)
				return
			}
			p.Sleep(sim.Millisecond) // service time
			r.PushResponse(resp{id: rq.id})
		}
	})
	env.Spawn("frontend", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if !r.TryPushRequest(req{id: i}) {
				t.Errorf("push %d refused", i)
				return
			}
		}
		for i := 0; i < 3; i++ {
			rs, err := r.PopResponse(p)
			if err != nil {
				t.Error(err)
				return
			}
			got = append(got, rs.id)
		}
	})
	env.RunAll()
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("responses = %v", got)
	}
	if r.used != 0 {
		t.Fatalf("slots in use = %d", r.used)
	}
}

func TestSlotDiscipline(t *testing.T) {
	env := sim.NewEnv(1)
	r := New[req, resp](env, 2)
	env.Spawn("test", func(p *sim.Proc) {
		if !r.TryPushRequest(req{1}) || !r.TryPushRequest(req{2}) {
			t.Error("pushes failed")
		}
		if r.TryPushRequest(req{3}) {
			t.Error("push into full ring succeeded")
		}
		if !r.Full() {
			t.Error("ring should be full")
		}
		// Backend pops a request: slot is still held (response pending).
		if _, ok := r.TryPopRequest(); !ok {
			t.Error("pop failed")
		}
		if r.TryPushRequest(req{3}) {
			t.Error("slot freed too early: response not yet consumed")
		}
		r.PushResponse(resp{1})
		if _, ok := r.TryPopResponse(); !ok {
			t.Error("pop response failed")
		}
		// Now one slot is free.
		if !r.TryPushRequest(req{3}) {
			t.Error("push after slot free failed")
		}
	})
	env.RunAll()
}

// Under req_event/rsp_event, the first push after ring init notifies (the
// event indices start armed at 1); subsequent pushes are suppressed until
// the consumer re-arms by blocking in PopRequest/PopResponse. TryPop does
// not arm — pollers get no notifies.
func TestNotifyHooks(t *testing.T) {
	env := sim.NewEnv(1)
	r := New[req, resp](env, 4)
	backNotified, frontNotified := 0, 0
	r.NotifyBack = func() { backNotified++ }
	r.NotifyFront = func() { frontNotified++ }
	env.Spawn("test", func(p *sim.Proc) {
		r.TryPushRequest(req{1}) // crosses req_event=1: notify
		r.TryPushRequest(req{2}) // consumer never re-armed: suppressed
		r.TryPopRequest()
		r.TryPopRequest()
		r.PushResponse(resp{1}) // crosses rsp_event=1: notify
		r.PushResponse(resp{2}) // suppressed
	})
	env.RunAll()
	if backNotified != 1 || frontNotified != 1 {
		t.Fatalf("notifies back=%d front=%d", backNotified, frontNotified)
	}
	st := r.Stats()
	if st.NotifiesToBack != 1 || st.SuppressedToBack != 1 ||
		st.NotifiesToFront != 1 || st.SuppressedToFront != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// AlwaysNotify restores the per-descriptor baseline: a notify per push.
func TestAlwaysNotifyAblation(t *testing.T) {
	env := sim.NewEnv(1)
	r := New[req, resp](env, 4)
	r.AlwaysNotify = true
	backNotified, frontNotified := 0, 0
	r.NotifyBack = func() { backNotified++ }
	r.NotifyFront = func() { frontNotified++ }
	env.Spawn("test", func(p *sim.Proc) {
		r.TryPushRequest(req{1})
		r.TryPushRequest(req{2})
		r.TryPopRequest()
		r.TryPopRequest()
		r.PushResponse(resp{1})
		r.PushResponse(resp{2})
	})
	env.RunAll()
	if backNotified != 2 || frontNotified != 2 {
		t.Fatalf("notifies back=%d front=%d", backNotified, frontNotified)
	}
}

// A consumer that blocks in PopRequest arms req_event on its way to sleep
// (RING_FINAL_CHECK_FOR_REQUESTS), so the producer's wake-up push notifies —
// and a racing push between check and sleep is never lost.
func TestFinalCheckArmsNotify(t *testing.T) {
	env := sim.NewEnv(1)
	r := New[req, resp](env, 4)
	backNotified := 0
	r.NotifyBack = func() { backNotified++ }
	env.Spawn("backend", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if _, err := r.PopRequest(p); err != nil {
				t.Error(err)
				return
			}
		}
	})
	env.Spawn("frontend", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(sim.Millisecond) // let the backend drain and re-arm
			r.TryPushRequest(req{i})
		}
	})
	env.RunAll()
	// Every push found the backend asleep and armed: all three notify.
	if backNotified != 3 {
		t.Fatalf("backNotified = %d", backNotified)
	}
}

// Batch pushes make one notify decision for the whole burst.
func TestBatchPushSingleNotify(t *testing.T) {
	env := sim.NewEnv(1)
	r := New[req, resp](env, 8)
	backNotified, frontNotified := 0, 0
	r.NotifyBack = func() { backNotified++ }
	r.NotifyFront = func() { frontNotified++ }
	env.Spawn("test", func(p *sim.Proc) {
		if n := r.TryPushRequestBatch([]req{{1}, {2}, {3}, {4}}); n != 4 {
			t.Errorf("batch push = %d", n)
		}
		buf := make([]req, 8)
		if n := r.TryPopRequestBatch(buf); n != 4 || buf[0].id != 1 || buf[3].id != 4 {
			t.Errorf("batch pop = %d %v", n, buf[:n])
		}
		if err := r.PushResponseBatch([]resp{{1}, {2}, {3}, {4}}); err != nil {
			t.Error(err)
		}
		rbuf := make([]resp, 8)
		if n := r.TryPopResponseBatch(rbuf); n != 4 {
			t.Errorf("batch pop responses = %d", n)
		}
	})
	env.RunAll()
	if backNotified != 1 || frontNotified != 1 {
		t.Fatalf("notifies back=%d front=%d", backNotified, frontNotified)
	}
	if r.used != 0 {
		t.Fatalf("slots in use = %d", r.used)
	}
}

// A batch larger than the ring goes out in bursts that fit, as the drivers
// send it: the frontend pushes what fits, then blocks for a response and
// reaps every queued one, which frees the slots for the next burst.
// PopRequestBatch drains each burst in one wakeup.
func TestBatchBlockingRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	r := New[req, resp](env, 4)
	const total = 10
	var served, wakeups int
	env.Spawn("backend", func(p *sim.Proc) {
		buf := make([]req, 4)
		rsp := make([]resp, 4)
		for served < total {
			n, err := r.PopRequestBatch(p, buf)
			if err != nil {
				t.Error(err)
				return
			}
			wakeups++
			for i := 0; i < n; i++ {
				rsp[i] = resp{buf[i].id}
			}
			if err := r.PushResponseBatch(rsp[:n]); err != nil {
				t.Error(err)
				return
			}
			served += n
		}
	})
	env.Spawn("frontend", func(p *sim.Proc) {
		reqs := make([]req, total)
		for i := range reqs {
			reqs[i] = req{i}
		}
		buf := make([]resp, 4)
		pushed, got := 0, 0
		for got < total {
			pushed += r.TryPushRequestBatch(reqs[pushed:])
			if _, err := r.PopResponse(p); err != nil {
				t.Error(err)
				return
			}
			got += 1 + r.TryPopResponseBatch(buf)
		}
	})
	env.RunAll()
	if served != total {
		t.Fatalf("served = %d", served)
	}
	if wakeups != 3 {
		t.Fatalf("backend woke %d times for bursts of 4, 4 and 2, want 3", wakeups)
	}
	if r.used != 0 {
		t.Fatalf("slots in use = %d", r.used)
	}
}

func TestBreakWakesAndFailsAll(t *testing.T) {
	env := sim.NewEnv(1)
	r := New[req, resp](env, 1)
	var popReqErr, popRespErr error
	env.Spawn("blockedPopRequest", func(p *sim.Proc) {
		_, popReqErr = r.PopRequest(p)
	})
	env.Spawn("blockedPopResponse", func(p *sim.Proc) {
		_, popRespErr = r.PopResponse(p)
	})
	env.Spawn("breaker", func(p *sim.Proc) {
		p.Sleep(5 * sim.Millisecond)
		r.Break()
	})
	env.RunAll()
	for name, err := range map[string]error{"request": popReqErr, "response": popRespErr} {
		if !errors.Is(err, xtypes.ErrShutdown) {
			t.Errorf("blocked %s pop on broken ring: %v", name, err)
		}
	}
	if !r.Broken() {
		t.Fatal("ring not broken")
	}
	if _, ok := r.TryPopRequest(); ok {
		t.Fatal("pop on broken ring succeeded")
	}
}

func TestResetRestoresService(t *testing.T) {
	env := sim.NewEnv(1)
	r := New[req, resp](env, 2)
	env.Spawn("test", func(p *sim.Proc) {
		r.TryPushRequest(req{1})
		r.Break()
		r.Reset()
		if r.Broken() || r.used != 0 {
			t.Error("reset did not clear state")
		}
		if !r.TryPushRequest(req{2}) {
			t.Error("push after reset failed")
		}
		rq, ok := r.TryPopRequest()
		if !ok || rq.id != 2 {
			t.Errorf("pop after reset = %+v %v", rq, ok)
		}
	})
	env.RunAll()
}

// Property: for any interleaving of pushes and pops, in-flight slot count
// equals pushes minus consumed responses and never exceeds capacity.
func TestSlotAccountingProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		env := sim.NewEnv(1)
		r := New[req, resp](env, 4)
		pushed, popped, responded, consumed := 0, 0, 0, 0
		okAll := true
		env.Spawn("driver", func(p *sim.Proc) {
			for _, op := range ops {
				switch op % 4 {
				case 0:
					if r.TryPushRequest(req{pushed}) {
						pushed++
					}
				case 1:
					if _, ok := r.TryPopRequest(); ok {
						popped++
					}
				case 2:
					if responded < popped {
						r.PushResponse(resp{responded})
						responded++
					}
				case 3:
					if _, ok := r.TryPopResponse(); ok {
						consumed++
					}
				}
				if r.used != pushed-consumed || r.used > r.slots {
					okAll = false
					return
				}
			}
		})
		env.RunAll()
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Every push/pop variant — try, blocking, and batch, both directions — must
// refuse service on a broken ring. TryPopResponse
// historically skipped the broken check and let a frontend consume
// responses (freeing slots) on a ring mid-microreboot.
func TestBrokenRingRefusesAllVariants(t *testing.T) {
	cases := []struct {
		name string
		op   func(p *sim.Proc, r *Ring[req, resp]) bool // true = op succeeded
	}{
		{"TryPushRequest", func(p *sim.Proc, r *Ring[req, resp]) bool {
			return r.TryPushRequest(req{9})
		}},
		{"TryPushRequestBatch", func(p *sim.Proc, r *Ring[req, resp]) bool {
			return r.TryPushRequestBatch([]req{{9}}) > 0
		}},
		{"TryPopRequest", func(p *sim.Proc, r *Ring[req, resp]) bool {
			_, ok := r.TryPopRequest()
			return ok
		}},
		{"PopRequest", func(p *sim.Proc, r *Ring[req, resp]) bool {
			_, err := r.PopRequest(p)
			return err == nil
		}},
		{"TryPopRequestBatch", func(p *sim.Proc, r *Ring[req, resp]) bool {
			return r.TryPopRequestBatch(make([]req, 2)) > 0
		}},
		{"PopRequestBatch", func(p *sim.Proc, r *Ring[req, resp]) bool {
			n, err := r.PopRequestBatch(p, make([]req, 2))
			return err == nil && n > 0
		}},
		{"PushResponse", func(p *sim.Proc, r *Ring[req, resp]) bool {
			return r.PushResponse(resp{9}) == nil
		}},
		{"PushResponseBatch", func(p *sim.Proc, r *Ring[req, resp]) bool {
			return r.PushResponseBatch([]resp{{9}}) == nil
		}},
		{"TryPopResponse", func(p *sim.Proc, r *Ring[req, resp]) bool {
			_, ok := r.TryPopResponse()
			return ok
		}},
		{"PopResponse", func(p *sim.Proc, r *Ring[req, resp]) bool {
			_, err := r.PopResponse(p)
			return err == nil
		}},
		{"TryPopResponseBatch", func(p *sim.Proc, r *Ring[req, resp]) bool {
			return r.TryPopResponseBatch(make([]resp, 2)) > 0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv(1)
			r := New[req, resp](env, 4)
			env.Spawn("test", func(p *sim.Proc) {
				// Queue work in both directions so the ops would succeed
				// were the ring healthy, then break it.
				r.TryPushRequest(req{1})
				r.TryPushRequest(req{2})
				r.TryPopRequest()
				r.PushResponse(resp{1})
				before := r.used
				r.Break()
				if tc.op(p, r) {
					t.Errorf("%s succeeded on broken ring", tc.name)
				}
				if r.used != before {
					t.Errorf("%s changed slot accounting on broken ring: %d -> %d",
						tc.name, before, r.used)
				}
			})
			env.RunAll()
		})
	}
}

// Stats track descriptor totals across pushes, pops, and Reset (counters
// survive a microreboot so restart-spanning experiments keep totals).
func TestStatsAccounting(t *testing.T) {
	env := sim.NewEnv(1)
	r := New[req, resp](env, 4)
	env.Spawn("test", func(p *sim.Proc) {
		r.TryPushRequestBatch([]req{{1}, {2}, {3}})
		buf := make([]req, 4)
		r.TryPopRequestBatch(buf)
		r.PushResponseBatch([]resp{{1}, {2}, {3}})
		rbuf := make([]resp, 4)
		r.TryPopResponseBatch(rbuf)
		r.Break()
		r.Reset()
		r.TryPushRequest(req{4})
	})
	env.RunAll()
	st := r.Stats()
	if st.ReqPushed != 4 || st.ReqPopped != 3 || st.RespPushed != 3 || st.RespPopped != 3 {
		t.Fatalf("stats = %+v", st)
	}
}
