// SubmitAll edge cases: empty batches, hoisted whole-batch validation,
// pipelined makespan vs serial Submit, FIFO fairness against concurrent
// Submit callers, the job telemetry Submit and SubmitAll share, and
// restart-engine rebuilds of batch-built shards.

package builder_test

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"xoar/internal/builder"
	"xoar/internal/hv"
	"xoar/internal/osimage"
	"xoar/internal/sim"
	"xoar/internal/telemetry"
	"xoar/internal/xtypes"
)

func TestSubmitAllEmptyBatch(t *testing.T) {
	env, _, b := newRig(t)
	defer env.Shutdown()
	run(t, env, sim.Second, func(p *sim.Proc) {
		doms, errs := b.SubmitAll(p, nil)
		if doms != nil || errs != nil {
			t.Errorf("empty batch: doms=%v errs=%v", doms, errs)
		}
		doms, errs = b.SubmitAll(p, []builder.Request{})
		if doms != nil || errs != nil {
			t.Errorf("zero-length batch: doms=%v errs=%v", doms, errs)
		}
	})
	if b.Builds != 0 || b.Denied != 0 {
		t.Fatalf("empty batch altered state: builds=%d denied=%d", b.Builds, b.Denied)
	}
}

// One invalid request rejects the whole batch before any build compute is
// spent: no domains exist afterwards, the valid slots carry ErrBatchAborted,
// and the reply arrives at the submission instant (validation costs no sim
// time — nothing was scrubbed, nothing booted).
func TestSubmitAllInvalidRejectsWholeBatch(t *testing.T) {
	env, h, b := newRig(t)
	defer env.Shutdown()
	ts := newShard(t, h, "ts")

	domsBefore := len(h.Domains())
	run(t, env, 10*sim.Second, func(p *sim.Proc) {
		start := p.Now()
		doms, errs := b.SubmitAll(p, []builder.Request{
			{Requester: ts, Name: "ok-0", Image: osimage.ImgQemu},
			{Requester: ts, Name: "bad", Image: "evil-kernel"},
			{Requester: ts, Name: "ok-1", Image: osimage.ImgQemu},
		})
		if len(doms) != 3 || len(errs) != 3 {
			t.Fatalf("result shape: doms=%v errs=%v", doms, errs)
		}
		for i, d := range doms {
			if d != xtypes.DomIDNone {
				t.Errorf("slot %d built %v despite batch rejection", i, d)
			}
		}
		if !errors.Is(errs[1], xtypes.ErrNotFound) {
			t.Errorf("invalid slot error: %v", errs[1])
		}
		for _, i := range []int{0, 2} {
			if !errors.Is(errs[i], xtypes.ErrBatchAborted) {
				t.Errorf("valid slot %d error: %v", i, errs[i])
			}
		}
		if p.Now() != start {
			t.Errorf("rejected batch consumed %v of build time", p.Now().Sub(start))
		}
	})
	if b.Builds != 0 {
		t.Fatalf("rejected batch built %d domains", b.Builds)
	}
	if b.Denied != 1 {
		t.Fatalf("denied = %d, want 1 (only the invalid request)", b.Denied)
	}
	if got := len(h.Domains()); got != domsBefore {
		t.Fatalf("domain count changed: %d -> %d", domsBefore, got)
	}
}

// The pipelined batch finishes strictly sooner than the same requests
// submitted serially — construction of domain i+1 overlaps the supervised
// boot of domain i — while boots stay serialized (the makespan is never
// below the sum of the boot times).
func TestSubmitAllPipelinesBoots(t *testing.T) {
	const n = 4
	reqs := func(ts xtypes.DomID) []builder.Request {
		rs := make([]builder.Request, n)
		for i := range rs {
			// 512MB reservations make the scrub stage worth overlapping.
			rs[i] = builder.Request{
				Requester: ts, Name: fmt.Sprintf("fleet-%d", i),
				Image: osimage.ImgQemu, MemMB: 512,
			}
		}
		return rs
	}
	bootSum := func() sim.Duration {
		img, err := osimage.DefaultCatalog().Lookup(osimage.ImgQemu)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Duration(n) * img.BootTime()
	}()

	// Serial baseline: one Submit per request, on its own same-seed rig.
	var serial sim.Duration
	{
		env, h, b := newRig(t)
		ts := newShard(t, h, "ts")
		run(t, env, 60*sim.Second, func(p *sim.Proc) {
			start := p.Now()
			for _, req := range reqs(ts) {
				if _, err := b.Submit(p, req); err != nil {
					t.Errorf("serial submit: %v", err)
				}
			}
			serial = p.Now().Sub(start)
		})
		env.Shutdown()
	}

	env, h, b := newRig(t)
	defer env.Shutdown()
	ts := newShard(t, h, "ts")
	var pipelined sim.Duration
	run(t, env, 60*sim.Second, func(p *sim.Proc) {
		start := p.Now()
		doms, errs := b.SubmitAll(p, reqs(ts))
		pipelined = p.Now().Sub(start)
		for i, err := range errs {
			if err != nil {
				t.Errorf("batch slot %d: %v", i, err)
			}
		}
		for i := 1; i < n; i++ {
			// Construction order follows batch order: ascending DomIDs.
			if doms[i] <= doms[i-1] {
				t.Errorf("batch built out of order: %v", doms)
			}
		}
	})

	if pipelined >= serial {
		t.Fatalf("pipelined makespan %v not below serial %v", pipelined, serial)
	}
	if pipelined < bootSum {
		t.Fatalf("pipelined makespan %v below boot sum %v: boots overlapped", pipelined, bootSum)
	}
	if b.Builds != n {
		t.Fatalf("builds = %d, want %d", b.Builds, n)
	}
}

// A batch occupies the serve loop until its last boot completes, so a
// Submit enqueued behind it completes after every batch member, and a
// Submit enqueued ahead of it completes before any — FIFO is preserved
// across the two entry points.
func TestSubmitAllInterleavedWithSubmitFIFO(t *testing.T) {
	env, h, b := newRig(t)
	defer env.Shutdown()
	ts := newShard(t, h, "ts")

	const n = 3
	var (
		beforeDone, batchDone, afterDone sim.Time
		batchDoms                        []xtypes.DomID
		afterDom                         xtypes.DomID
	)
	env.Spawn("submit-before", func(p *sim.Proc) {
		if _, err := b.Submit(p, builder.Request{Requester: ts, Name: "before", Image: osimage.ImgQemu}); err != nil {
			t.Errorf("before: %v", err)
		}
		beforeDone = p.Now()
	})
	env.Spawn("submit-batch", func(p *sim.Proc) {
		// Yield once so the single Submit is enqueued first.
		p.Sleep(sim.Microsecond)
		reqs := make([]builder.Request, n)
		for i := range reqs {
			reqs[i] = builder.Request{Requester: ts, Name: fmt.Sprintf("b-%d", i), Image: osimage.ImgQemu}
		}
		doms, errs := b.SubmitAll(p, reqs)
		for i, err := range errs {
			if err != nil {
				t.Errorf("batch slot %d: %v", i, err)
			}
		}
		batchDoms = doms
		batchDone = p.Now()
	})
	env.Spawn("submit-after", func(p *sim.Proc) {
		p.Sleep(2 * sim.Microsecond)
		dom, err := b.Submit(p, builder.Request{Requester: ts, Name: "after", Image: osimage.ImgQemu})
		if err != nil {
			t.Errorf("after: %v", err)
		}
		afterDom = dom
		afterDone = p.Now()
	})
	env.RunFor(60 * sim.Second)

	if !(beforeDone < batchDone && batchDone < afterDone) {
		t.Fatalf("FIFO violated: before=%v batch=%v after=%v", beforeDone, batchDone, afterDone)
	}
	for _, d := range batchDoms {
		if afterDom <= d {
			t.Fatalf("queued Submit built %v before batch member %v", afterDom, d)
		}
	}
	if b.Builds != n+2 {
		t.Fatalf("builds = %d, want %d", b.Builds, n+2)
	}
}

// Submit is a one-slot job and SubmitAll an n-slot one, served by the same
// routine: each job records one build-latency and one batch-size
// observation and one build-batch[n] root span. Under the root, the boot
// children run back to back, and none starts before its own construction
// ends.
func TestSubmitAndSubmitAllShareJobTelemetry(t *testing.T) {
	for _, n := range []int{1, 3} {
		env, h, b := newRig(t)
		reg := telemetry.New()
		b.SetMetrics(reg)
		ts := newShard(t, h, "ts")
		reqs := make([]builder.Request, n)
		for i := range reqs {
			reqs[i] = builder.Request{Requester: ts, Name: fmt.Sprintf("g-%d", i), Image: osimage.ImgQemu}
		}
		run(t, env, 60*sim.Second, func(p *sim.Proc) {
			if n == 1 {
				if _, err := b.Submit(p, reqs[0]); err != nil {
					t.Errorf("submit: %v", err)
				}
				return
			}
			_, errs := b.SubmitAll(p, reqs)
			for i, err := range errs {
				if err != nil {
					t.Errorf("batch slot %d: %v", i, err)
				}
			}
		})
		env.Shutdown()

		if got := histogram(t, reg, "builder_build_latency_ms").Count; got != 1 {
			t.Errorf("n=%d: %d build-latency observations, want 1", n, got)
		}
		if got := histogram(t, reg, "builder_batch_size").Count; got != 1 {
			t.Errorf("n=%d: %d batch-size observations, want 1", n, got)
		}
		spans := reg.Tracer().Events()
		var roots []telemetry.SpanEvent
		for _, ev := range spans {
			if ev.Domain == "builder" && ev.Parent == 0 {
				roots = append(roots, ev)
			}
		}
		if want := fmt.Sprintf("build-batch[%d]", n); len(roots) != 1 || roots[0].Name != want {
			t.Fatalf("n=%d: %d builder root spans, want one %q", n, len(roots), want)
		}
		constructed := make(map[string]sim.Time)
		var boots []telemetry.SpanEvent
		for _, c := range spans {
			if c.Parent != roots[0].ID {
				continue
			}
			if name, ok := strings.CutPrefix(c.Name, "construct:"); ok {
				constructed[name] = c.End
			} else if strings.HasPrefix(c.Name, "boot:") {
				boots = append(boots, c)
			}
		}
		if len(constructed) != n || len(boots) != n {
			t.Fatalf("n=%d: %d construct and %d boot children", n, len(constructed), len(boots))
		}
		slices.SortFunc(boots, func(x, y telemetry.SpanEvent) int { return cmp.Compare(x.Start, y.Start) })
		for i, bt := range boots {
			end, ok := constructed[strings.TrimPrefix(bt.Name, "boot:")]
			if !ok || bt.Start < end {
				t.Errorf("n=%d: %s starts at %v, before its construction ended at %v", n, bt.Name, bt.Start, end)
			}
			if i > 0 && bt.Start != boots[i-1].End {
				t.Errorf("n=%d: %s starts at %v, not when %s ended at %v", n, bt.Name, bt.Start, boots[i-1].Name, boots[i-1].End)
			}
		}
		if roots[0].End != boots[n-1].End {
			t.Errorf("n=%d: job span ends at %v, last boot at %v", n, roots[0].End, boots[n-1].End)
		}
	}
}

// Batch-built shards land in the Builder's build records exactly like
// Submit-built ones: the restart engine can rebuild them after a crash.
func TestRebuildOfBatchBuiltShard(t *testing.T) {
	env, h, b := newRig(t)
	defer env.Shutdown()
	bs := newShard(t, h, "bootstrap", xtypes.HyperDelegateAdmin)
	b.Authorize(bs)

	var doms []xtypes.DomID
	run(t, env, 60*sim.Second, func(p *sim.Proc) {
		var errs []error
		doms, errs = b.SubmitAll(p, []builder.Request{
			{Requester: bs, Name: "netback", Image: osimage.ImgNetBack, Shard: true,
				Privileges: hv.Assignment{Hypercalls: []xtypes.Hypercall{xtypes.HyperVMSnapshot}}},
			{Requester: bs, Name: "blkback", Image: osimage.ImgBlkBack, Shard: true,
				Privileges: hv.Assignment{Hypercalls: []xtypes.Hypercall{xtypes.HyperVMSnapshot}}},
		})
		for i, err := range errs {
			if err != nil {
				t.Errorf("batch slot %d: %v", i, err)
			}
		}
	})
	shard := doms[0]
	if err := h.Delegate(bs, shard, b.Dom()); err != nil {
		t.Fatal(err)
	}
	if err := h.VMSnapshot(shard); err != nil {
		t.Fatal(err)
	}
	if err := h.DestroyDomain(hv.SystemCaller, shard, "driver crash"); err != nil {
		t.Fatal(err)
	}

	var newDom xtypes.DomID
	run(t, env, 30*sim.Second, func(p *sim.Proc) {
		var err error
		newDom, err = b.Recover(p, shard)
		if err != nil {
			t.Errorf("recover of batch-built shard: %v", err)
		}
	})
	if newDom == shard || newDom == xtypes.DomIDNone {
		t.Fatalf("recover returned %v", newDom)
	}
	nd, err := h.Domain(newDom)
	if err != nil {
		t.Fatal(err)
	}
	if !nd.IsShard() || nd.Name != "netback" || nd.ParentTool() != b.Dom() {
		t.Fatalf("rebuilt shard=%v name=%q parent=%v", nd.IsShard(), nd.Name, nd.ParentTool())
	}
	if b.Rebuilds != 1 {
		t.Fatalf("rebuilds = %d", b.Rebuilds)
	}
}

// histogram returns the snapshot of reg's histogram called name.
func histogram(t *testing.T, reg *telemetry.Registry, name string) telemetry.HistogramSnap {
	t.Helper()
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == name {
			return h
		}
	}
	t.Fatalf("no histogram %q", name)
	return telemetry.HistogramSnap{}
}
