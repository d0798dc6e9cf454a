package xoarlint

import (
	"strings"
	"testing"
)

// --- hotpath -----------------------------------------------------------------

const hotpathSrc = `package ring

type Req struct{ ID int }

type Ring struct {
	slots  []Req
	broken bool
	notify func()
}

// Escaping composite literal and slice literal: flagged.
//
//xoarlint:hot
func (r *Ring) Escapes() *Req {
	_ = []int{1, 2, 3}
	return &Req{ID: 1}
}

// Append growth: flagged.
//
//xoarlint:hot
func (r *Ring) Grow(q Req) {
	r.slots = append(r.slots, q)
}

// Closure allocation: flagged.
//
//xoarlint:hot
func (r *Ring) Capture(n int) {
	r.notify = func() { _ = n }
}

// Cold fences: the error branch, the broken-flag branch and the
// panic-terminated branch may allocate freely.
//
//xoarlint:hot
func (r *Ring) Fenced(err error, n int) {
	if err != nil {
		_ = append([]int(nil), 1)
	}
	if r.broken {
		_ = make([]int, n)
	}
	if n > len(r.slots) {
		panic("overrun")
	}
	_ = len(r.slots)
}

// Suppressed inside a hot function: justified growth is accepted.
//
//xoarlint:hot
func (r *Ring) Amortized(q Req) {
	//xoarlint:allow(hotpath) backlog growth is bounded and reuses capacity at steady state
	r.slots = append(r.slots, q)
}

// Value-struct literal and in-place work: clean.
//
//xoarlint:hot
func (r *Ring) Clean(i int) Req {
	q := Req{ID: i}
	r.slots[0] = q
	return r.slots[0]
}

// Not annotated: allocations here are invisible unless reached from a root.
func (r *Ring) cold() *Req { return &Req{} }
`

func TestHotpathFlagsAllocationSites(t *testing.T) {
	p := loadSrc(t, "xoar/internal/ring", hotpathSrc)
	diags := diagsOf(t, "hotpath", p)
	wantDiags(t, diags,
		"slice/map composite literal",
		"&composite literal escapes",
		"append may grow",
		"function literal allocates a closure",
	)
}

func TestHotpathColdFences(t *testing.T) {
	// Fenced must contribute nothing: its only allocations sit behind an
	// err != nil check, a broken flag, and a panic terminator.
	p := loadSrc(t, "xoar/internal/ring", hotpathSrc)
	for _, d := range diagsOf(t, "hotpath", p) {
		if d.Pos.Line >= 44 && d.Pos.Line <= 56 {
			t.Errorf("cold-fenced site flagged: %v", d)
		}
	}
}

func TestHotpathSeveredAnnotationsDropRoots(t *testing.T) {
	// Stripping every //xoarlint:hot silences the analyzer entirely — which
	// is exactly why HOTPATH.json is drift-gated: the artifact diff, not a
	// diagnostic, is what catches a severed annotation.
	stripped := strings.ReplaceAll(hotpathSrc, "//xoarlint:hot", "//")
	p := loadSrc(t, "xoar/internal/ring", stripped)
	if diags := diagsOf(t, "hotpath", p); len(diags) != 0 {
		t.Fatalf("severed fixture still diagnosed: %v", diags)
	}
	old := BuildHotPath([]*Package{loadSrc(t, "xoar/internal/ring", hotpathSrc)})
	now := BuildHotPath([]*Package{p})
	if len(now.Roots) != 0 {
		t.Fatalf("stripped fixture still has roots: %+v", now.Roots)
	}
	diff := DiffHotPath(old, now)
	if len(diff) == 0 {
		t.Fatal("DiffHotPath reported no drift for severed annotations")
	}
	for _, line := range diff {
		if !strings.Contains(line, "no longer annotated") {
			t.Errorf("unexpected diff line %q", line)
		}
	}
}

const hotpathCallSrc = `package dev

type sink interface{ Put(v any) }

type Dev struct {
	s       sink
	counts  map[int]int
	handler func()
	pump    func()
}

func (d *Dev) step() { d.counts = nil }

func put(v any) {}

type point struct{ x int }

//xoarlint:hot
func (d *Dev) Boxes(p point, pp *point) {
	put(p)  // non-pointer into an any parameter: flagged
	put(pp) // pointer: free
	put(nil)
}

//xoarlint:hot
func (d *Dev) MapAndString(k int, s string) {
	d.counts[k] = 1          // map assign: flagged
	_ = s + "x"              // concat: flagged
	_ = []byte(s)            // string -> slice: flagged
	_ = string(rune(k))      // non-string -> string: flagged
	_ = point{x: k}          // value literal: free
}

//xoarlint:hot
func (d *Dev) Spawns() {
	go d.step() // goroutine: flagged
}

func (d *Dev) install() {
	d.pump = d.step
}

// Dynamic call through a field bound once to a named method: resolved and
// walked, so step's map-clear shows up as the only finding.
//
//xoarlint:hot
func (d *Dev) Dispatch() {
	if d.pump != nil {
		d.pump()
	}
}

// SetHandler forwards its parameter into the field; a hot call through it
// cannot be resolved and is itself the diagnostic.
func (d *Dev) SetHandler(h func()) { d.handler = h }

//xoarlint:hot
func (d *Dev) Fire() {
	if d.handler != nil {
		d.handler()
	}
}
`

func TestHotpathBoxingAndBuiltins(t *testing.T) {
	p := loadSrc(t, "xoar/internal/dev", hotpathCallSrc)
	diags := diagsOf(t, "hotpath", p)
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.Message)
	}
	joined := strings.Join(msgs, "\n")
	for _, want := range []string{
		"interface boxing of non-pointer value",
		"map assignment",
		"string concatenation",
		"string to slice conversion",
		"conversion to string",
		"go statement",
		"cannot resolve call through function value xoar/internal/dev.Dev.handler",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing diagnostic %q in:\n%s", want, joined)
		}
	}
	if n := strings.Count(joined, "interface boxing"); n != 1 {
		t.Errorf("boxing flagged %d times, want 1 (pointer and nil args are free)", n)
	}
	if strings.Contains(joined, "Dev.pump") {
		t.Errorf("resolved field call diagnosed as unresolvable:\n%s", joined)
	}
}

func TestHotpathWalksResolvedFieldBindings(t *testing.T) {
	p := loadSrc(t, "xoar/internal/dev", hotpathCallSrc)
	hp := BuildHotPath([]*Package{p})
	var dispatch *HotPathRoot
	for i := range hp.Roots {
		if hp.Roots[i].Root == "xoar/internal/dev.Dev.Dispatch" {
			dispatch = &hp.Roots[i]
		}
	}
	if dispatch == nil {
		t.Fatal("Dispatch root missing from artifact")
	}
	joined := strings.Join(dispatch.Reachable, "\n")
	if !strings.Contains(joined, "xoar/internal/dev.Dev.step") {
		t.Errorf("Dispatch did not walk the field-bound method:\n%s", joined)
	}
}

func TestHotpathAnnotationGrammar(t *testing.T) {
	src := `package ring

//xoarlint:hot bench=BenchmarkMicro_X allocs=2
func Budgeted() {}

//xoarlint:hot turbo=yes
func Bad() {}
`
	p := loadSrc(t, "xoar/internal/ring", src)
	diags := diagsOf(t, "hotpath", p)
	wantDiags(t, diags, `unknown token "turbo=yes"`)
	hp := BuildHotPath([]*Package{p})
	var budgeted *HotPathRoot
	for i := range hp.Roots {
		if hp.Roots[i].Root == "xoar/internal/ring.Budgeted" {
			budgeted = &hp.Roots[i]
		}
	}
	if budgeted == nil {
		t.Fatal("Budgeted root missing")
	}
	if budgeted.Bench != "BenchmarkMicro_X" || budgeted.AllocsPerOp != 2 {
		t.Errorf("parsed bench=%q allocs=%d, want BenchmarkMicro_X/2", budgeted.Bench, budgeted.AllocsPerOp)
	}
}

func TestHotpathStdlibPolicy(t *testing.T) {
	src := `package dev

import (
	"container/heap"
	"fmt"
	"sort"
	"sync/atomic"
)

var n atomic.Int64

var q heap.Interface

//xoarlint:hot
func Mixed(xs []float64, v float64) {
	n.Add(1)                     // sync/atomic: free
	_ = sort.SearchFloat64s(xs, v) // sort.Search*: free
	fmt.Println(v)               // fmt: flagged
	sort.Float64s(xs)            // unproven stdlib: flagged as unprovable
	heap.Push(q, &v)             // no special case: unprovable like sort
}
`
	p := loadSrc(t, "xoar/internal/dev", src)
	diags := diagsOf(t, "hotpath", p)
	wantDiags(t, diags,
		"call into fmt allocates",
		"cannot prove sort.Float64s allocation-free",
		"cannot prove container/heap.Push allocation-free",
	)
}

func TestHotpathDecodeRoundTrip(t *testing.T) {
	p := loadSrc(t, "xoar/internal/ring", hotpathSrc)
	hp := BuildHotPath([]*Package{p})
	back, err := DecodeHotPath(hp.EncodeJSON())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Roots) != len(hp.Roots) {
		t.Fatalf("round trip lost roots: %d -> %d", len(hp.Roots), len(back.Roots))
	}
	if diff := DiffHotPath(hp, back); len(diff) != 0 {
		t.Fatalf("round trip drifted: %v", diff)
	}
}

// A func field stored by a multi-value assignment has no traceable value: a
// hot call through it must fail closed, not pass as "never assigned".
func TestHotpathTupleAssignedFieldUnresolved(t *testing.T) {
	src := `package dev

type Dev struct {
	pump func()
}

func build() (func(), error) { return func() {}, nil }

func (d *Dev) install() error {
	var err error
	d.pump, err = build()
	return err
}

//xoarlint:hot
func (d *Dev) Dispatch() {
	d.pump()
}
`
	p := loadSrc(t, "xoar/internal/dev", src)
	wantDiags(t, diagsOf(t, "hotpath", p),
		"cannot resolve call through function value xoar/internal/dev.Dev.pump")
}

const hotpathCoroSrc = `package sched

import "iter"

type coro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

func newCoro() *coro {
	c := &coro{}
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for yield(struct{}{}) {
	}
}

// Resume and Block switch coroutines through iter.Pull's next and the
// yield it passed in: both are allocation-free.
//
//xoarlint:hot
func (c *coro) Resume() { c.next() }

//xoarlint:hot
func (c *coro) Block() bool { return c.yield(struct{}{}) }

// Creating a coroutine is not a switch: iter.Pull starts a goroutine.
//
//xoarlint:hot
func (c *coro) Restart() {
	c.next, c.stop = iter.Pull(c.loop)
}
`

func TestHotpathCoroutineSwitches(t *testing.T) {
	p := loadSrc(t, "xoar/internal/sched", hotpathCoroSrc)
	wantDiags(t, diagsOf(t, "hotpath", p), "cannot prove iter.Pull allocation-free")
	reach := map[string][]string{}
	for _, r := range BuildHotPath([]*Package{p}).Roots {
		reach[r.Root] = r.Reachable
	}
	for root, want := range map[string]string{
		"xoar/internal/sched.coro.Resume": "xoar/internal/sched.coro.next (func value)",
		"xoar/internal/sched.coro.Block":  "xoar/internal/sched.coro.yield (func value)",
	} {
		if !strings.Contains(strings.Join(reach[root], "\n"), want) {
			t.Errorf("%s reaches %v, want %q", root, reach[root], want)
		}
	}
	// The switch does not walk into the sequence function: what runs on the
	// other side is charged to its own roots.
	if strings.Contains(strings.Join(reach["xoar/internal/sched.coro.Resume"], "\n"), "coro.loop") {
		t.Errorf("Resume walked into the coroutine body: %v", reach["xoar/internal/sched.coro.Resume"])
	}
}

// A sequence function that is also called directly may receive some other
// yield, so the field it stores its yield in stays unresolved.
func TestHotpathCoroutineYieldNeedsPullOnlySeq(t *testing.T) {
	src := strings.Replace(hotpathCoroSrc, "\treturn c\n}", "\tc.loop(func(struct{}) bool { return false })\n\treturn c\n}", 1)
	if src == hotpathCoroSrc {
		t.Fatal("fixture edit did not apply")
	}
	p := loadSrc(t, "xoar/internal/sched", src)
	wantDiags(t, diagsOf(t, "hotpath", p),
		"cannot resolve call through function value yield",
		"cannot resolve call through function value xoar/internal/sched.coro.yield",
		"cannot prove iter.Pull allocation-free")
}

// reaches reports whether the root named root reached fn.
func reaches(t *testing.T, p *Package, root, fn string) bool {
	t.Helper()
	for _, r := range BuildHotPath([]*Package{p}).Roots {
		if r.Root == root {
			return strings.Contains(strings.Join(r.Reachable, "\n"), fn)
		}
	}
	t.Fatalf("root %s missing from artifact", root)
	return false
}

// A func value redeclared in an inner block does not rebind the outer one:
// the call after the block goes through d.fast, whose append is on the hot
// path.
func TestHotpathShadowedFuncValue(t *testing.T) {
	src := `package dev

type Dev struct {
	x     bool
	items []int
}

func (d *Dev) fast() { d.items = append(d.items, 1) }

func (d *Dev) slow() {}

//xoarlint:hot
func (d *Dev) Run() {
	f := d.fast
	if d.x {
		f := d.slow
		_ = f
	}
	f()
}
`
	p := loadSrc(t, "xoar/internal/dev", src)
	wantDiags(t, diagsOf(t, "hotpath", p), "append may grow its backing array")
	if !reaches(t, p, "xoar/internal/dev.Dev.Run", "xoar/internal/dev.Dev.fast") {
		t.Error("Run did not reach Dev.fast through the outer f")
	}
}

// A map declared under the same name in an inner block leaves the outer
// slice alone: indexing the slice afterwards is not a map assignment.
func TestHotpathShadowedSliceIsNotMap(t *testing.T) {
	src := `package dev

type Dev struct {
	s []int
	m map[int]int
}

//xoarlint:hot
func (d *Dev) Put(k int) {
	x := d.s
	{
		x := d.m
		_ = x
	}
	x[k] = 1
}
`
	p := loadSrc(t, "xoar/internal/dev", src)
	wantDiags(t, diagsOf(t, "hotpath", p))
}

// A method promoted from an embedded struct resolves to the embedded
// type's declaration, and its allocations are on the hot path.
func TestHotpathPromotedMethod(t *testing.T) {
	src := `package dev

type base struct{ items []int }

func (b *base) grow() { b.items = append(b.items, 1) }

type Dev struct{ base }

//xoarlint:hot
func (d *Dev) Run() { d.grow() }
`
	p := loadSrc(t, "xoar/internal/dev", src)
	wantDiags(t, diagsOf(t, "hotpath", p), "append may grow its backing array")
	if !reaches(t, p, "xoar/internal/dev.Dev.Run", "xoar/internal/dev.base.grow") {
		t.Error("Run did not reach the promoted base.grow")
	}
}
