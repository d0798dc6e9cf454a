package xoarlint

import (
	"os"
	"path/filepath"
	"testing"
)

// unusedModule is a two-package module: a root package xoar that aliases a
// type of internal/widget, and widget itself with an in-package test, so
// widget is type-checked twice over the same files.
var unusedModule = map[string]string{
	"go.mod": "module xoar\n\ngo 1.22\n",
	"xoar.go": `package xoar

import "xoar/internal/widget"

// Widget is public API.
type Widget = widget.Widget

// New is public API.
func New() *Widget { return widget.Make() }
`,
	"internal/widget/widget.go": `package widget

import "fmt"

// Label is public API through the root alias; nothing reads it.
type Widget struct {
	n     int
	Label string
}

func Make() *Widget { return &Widget{n: 1} }

// Size is public API through the root alias; nothing calls it.
func (w *Widget) Size() int { return w.n }

type Shape interface{ Area() (area int) }

type square struct{ side int }

// Area implements Shape, with a differently named result.
func (s square) Area() (a int) { return s.side * s.side }

// String implements fmt.Stringer; nothing calls it by name.
func (s square) String() string { return fmt.Sprint(s.side) }

var shapes = []Shape{square{2}}

// total is called only from the test.
func total() int { return shapes[0].Area() }

func orphan() {}

const limit = 3
`,
	"internal/widget/widget_test.go": `package widget

import "testing"

func TestTotal(t *testing.T) {
	if total() != 4 {
		t.Fatal(total())
	}
}
`,
}

func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// withFiles returns the files of base with extra added or replaced.
func withFiles(base, extra map[string]string) map[string]string {
	out := map[string]string{}
	for name, src := range base {
		out[name] = src
	}
	for name, src := range extra {
		out[name] = src
	}
	return out
}

// The pass flags the unreferenced func and const and the func only a test
// calls, since a use in a _test.go file does not count, and nothing else:
// not the String method, the interface implementation or the exported
// method of a root alias.
func TestUnusedFlagsOnlyUnreferenced(t *testing.T) {
	pkgs, err := LoadModule(writeModule(t, unusedModule))
	if err != nil {
		t.Fatal(err)
	}
	wantDiags(t, diagsOf(t, "unused", pkgs...),
		"func xoar/internal/widget.total", "func xoar/internal/widget.orphan", "const limit")
}

// fieldFiles add to the widget package one field of each kind the field
// rule reports, and one of each kind it must not.
var fieldFiles = map[string]string{
	"internal/widget/fields.go": `package widget

import "sync"

// counter holds the fields the rule reports.
type counter struct {
	hits int // only written
	seen int // read only by the test
	knob int // read here, set only by the test
}

func (c *counter) bump() int {
	c.hits++
	c.seen = 1
	return c.knob
}

// point is set by a positional literal and compared with ==.
type point struct{ x, y int }

// key is set by a positional literal and compared as a map key.
type key struct{ a, b int }

type inner struct{ v int }

// guarded is set through a pointer-receiver method, an address and a
// nested selector.
type guarded struct {
	mu sync.Mutex
	n  int
	in inner
}

func (g *guarded) add(d int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	p := &g.n
	*p += d
	g.in.v = d
	return g.n + g.in.v
}

// wire is tagged: encoding/json reads its fields.
type wire struct {
	ID   int ` + "`json:\"id\"`" + `
	note string
}

type spare struct {
	part int //xoarlint:allow(unused) test support: the fields test reads it
}

func init() {
	var c counter
	var g guarded
	_ = c.bump() + g.add(1)
	_ = point{0, 0} == point{1, 2}
	_ = map[key]bool{}[key{1, 2}]
	_, _ = wire{}, spare{}
}
`,
	"internal/widget/fields_test.go": `package widget

import "testing"

func TestFields(t *testing.T) {
	c := counter{knob: 2}
	if c.bump() != 2 || c.seen != 1 || (spare{}).part != 0 {
		t.Fatal("fields")
	}
}
`,
}

// The field rule reports a field that is only written, one only a test
// reads and one that only a test sets; not the fields set by a positional
// literal, compared with == or as a map key, set through &, a
// pointer-receiver method or a nested selector, of a tagged struct, of a
// root-aliased type, or carrying an allow comment.
func TestUnusedFields(t *testing.T) {
	pkgs, err := LoadModule(writeModule(t, withFiles(unusedModule, fieldFiles)))
	if err != nil {
		t.Fatal(err)
	}
	wantDiags(t, diagsOf(t, "unused", pkgs...),
		"field xoar/internal/widget.counter.hits is read nowhere outside tests",
		"field xoar/internal/widget.counter.seen is read nowhere outside tests",
		"field xoar/internal/widget.counter.knob is read outside tests but set only by tests",
		"func xoar/internal/widget.total", "func xoar/internal/widget.orphan", "const limit")
}

// A declaration only a test uses is kept with an allow comment that says
// why; the same declaration without one is reported.
func TestUnusedAllowKeepsTestOnlyDeclaration(t *testing.T) {
	pkgs, err := LoadModule(writeModule(t, withFiles(unusedModule, map[string]string{
		"internal/widget/spare.go": `package widget

// spare is called only from the test.
//
//xoarlint:allow(unused) test support: the widget test counts with it
func spare() int { return 1 }
`,
		"internal/widget/spare_test.go": `package widget

import "testing"

func TestSpare(t *testing.T) {
	if spare() != 1 {
		t.Fatal(spare())
	}
}
`,
	})))
	if err != nil {
		t.Fatal(err)
	}
	wantDiags(t, diagsOf(t, "unused", pkgs...),
		"func xoar/internal/widget.total", "func xoar/internal/widget.orphan", "const limit")
}

// hostbench is part of the module tree: a use in its non-test files counts,
// one in its tests does not.
func TestUnusedCountsHostbenchButNotItsTests(t *testing.T) {
	pkgs, err := LoadModule(writeModule(t, withFiles(unusedModule, map[string]string{
		"internal/widget/bench.go": `package widget

// Bench is run by hostbench.
func Bench() int { return 1 }

// BenchCheck is called only from hostbench's tests.
func BenchCheck() bool { return true }
`,
		"hostbench/main.go": `package main

import "xoar/internal/widget"

func main() { _ = widget.Bench() }
`,
		"hostbench/main_test.go": `package main

import (
	"testing"

	"xoar/internal/widget"
)

func TestBenchCheck(t *testing.T) {
	if !widget.BenchCheck() {
		t.Fatal("check failed")
	}
}
`,
	})))
	if err != nil {
		t.Fatal(err)
	}
	wantDiags(t, diagsOf(t, "unused", pkgs...), "func xoar/internal/widget.BenchCheck",
		"func xoar/internal/widget.total", "func xoar/internal/widget.orphan", "const limit")
}

// An interface only a test declares exempts none of its implementations.
func TestUnusedIgnoresTestInterfaces(t *testing.T) {
	pkgs, err := LoadModule(writeModule(t, withFiles(unusedModule, map[string]string{
		"internal/widget/len.go": `package widget

// Len implements only an interface the test declares.
func (s square) Len() int { return s.side }
`,
		"internal/widget/len_test.go": `package widget

type lener interface{ Len() int }

var _ lener = square{}
`,
	})))
	if err != nil {
		t.Fatal(err)
	}
	wantDiags(t, diagsOf(t, "unused", pkgs...), "method (xoar/internal/widget.square).Len",
		"func xoar/internal/widget.total", "func xoar/internal/widget.orphan", "const limit")
}

// Loaded without the root package, as a fixture loaded with LoadDir is, the
// pass reports nothing: the unloaded packages may use any exported
// declaration.
func TestUnusedNeedsRootPackage(t *testing.T) {
	dir := writeModule(t, unusedModule)
	pkgs, err := LoadDir(filepath.Join(dir, "internal", "widget"), "xoar/internal/widget")
	if err != nil {
		t.Fatal(err)
	}
	wantDiags(t, diagsOf(t, "unused", pkgs...))
}
