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

type Widget struct{ n int }

func Make() *Widget { return &Widget{} }

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

// The pass flags the unreferenced func and const and nothing else: not the
// func only a test calls, the String method, the interface implementation
// or the exported method of a root alias.
func TestUnusedFlagsOnlyUnreferenced(t *testing.T) {
	pkgs, err := LoadModule(writeModule(t, unusedModule))
	if err != nil {
		t.Fatal(err)
	}
	wantDiags(t, diagsOf(t, "unused", pkgs...), "func xoar/internal/widget.orphan", "const limit")
}

// Loaded without the root package, as on a single-directory run, the pass
// reports nothing: the unloaded packages may use any exported declaration.
func TestUnusedNeedsRootPackage(t *testing.T) {
	dir := writeModule(t, unusedModule)
	pkgs, err := LoadModuleDir(filepath.Join(dir, "internal", "widget"))
	if err != nil {
		t.Fatal(err)
	}
	wantDiags(t, diagsOf(t, "unused", pkgs...))
}
