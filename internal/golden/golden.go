// Package golden pins a command's output for its tests: Check runs the
// command twice at once and compares the output with a file under
// testdata/golden, which the -update flag rewrites.
package golden

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the files under testdata/golden")

// Check runs run twice at once, in two parallel subtests, and compares the
// output with testdata/golden/<name>. Two runs that differ mean
// package-level mutable state.
//
//xoarlint:allow(unused) test support: the command golden tests compare their output with it
func Check(t *testing.T, name string, run func(w io.Writer) error) {
	t.Helper()
	var outs [2]bytes.Buffer
	t.Run("twice", func(t *testing.T) {
		for i := range outs {
			t.Run(strconv.Itoa(i), func(t *testing.T) {
				t.Parallel()
				if err := run(&outs[i]); err != nil {
					t.Fatal(err)
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	got := outs[0].Bytes()
	if !bytes.Equal(got, outs[1].Bytes()) {
		t.Fatalf("two runs at once differ; first:\n%s\nsecond:\n%s", got, outs[1].Bytes())
	}
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("%s: line %d is\n\t%s\nwant\n\t%s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}
