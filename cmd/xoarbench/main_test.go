package main

import (
	"io"
	"testing"

	"xoar/internal/golden"
)

// TestGolden pins every experiment's table at a tenth of the paper's
// workload sizes.
func TestGolden(t *testing.T) {
	golden.Check(t, "scale0.1.txt", func(w io.Writer) error {
		return run(w, []string{"-scale", "0.1"})
	})
}
