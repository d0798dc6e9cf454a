package main

import (
	"io"
	"os"
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

// TestGoldenMetrics pins the telemetry snapshot, as text and as JSON; its
// xenstore_requests_total series name every XenStore operation kind.
func TestGoldenMetrics(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"metrics.txt", []string{"-metrics"}},
		{"metrics.json", []string{"-metrics", "-json"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			golden.Check(t, tc.name, func(w io.Writer) error { return run(w, tc.args) })
		})
	}
}

// TestGoldenTrace pins the trace file -trace writes. Its stdout names the
// file's path, which differs per run, so the golden is the file itself.
func TestGoldenTrace(t *testing.T) {
	dir := t.TempDir()
	golden.Check(t, "trace.json", func(w io.Writer) error {
		f, err := os.CreateTemp(dir, "trace-*.json")
		if err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := run(io.Discard, []string{"-trace", f.Name()}); err != nil {
			return err
		}
		data, err := os.ReadFile(f.Name())
		if err != nil {
			return err
		}
		_, err = w.Write(data)
		return err
	})
}
