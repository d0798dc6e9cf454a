// Command xoarlint runs the repo's static-analysis passes — the build-time
// enforcement of Xoar's least-privilege invariants (see internal/xoarlint).
//
// Usage:
//
//	xoarlint [-list] [-json | -sarif | -github] [-matrix | -capmanifest | -surface | -hotpath] [./... | dir ...]
//
// The whole module containing the current directory (or the first dir) is
// loaded and analyzed every time, since several passes follow calls across
// packages. With no arguments (or "./...") every finding is reported; with
// dirs, only the findings in the files of those directories. Diagnostics
// print as text by default; -json emits a JSON document, -sarif a SARIF
// 2.1.0 log, and -github GitHub Actions ::error workflow commands for inline
// PR annotations.
//
// -matrix skips diagnostics and prints the privilege matrix built from
// internal/hv (the PRIVMATRIX.json golden artifact) to stdout. -capmanifest
// likewise prints the per-shard capability manifest derived from that matrix
// (the internal/capability/CAPMANIFEST.json golden artifact), and -surface
// prints its human-readable attack-surface report. -hotpath prints the
// hot-path allocation artifact built from //xoarlint:hot annotations (the
// HOTPATH.json golden artifact). These artifacts always cover the whole
// module, whatever dirs are given.
//
// Packages are type-checked from source in import order, and code that
// does not type-check is a load failure. The standard library is read from
// the toolchain's export data, which needs the go command of the toolchain
// that built xoarlint (found under its GOROOT); no network is used.
//
// Exit status: 0 clean, 1 violations, 2 load failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"xoar/internal/xoarlint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is xoarlint with the given arguments, writing to stdout and stderr;
// it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xoarlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list registered analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON")
	sarifOut := fs.Bool("sarif", false, "emit diagnostics as SARIF 2.1.0")
	githubOut := fs.Bool("github", false, "emit diagnostics as GitHub Actions ::error annotations")
	matrix := fs.Bool("matrix", false, "print the internal/hv privilege matrix (PRIVMATRIX.json) and exit")
	capmanifest := fs.Bool("capmanifest", false, "print the per-shard capability manifest (CAPMANIFEST.json) and exit")
	surface := fs.Bool("surface", false, "print the per-shard attack-surface report and exit")
	hotpath := fs.Bool("hotpath", false, "print the hot-path allocation artifact (HOTPATH.json) and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: xoarlint [-list] [-json | -sarif | -github] [-matrix | -capmanifest | -surface | -hotpath] [./... | dir ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "xoarlint: %v\n", err)
		return 2
	}

	if *list {
		for _, a := range xoarlint.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if countTrue(*jsonOut, *sarifOut, *githubOut) > 1 {
		fmt.Fprintln(stderr, "xoarlint: -json, -sarif and -github are mutually exclusive")
		return 2
	}
	if countTrue(*matrix, *capmanifest, *surface, *hotpath) > 1 {
		fmt.Fprintln(stderr, "xoarlint: -matrix, -capmanifest, -surface and -hotpath are mutually exclusive")
		return 2
	}

	// dirs holds the directories whose findings are reported; nil reports
	// the whole module's.
	moduleDir, all := ".", false
	var dirs map[string]bool
	for _, arg := range fs.Args() {
		if arg == "./..." || arg == "..." {
			all = true
			continue
		}
		abs, err := filepath.Abs(arg)
		if err != nil {
			return fail(err)
		}
		if st, err := os.Stat(abs); err != nil || !st.IsDir() {
			return fail(fmt.Errorf("%s is not a directory", arg))
		}
		if dirs == nil {
			dirs, moduleDir = map[string]bool{}, abs
		}
		dirs[abs] = true
	}
	if all {
		dirs = nil
	}
	pkgs, err := xoarlint.LoadModule(moduleDir)
	if err != nil {
		return fail(err)
	}

	if *matrix {
		m, err := xoarlint.BuildPrivMatrix(pkgs)
		if err != nil {
			return fail(err)
		}
		b, err := m.EncodeJSON()
		if err != nil {
			return fail(err)
		}
		stdout.Write(b)
		return 0
	}
	if *capmanifest || *surface {
		m, err := xoarlint.BuildCapManifest(pkgs)
		if err != nil {
			return fail(err)
		}
		if *surface {
			fmt.Fprint(stdout, m.SurfaceReport())
			return 0
		}
		b, err := m.EncodeJSON()
		if err != nil {
			return fail(err)
		}
		stdout.Write(b)
		return 0
	}
	if *hotpath {
		stdout.Write(xoarlint.BuildHotPath(pkgs).EncodeJSON())
		return 0
	}

	var diags []xoarlint.Diagnostic
	for _, d := range xoarlint.RunAll(pkgs) {
		if dirs == nil || dirs[filepath.Dir(d.Pos.Filename)] {
			diags = append(diags, d)
		}
	}
	cwd, _ := os.Getwd()
	switch {
	case *jsonOut:
		if err := xoarlint.RenderJSON(stdout, diags, cwd); err != nil {
			return fail(err)
		}
	case *sarifOut:
		if err := xoarlint.RenderSARIF(stdout, diags, cwd); err != nil {
			return fail(err)
		}
	case *githubOut:
		xoarlint.RenderGitHub(stdout, diags, cwd)
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "xoarlint: %d violation(s)\n", len(diags))
		return 1
	}
	return 0
}

func countTrue(bs ...bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
