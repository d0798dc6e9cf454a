// Command xoarlint runs the repo's static-analysis passes — the build-time
// enforcement of Xoar's least-privilege invariants (see internal/xoarlint).
//
// Usage:
//
//	xoarlint [-list] [-json | -sarif | -github] [-matrix | -capmanifest | -surface | -hotpath] [./... | dir ...]
//
// With no arguments (or "./..."), the whole module containing the current
// directory is analyzed. Diagnostics print as text by default; -json emits
// a JSON document, -sarif a SARIF 2.1.0 log, and -github GitHub Actions
// ::error workflow commands for inline PR annotations.
//
// -matrix skips diagnostics and prints the privilege matrix built from
// internal/hv (the PRIVMATRIX.json golden artifact) to stdout. -capmanifest
// likewise prints the per-shard capability manifest derived from that matrix
// (the internal/capability/CAPMANIFEST.json golden artifact), and -surface
// prints its human-readable attack-surface report. -hotpath prints the
// hot-path allocation artifact built from //xoarlint:hot annotations (the
// HOTPATH.json golden artifact).
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
	"os"

	"xoar/internal/xoarlint"
)

func main() {
	list := flag.Bool("list", false, "list registered analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	sarifOut := flag.Bool("sarif", false, "emit diagnostics as SARIF 2.1.0")
	githubOut := flag.Bool("github", false, "emit diagnostics as GitHub Actions ::error annotations")
	matrix := flag.Bool("matrix", false, "print the internal/hv privilege matrix (PRIVMATRIX.json) and exit")
	capmanifest := flag.Bool("capmanifest", false, "print the per-shard capability manifest (CAPMANIFEST.json) and exit")
	surface := flag.Bool("surface", false, "print the per-shard attack-surface report and exit")
	hotpath := flag.Bool("hotpath", false, "print the hot-path allocation artifact (HOTPATH.json) and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: xoarlint [-list] [-json | -sarif | -github] [-matrix | -capmanifest | -surface | -hotpath] [./... | dir ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range xoarlint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if countTrue(*jsonOut, *sarifOut, *githubOut) > 1 {
		fmt.Fprintln(os.Stderr, "xoarlint: -json, -sarif and -github are mutually exclusive")
		os.Exit(2)
	}
	if countTrue(*matrix, *capmanifest, *surface, *hotpath) > 1 {
		fmt.Fprintln(os.Stderr, "xoarlint: -matrix, -capmanifest, -surface and -hotpath are mutually exclusive")
		os.Exit(2)
	}

	var pkgs []*xoarlint.Package
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	for _, arg := range args {
		var (
			loaded []*xoarlint.Package
			err    error
		)
		if arg == "./..." || arg == "..." {
			loaded, err = xoarlint.LoadModule(".")
		} else {
			loaded, err = xoarlint.LoadModuleDir(arg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "xoarlint: %v\n", err)
			os.Exit(2)
		}
		pkgs = append(pkgs, loaded...)
	}

	if *matrix {
		m, err := xoarlint.BuildPrivMatrix(pkgs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xoarlint: %v\n", err)
			os.Exit(2)
		}
		b, err := m.EncodeJSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "xoarlint: %v\n", err)
			os.Exit(2)
		}
		os.Stdout.Write(b)
		return
	}
	if *capmanifest || *surface {
		m, err := xoarlint.BuildCapManifest(pkgs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xoarlint: %v\n", err)
			os.Exit(2)
		}
		if *surface {
			fmt.Print(m.SurfaceReport())
			return
		}
		b, err := m.EncodeJSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "xoarlint: %v\n", err)
			os.Exit(2)
		}
		os.Stdout.Write(b)
		return
	}

	if *hotpath {
		os.Stdout.Write(xoarlint.BuildHotPath(pkgs).EncodeJSON())
		return
	}

	diags := xoarlint.RunAll(pkgs)
	cwd, _ := os.Getwd()
	switch {
	case *jsonOut:
		if err := xoarlint.RenderJSON(os.Stdout, diags, cwd); err != nil {
			fmt.Fprintf(os.Stderr, "xoarlint: %v\n", err)
			os.Exit(2)
		}
	case *sarifOut:
		if err := xoarlint.RenderSARIF(os.Stdout, diags, cwd); err != nil {
			fmt.Fprintf(os.Stderr, "xoarlint: %v\n", err)
			os.Exit(2)
		}
	case *githubOut:
		xoarlint.RenderGitHub(os.Stdout, diags, cwd)
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "xoarlint: %d violation(s)\n", len(diags))
		os.Exit(1)
	}
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
