package xoarlint

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xoar/internal/xtypes"
)

// loadSrc writes src as a single-file package in a temp dir and loads it
// under the given import path, letting tests present synthetic sources as
// any package identity.
func loadSrc(t *testing.T, importPath, src string) *Package {
	t.Helper()
	return loadSrcFile(t, importPath, "src.go", src)
}

func loadSrcFile(t *testing.T, importPath, filename, src string) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, filename), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadDir(dir, importPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d units, want 1", len(pkgs))
	}
	return pkgs[0]
}

// The standard library's export data is looked up once per process: a
// second load with the same imports runs no go list, and still resolves
// them.
func TestSecondLoadListsNoStdlib(t *testing.T) {
	const src = "package p\n\nimport \"hash/adler32\"\n\nvar _ = adler32.Checksum\n"
	lists := func() int {
		stdExports.Lock()
		defer stdExports.Unlock()
		return stdExports.lists
	}
	first := loadSrc(t, "example.com/p", src)
	before := lists()
	second := loadSrc(t, "example.com/q", src)
	if n := lists() - before; n != 0 {
		t.Fatalf("the second load ran go list %d times, want 0", n)
	}
	for i, pkg := range []*Package{first, second} {
		resolved := false
		for id, obj := range pkg.Info.Uses {
			if id.Name == "Checksum" && obj.Pkg() != nil && obj.Pkg().Path() == "hash/adler32" {
				resolved = true
			}
		}
		if !resolved {
			t.Errorf("load %d: adler32.Checksum does not resolve to the standard library", i+1)
		}
	}
}

// diagsOf runs a single analyzer by name over pkgs with suppressions applied.
func diagsOf(t *testing.T, name string, pkgs ...*Package) []Diagnostic {
	t.Helper()
	var out []Diagnostic
	for _, d := range RunAll(pkgs) {
		if d.Analyzer == name {
			out = append(out, d)
		}
	}
	return out
}

func wantDiags(t *testing.T, diags []Diagnostic, substrs ...string) {
	t.Helper()
	if len(diags) != len(substrs) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(substrs), diags)
	}
	for i, want := range substrs {
		if !strings.Contains(diags[i].Message, want) {
			t.Errorf("diag %d = %q, want substring %q", i, diags[i].Message, want)
		}
	}
}

// --- simtime -----------------------------------------------------------------

const simtimeSrc = `package netdrv

import (
	"math/rand"
	"time"

	clock "time"
)

func bad() {
	_ = time.Now()
	time.Sleep(time.Second)
	_ = clock.Now() // aliased import: still caught
	_ = rand.Intn(10)
}

func fine() {
	_ = time.Second                       // constants are fine
	_ = rand.New(rand.NewSource(1)).Intn(4) // seeded source is fine
}
`

func TestSimtimeFlagsWallClockAndGlobalRand(t *testing.T) {
	p := loadSrc(t, "xoar/internal/netdrv", simtimeSrc)
	diags := diagsOf(t, "simtime", p)
	wantDiags(t, diags,
		"time.Now breaks simulation determinism",
		"time.Sleep breaks simulation determinism",
		"clock.Now breaks simulation determinism",
		"rand.Intn uses the process-global random source",
	)
}

func TestSimtimeExemptsSimPackage(t *testing.T) {
	p := loadSrc(t, "xoar/internal/sim", simtimeSrc)
	if diags := diagsOf(t, "simtime", p); len(diags) != 0 {
		t.Fatalf("simtime fired inside internal/sim: %v", diags)
	}
}

func TestSimtimeIgnoresNonInternal(t *testing.T) {
	p := loadSrc(t, "xoar/cmd/xoarbench", simtimeSrc)
	if diags := diagsOf(t, "simtime", p); len(diags) != 0 {
		t.Fatalf("simtime fired outside internal/: %v", diags)
	}
}

func TestSimtimeSuppression(t *testing.T) {
	src := strings.Replace(simtimeSrc,
		"_ = time.Now()",
		"_ = time.Now() //xoarlint:allow(simtime) wall-clock needed for log banner only", 1)
	p := loadSrc(t, "xoar/internal/netdrv", src)
	diags := diagsOf(t, "simtime", p)
	wantDiags(t, diags,
		"time.Sleep breaks simulation determinism",
		"clock.Now breaks simulation determinism",
		"rand.Intn uses the process-global random source",
	)
}

// --- layering ----------------------------------------------------------------

const layeringSrc = `package netdrv

import (
	"xoar/internal/blkdrv"
	"xoar/internal/hv"
	"xoar/internal/sim"
	"xoar/internal/xenstore"
	"xoar/internal/xtypes"
)

var (
	_ = blkdrv.X
	_ = hv.X
	_ = sim.X
	_ = xenstore.X
	_ = xtypes.X
)
`

func TestLayeringFlagsCrossServiceImport(t *testing.T) {
	p := loadSrc(t, "xoar/internal/netdrv", layeringSrc)
	diags := diagsOf(t, "layering", p)
	// blkdrv is flagged; hv/sim/xtypes are shared leaves and xenstore is the
	// sanctioned client-library edge.
	wantDiags(t, diags, "service package netdrv imports service package blkdrv")
}

func TestLayeringIgnoresNonServicePackages(t *testing.T) {
	p := loadSrc(t, "xoar/internal/boot", strings.Replace(layeringSrc, "package netdrv", "package boot", 1))
	if diags := diagsOf(t, "layering", p); len(diags) != 0 {
		t.Fatalf("layering fired for a non-service importer: %v", diags)
	}
}

func TestLayeringExemptsTestFiles(t *testing.T) {
	p := loadSrcFile(t, "xoar/internal/netdrv", "wire_test.go", layeringSrc)
	if diags := diagsOf(t, "layering", p); len(diags) != 0 {
		t.Fatalf("layering fired for a test harness: %v", diags)
	}
}

func TestLayeringSuppression(t *testing.T) {
	src := strings.Replace(layeringSrc,
		`"xoar/internal/blkdrv"`,
		`//xoarlint:allow(layering) frontend halves only; no backend state shared
	"xoar/internal/blkdrv"`, 1)
	p := loadSrc(t, "xoar/internal/netdrv", src)
	if diags := diagsOf(t, "layering", p); len(diags) != 0 {
		t.Fatalf("suppressed import still flagged: %v", diags)
	}
}

// --- errwrap -----------------------------------------------------------------

const errwrapSrc = `package toolstack

import (
	"fmt"

	"xoar/internal/xtypes"
)

func bad(dom int) error {
	return fmt.Errorf("attach %d: %v", dom, xtypes.ErrPerm)
}

func alsoBad(dom int) error {
	return fmt.Errorf("attach %d failed", xtypes.ErrNotShard)
}

func fine(dom int) error {
	return fmt.Errorf("attach %d: %w", dom, xtypes.ErrPerm)
}

func fineNonSentinel(err error) error {
	return fmt.Errorf("plain: %v", err)
}
`

func TestErrwrapFlagsUnwrappedSentinels(t *testing.T) {
	p := loadSrc(t, "xoar/internal/toolstack", errwrapSrc)
	diags := diagsOf(t, "errwrap", p)
	wantDiags(t, diags,
		"xtypes.ErrPerm must be wrapped with %w (not %v)",
		"xtypes.ErrNotShard must be wrapped with %w (not %d)",
	)
}

func TestErrwrapSuppression(t *testing.T) {
	src := strings.Replace(errwrapSrc,
		`return fmt.Errorf("attach %d: %v", dom, xtypes.ErrPerm)`,
		`//xoarlint:allow(errwrap) message is for display only, never matched
	return fmt.Errorf("attach %d: %v", dom, xtypes.ErrPerm)`, 1)
	p := loadSrc(t, "xoar/internal/toolstack", src)
	wantDiags(t, diagsOf(t, "errwrap", p), "xtypes.ErrNotShard")
}

// errwrapHVSrc refuses with each denial sentinel twice, once bare and once
// through h.deny, and fails a lookup with a sentinel that is no denial.
const errwrapHVSrc = `package hv

import (
	"fmt"

	"xoar/internal/xtypes"
)

type Hypervisor struct{ DeniedCalls int }

func (h *Hypervisor) deny(err error) error {
	h.DeniedCalls++
	return err
}

func (h *Hypervisor) Refuse(caller, why int) error {
	switch why {
	case 0:
		return fmt.Errorf("refused %d: %w", caller, xtypes.ErrPerm)
	case 1:
		return fmt.Errorf("refused %d: %w", caller, xtypes.ErrNotShard)
	case 2:
		return fmt.Errorf("refused %d: %w", caller, xtypes.ErrNotDelegated)
	case 3:
		return h.deny(fmt.Errorf("refused %d: %w", caller, xtypes.ErrPerm))
	case 4:
		return h.deny(fmt.Errorf("refused %d: %w", caller, xtypes.ErrNotShard))
	case 5:
		return h.deny(fmt.Errorf("refused %d: %w", caller, xtypes.ErrNotDelegated))
	}
	return fmt.Errorf("lookup %d: %w", caller, xtypes.ErrNoDomain)
}
`

// TestErrwrapDenialsGoThroughDeny: in non-test hv code, a wrap of a denial
// sentinel is flagged unless it goes straight into h.deny. Other sentinels,
// other packages and test files are out of scope.
func TestErrwrapDenialsGoThroughDeny(t *testing.T) {
	p := loadSrc(t, "xoar/internal/hv", errwrapHVSrc)
	wantDiags(t, diagsOf(t, "errwrap", p),
		"hv refusal wrapping xtypes.ErrPerm must be the direct argument of h.deny",
		"hv refusal wrapping xtypes.ErrNotShard must be the direct argument of h.deny",
		"hv refusal wrapping xtypes.ErrNotDelegated must be the direct argument of h.deny",
	)
	wantDiags(t, diagsOf(t, "errwrap", loadSrc(t, "xoar/internal/other", errwrapHVSrc)))
	wantDiags(t, diagsOf(t, "errwrap", loadSrcFile(t, "xoar/internal/hv", "refuse_test.go", errwrapHVSrc)))
}

// TestErrwrapDenialSetMatchesIsDenial: the static rule and the runtime
// counter agree on which of xtypes' sentinels are denials.
func TestErrwrapDenialSetMatchesIsDenial(t *testing.T) {
	sentinels := map[string]error{
		"ErrPerm": xtypes.ErrPerm, "ErrNoDomain": xtypes.ErrNoDomain, "ErrBadGrant": xtypes.ErrBadGrant,
		"ErrBadPort": xtypes.ErrBadPort, "ErrInUse": xtypes.ErrInUse, "ErrNoMem": xtypes.ErrNoMem,
		"ErrNotFound": xtypes.ErrNotFound, "ErrExists": xtypes.ErrExists, "ErrInvalid": xtypes.ErrInvalid,
		"ErrShutdown": xtypes.ErrShutdown, "ErrConstraint": xtypes.ErrConstraint,
		"ErrNotShard": xtypes.ErrNotShard, "ErrNotDelegated": xtypes.ErrNotDelegated, "ErrQuota": xtypes.ErrQuota,
		"ErrNoMicroreboot": xtypes.ErrNoMicroreboot, "ErrBatchAborted": xtypes.ErrBatchAborted,
	}
	pkgs, err := LoadModuleDir("../xtypes")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range pkgs[0].Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR || pkgs[0].Test[f] {
				continue
			}
			for _, spec := range gd.Specs {
				for _, n := range spec.(*ast.ValueSpec).Names {
					if _, ok := sentinels[n.Name]; strings.HasPrefix(n.Name, "Err") && !ok {
						t.Errorf("xtypes.%s is missing from this test's sentinel table", n.Name)
					}
				}
			}
		}
	}
	for name, err := range sentinels {
		if xtypes.IsDenial(err) != denialSentinels[name] {
			t.Errorf("xtypes.%s: IsDenial = %v, but errwrap's denial set says %v", name, xtypes.IsDenial(err), denialSentinels[name])
		}
	}
}

// --- suppression policy ------------------------------------------------------

func TestSuppressionRequiresJustification(t *testing.T) {
	src := strings.Replace(simtimeSrc,
		"_ = time.Now()",
		"_ = time.Now() //xoarlint:allow(simtime)", 1)
	p := loadSrc(t, "xoar/internal/netdrv", src)
	policy := diagsOf(t, "xoarlint", p)
	wantDiags(t, policy, "suppression requires a justification")
	// The bare allow comment does not suppress anything.
	if diags := diagsOf(t, "simtime", p); len(diags) != 4 {
		t.Fatalf("unjustified suppression silenced a diagnostic: %v", diags)
	}
}

func TestSuppressionRejectsUnknownAnalyzer(t *testing.T) {
	src := strings.Replace(simtimeSrc,
		"_ = time.Now()",
		"_ = time.Now() //xoarlint:allow(simtiem) typo in the name", 1)
	p := loadSrc(t, "xoar/internal/netdrv", src)
	wantDiags(t, diagsOf(t, "xoarlint", p), `unknown analyzer "simtiem"`)
}

// --- framework ---------------------------------------------------------------

func TestRegisteredAnalyzers(t *testing.T) {
	want := map[string]bool{
		"simtime": true, "layering": true, "errwrap": true, "gohygiene": true,
		"privflow": true, "auditlog": true, "metricnames": true, "hotpath": true,
		"unused": true,
	}
	for _, a := range Analyzers() {
		delete(want, a.Name)
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc line", a.Name)
		}
	}
	if len(want) != 0 {
		t.Fatalf("missing analyzers: %v", want)
	}
}

func TestLoadModuleFindsThisPackage(t *testing.T) {
	pkgs, err := LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range pkgs {
		if p.Path == "xoar/internal/xoarlint" && p.Name == "xoarlint" {
			found = true
		}
	}
	if !found {
		t.Fatal("LoadModule did not surface xoar/internal/xoarlint")
	}
}

// Module code that does not type-check fails the load, naming the first
// type error's file and line, so no pass runs on partial type information.
func TestLoadModuleFailsOnTypeError(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module broken\n\ngo 1.22\n",
		"bad.go": "package broken\n\nvar n int = \"x\"\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, load := range map[string]func(string) ([]*Package, error){
		"LoadModule": LoadModule, "LoadModuleDir": LoadModuleDir,
	} {
		pkgs, err := load(dir)
		if err == nil {
			t.Errorf("%s loaded %d units of a module that does not type-check", name, len(pkgs))
			continue
		}
		if !strings.Contains(err.Error(), "bad.go:3:") {
			t.Errorf("%s error %q does not name bad.go:3", name, err)
		}
	}
}

// --- gohygiene ---------------------------------------------------------------

func TestGohygieneFlagsBareGoStatement(t *testing.T) {
	p := loadSrc(t, "xoar/internal/widget", `package widget

func work() {}

func start() {
	go work()
}
`)
	wantDiags(t, diagsOf(t, "gohygiene", p), "bare go statement")
}

// The scheduler itself is no exception: sim processes are coroutines, so a
// go statement in internal/sim is as much a bypass as anywhere else.
func TestGohygieneCoversSim(t *testing.T) {
	sim := loadSrc(t, "xoar/internal/sim", `package sim

func runner() {}

func schedule() {
	go runner()
}
`)
	wantDiags(t, diagsOf(t, "gohygiene", sim), "bare go statement")
}

func TestGohygieneExemptsTestsAndCmd(t *testing.T) {
	// _test.go files may use real goroutines (e.g. hammering telemetry
	// under -race).
	tst := loadSrcFile(t, "xoar/internal/widget", "widget_test.go", `package widget

func hammer() {}

func TestParallel(t *testingT) {
	go hammer()
}

type testingT interface{}
`)
	wantDiags(t, diagsOf(t, "gohygiene", tst))

	// Non-internal packages (cmd/...) are out of scope.
	cmd := loadSrc(t, "xoar/cmd/tool", `package main

func work() {}

func main() {
	go work()
}
`)
	wantDiags(t, diagsOf(t, "gohygiene", cmd))
}

func TestGohygieneSuppression(t *testing.T) {
	p := loadSrc(t, "xoar/internal/widget", `package widget

func work() {}

func start() {
	//xoarlint:allow(gohygiene) bridging to an external OS resource outside the sim
	go work()
}
`)
	wantDiags(t, diagsOf(t, "gohygiene", p))

	// A suppression without justification is itself a diagnostic.
	bare := loadSrc(t, "xoar/internal/widget", `package widget

func work() {}

func start() {
	//xoarlint:allow(gohygiene)
	go work()
}
`)
	if len(diagsOf(t, "allow", bare))+len(diagsOf(t, "gohygiene", bare)) == 0 {
		t.Fatal("unjustified suppression raised no diagnostics")
	}
}
