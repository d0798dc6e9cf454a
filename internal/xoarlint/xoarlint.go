// Package xoarlint is the repo's static-analysis layer: a small analyzer
// framework on the standard library's go/ast, go/parser, go/token and
// go/types, plus the passes that turn Xoar's least-privilege conventions
// into build-time invariants.
//
// The paper's security argument is that privilege boundaries must be
// enforced mechanisms, not conventions (§3, §5.6): every hypercall is
// audited against a per-shard whitelist and shards only communicate over
// explicitly linked channels. The Go model encodes those rules dynamically
// in internal/hv; xoarlint makes them hold *by construction* — a future
// *hv.Hypervisor method that forgets its h.check(caller, …) audit, a shard
// package that grows a side-channel import, or a component that reads the
// wall clock behind the simulator's back fails `go test ./...` before it
// can ship. This is the "forgotten audit" bug class the CVE study in §6.2
// catalogues, caught at the same layer seL4-style work argues for:
// verify the TCB, don't just test it.
//
// Analyzers register themselves in init and run over loaded packages; a
// new pass needs only an Analyzer literal and a Register call (~50 lines,
// see simtime.go for the smallest example). Violations that are genuinely
// intended carry a suppression comment with a mandatory justification:
//
//	//xoarlint:allow(layering) toolstack is the control plane; runtime traffic rides hv-audited rings
//
// on the offending line or the line directly above it. An allow comment
// with no justification, or naming an unknown analyzer, is itself a
// diagnostic.
package xoarlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned for file:line presentation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is one loaded compilation unit: the files of a package (or of its
// external _test package), parsed with comments and type-checked.
type Package struct {
	// Name is the package name as declared in source ("hv").
	Name string
	// Path is the import path ("xoar/internal/hv"). External test packages
	// share the path of the package under test.
	Path string
	Fset *token.FileSet
	// Files are the parsed files of the unit.
	Files []*ast.File
	// Test marks files belonging to the test build (_test.go), keyed by file.
	Test map[*ast.File]bool
	// Info carries the unit's type information: Types, Defs, Uses and
	// Selections. Module imports are checked from source and the standard
	// library comes from export data, so it is complete for module code,
	// whose type errors fail the load. Fixtures loaded with LoadDir see
	// imports from outside the module and the standard library as empty
	// packages, and their type errors are ignored.
	Info *types.Info
	// Src holds the raw source by filename, used to classify suppression
	// comments as standalone or trailing.
	Src map[string][]byte
}

// ShortName returns the last path element ("hv").
func (p *Package) ShortName() string {
	if i := strings.LastIndexByte(p.Path, '/'); i >= 0 {
		return p.Path[i+1:]
	}
	return p.Path
}

// Internal reports whether the package lives under xoar/internal/.
func (p *Package) Internal() bool {
	return strings.HasPrefix(p.Path, "xoar/internal/")
}

// pkgPathOf resolves ident to the import path of the package it names, or ""
// if it does not name a package (including a local that shadows an import).
func (p *Package) pkgPathOf(ident *ast.Ident) string {
	if pn, ok := p.Info.Uses[ident].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// Analyzer is one registered pass.
type Analyzer struct {
	// Name is the key used in diagnostics and //xoarlint:allow comments.
	Name string
	// Doc is a one-line description shown by `xoarlint -list`.
	Doc string
	// Run inspects one package unit and returns its findings. Nil for
	// module-level passes.
	Run func(*Package) []Diagnostic
	// RunModule, when set, is invoked once with every loaded package so the
	// pass can resolve cross-package calls (hotpath walks the whole call
	// graph from its annotated roots). Suppressions apply the same way.
	RunModule func([]*Package) []Diagnostic
}

var registry []*Analyzer

// Register adds an analyzer to the global registry; analyzers call it from
// init so that importing the package wires the full suite.
func Register(a *Analyzer) { registry = append(registry, a) }

// Analyzers returns the registered passes sorted by name.
func Analyzers() []*Analyzer {
	out := make([]*Analyzer, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// suppression is one //xoarlint:allow comment.
type suppression struct {
	analyzers     map[string]bool
	justification string
	// standalone comments (nothing but whitespace before them on the line)
	// cover the next source line; trailing comments cover their own line.
	standalone bool
}

var allowRe = regexp.MustCompile(`^//xoarlint:allow\(([^)]*)\)\s*(.*)$`)

// suppressionsOf collects the allow comments of a package, keyed by
// "file:line". Malformed comments (no justification, unknown analyzer) are
// returned as diagnostics — a suppression is a security decision and must
// carry its reasoning.
func suppressionsOf(pkgs []*Package) (map[string]suppression, []Diagnostic) {
	known := map[string]bool{}
	for _, a := range registry {
		known[a.Name] = true
	}
	sups := map[string]suppression{}
	var diags []Diagnostic
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := allowRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					s := suppression{
						analyzers:     map[string]bool{},
						justification: strings.TrimSpace(m[2]),
						standalone:    standaloneComment(p.Src[pos.Filename], pos),
					}
					for _, name := range strings.Split(m[1], ",") {
						name = strings.TrimSpace(name)
						if name == "" {
							continue
						}
						if !known[name] {
							diags = append(diags, Diagnostic{Pos: pos, Analyzer: "xoarlint",
								Message: fmt.Sprintf("suppression names unknown analyzer %q", name)})
							continue
						}
						s.analyzers[name] = true
					}
					if s.justification == "" {
						diags = append(diags, Diagnostic{Pos: pos, Analyzer: "xoarlint",
							Message: "suppression requires a justification: //xoarlint:allow(<analyzer>) <why this is safe>"})
						continue
					}
					if len(s.analyzers) == 0 {
						continue
					}
					sups[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = s
				}
			}
		}
	}
	return sups, diags
}

// RunAll runs every registered analyzer over pkgs, applies suppressions, and
// returns the surviving diagnostics sorted by position.
func RunAll(pkgs []*Package) []Diagnostic {
	sups, diags := suppressionsOf(pkgs)
	for _, a := range registry {
		if a.Run != nil {
			for _, p := range pkgs {
				for _, d := range a.Run(p) {
					if suppressed(sups, d) {
						continue
					}
					diags = append(diags, d)
				}
			}
		}
		if a.RunModule != nil {
			for _, d := range a.RunModule(pkgs) {
				if suppressed(sups, d) {
					continue
				}
				diags = append(diags, d)
			}
		}
	}
	// Total order down to the message: several diagnostics can share a
	// position (one mutation reached through different function values), and
	// output must be byte-stable for drift gates and CI annotation diffs.
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// suppressed reports whether d is covered by an allow comment: a trailing
// comment covers the diagnostics of its own line, a standalone comment those
// of the line directly below it.
func suppressed(sups map[string]suppression, d Diagnostic) bool {
	if s, ok := sups[fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)]; ok &&
		!s.standalone && s.analyzers[d.Analyzer] {
		return true
	}
	if s, ok := sups[fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line-1)]; ok &&
		s.standalone && s.analyzers[d.Analyzer] {
		return true
	}
	return false
}

// standaloneComment reports whether only whitespace precedes the comment on
// its line. Without source (synthetic packages loaded piecemeal) a comment is
// treated as standalone.
func standaloneComment(src []byte, pos token.Position) bool {
	if src == nil {
		return true
	}
	start := pos.Offset - (pos.Column - 1)
	if start < 0 || pos.Offset > len(src) {
		return true
	}
	for _, b := range src[start:pos.Offset] {
		if b != ' ' && b != '\t' {
			return false
		}
	}
	return true
}
