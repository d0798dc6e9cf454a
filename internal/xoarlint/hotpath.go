// hotpath is the allocation/escape analyzer for the data path (DESIGN.md
// §15): functions annotated //xoarlint:hot are roots of a module-wide
// call-graph walk, and every allocation site reachable from a root is a
// diagnostic — escaping composite literals and &T{}, append, map
// create/assign, string concatenation and []byte<->string conversions,
// interface boxing of non-pointer values, closure captures, channel and
// goroutine creation, and calls into fmt/errors/log. The paper's Figure
// 6.1/6.2 claim is that disaggregation costs nothing on the data path;
// this pass makes the Go-level half of that claim — rings, event channels,
// driver pumps, the sim dispatcher and the telemetry observe path stay
// allocation-free — hold by construction rather than by benchmark luck.
//
// The walk runs on the loader's go/types information: a call resolves to
// its callee through Info.Uses and Info.Selections (a generic method through
// its origin), and the allocation checks ask Info.Types. Dynamic calls
// through func-typed struct fields follow the funcflow discipline: every
// non-test assignment to the field anywhere in the module contributes
// callees (a field never assigned outside tests is proven silent), and a
// func-valued local is bound, by its types.Object, to its last assignment in
// source order. A call the walk cannot resolve is itself a diagnostic —
// "cannot prove" fails closed.
//
// Cold branches are fenced structurally: an if whose condition is a
// recognized cold predicate (err != nil, !ok, len(x) == 0, or a broken/
// closed/done/killed/stopped flag) or whose body terminates in an error
// return or panic is skipped, because the steady-state data path never
// takes it. //xoarlint:allow(hotpath) <why> suppresses a site the usual
// way; the justification is mandatory.
//
// The same walk emits HOTPATH.json (per-root reachable set plus declared
// allocs/op budget), drift-gated by TestHotPathDrift and cross-checked by
// cmd/benchdiff against the measured -benchmem allocs/op of the bench each
// root declares with //xoarlint:hot bench=BenchmarkMicro_X.
package xoarlint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strconv"
	"strings"
)

func init() {
	Register(&Analyzer{
		Name:      "hotpath",
		Doc:       "functions reachable from //xoarlint:hot roots must be allocation-free",
		RunModule: hotpathRun,
	})
}

func hotpathRun(pkgs []*Package) []Diagnostic {
	_, diags := analyzeHotPaths(pkgs)
	return diags
}

// ---------------------------------------------------------------------------
// HOTPATH.json artifact

// HotPathRoot is one annotated root in the generated artifact.
type HotPathRoot struct {
	// Root is the function key, e.g. "xoar/internal/sim.Env.Run".
	Root string `json:"root"`
	// Bench names the BenchmarkMicro_* whose measured allocs/op must equal
	// AllocsPerOp exactly (benchdiff -hotpath enforces both directions).
	Bench string `json:"bench,omitempty"`
	// AllocsPerOp is the declared steady-state allocation budget.
	AllocsPerOp int `json:"allocs_per_op"`
	// Reachable lists every function and func-valued field the walk reached
	// from this root, sorted.
	Reachable []string `json:"reachable"`
}

// HotPath is the generated hot-path artifact (HOTPATH.json).
type HotPath struct {
	Source string        `json:"source"`
	Roots  []HotPathRoot `json:"roots"`
}

const hotPathSource = "generated by xoarlint hotpath from //xoarlint:hot annotations; regenerate with 'make hotpath'"

// BuildHotPath runs the hot-path walk and returns the artifact.
func BuildHotPath(pkgs []*Package) *HotPath {
	hp, _ := analyzeHotPaths(pkgs)
	return hp
}

// EncodeJSON renders the artifact in its canonical checked-in form.
func (hp *HotPath) EncodeJSON() []byte {
	b, err := json.MarshalIndent(hp, "", "  ")
	if err != nil {
		panic(err) // static shape; cannot fail
	}
	return append(b, '\n')
}

// DecodeHotPath parses a checked-in artifact.
func DecodeHotPath(data []byte) (*HotPath, error) {
	var hp HotPath
	if err := json.Unmarshal(data, &hp); err != nil {
		return nil, fmt.Errorf("xoarlint: parsing hot-path artifact: %w", err)
	}
	return &hp, nil
}

// DiffHotPath describes the drift between two artifacts, one line per
// changed root: removed roots, new roots, and changed budgets/bench
// bindings/reachable sets.
//
//xoarlint:allow(unused) test support: TestHotPathDrift reports drift with it
func DiffHotPath(old, new *HotPath) []string {
	oldRoots := map[string]HotPathRoot{}
	for _, r := range old.Roots {
		oldRoots[r.Root] = r
	}
	newRoots := map[string]HotPathRoot{}
	for _, r := range new.Roots {
		newRoots[r.Root] = r
	}
	var lines []string
	for _, r := range old.Roots {
		if _, ok := newRoots[r.Root]; !ok {
			lines = append(lines, fmt.Sprintf("- root %s no longer annotated", r.Root))
		}
	}
	for _, r := range new.Roots {
		o, ok := oldRoots[r.Root]
		if !ok {
			lines = append(lines, fmt.Sprintf("+ new root %s (budget %d allocs/op, %d reachable)", r.Root, r.AllocsPerOp, len(r.Reachable)))
			continue
		}
		if o.Bench != r.Bench || o.AllocsPerOp != r.AllocsPerOp {
			lines = append(lines, fmt.Sprintf("~ root %s: budget %d/%q -> %d/%q", r.Root, o.AllocsPerOp, o.Bench, r.AllocsPerOp, r.Bench))
		}
		if strings.Join(o.Reachable, "\x00") != strings.Join(r.Reachable, "\x00") {
			lines = append(lines, fmt.Sprintf("~ root %s: reachable set changed (%d -> %d functions)", r.Root, len(o.Reachable), len(r.Reachable)))
		}
	}
	return lines
}

// ---------------------------------------------------------------------------
// Function values and declarations

// stripIndex unwraps generic instantiations (Ring[Req, Resp] -> Ring).
func stripIndex(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return e
		}
	}
}

// hpEnv binds the func-valued locals of the code being walked to where
// their values came from, in source order: the last assignment wins.
type hpEnv map[types.Object]*hpBinding

// hpBinding records one way a func-typed slot got its value.
type hpBinding struct {
	lit      *hpLit  // a func literal
	decl     *hpFunc // a named function or method value
	fieldRef string  // copied from another func-typed field
	// fwd marks a value the walk does not trace: one forwarded from a
	// function parameter (SetHandler stores its h argument), or one stored
	// by a multi-value assignment (x.f, err = build()). A dynamic call that
	// reaches one is flagged instead.
	fwd bool
	// coro marks iter.Pull's next and stop, and the yield it passes to the
	// sequence function: allocation-free coroutine switches (DESIGN.md §15).
	// A call through one is proven silent; the code on the other side of
	// the switch is charged to its own roots, as scheduled callbacks are.
	coro bool
}

// hpLit is a func literal plus the bindings in scope where it was written,
// so captured func values resolve when its body is walked under a hot root.
type hpLit struct {
	pkg *Package
	lit *ast.FuncLit
	env hpEnv
}

// hpFunc is one function or method declaration in the module.
type hpFunc struct {
	pkg  *Package
	decl *ast.FuncDecl
	key  string // "path.Name" or "path.Recv.Name"
	hot  *hotAnno
}

type hotAnno struct {
	bench  string
	allocs int
}

// funcKey names a function as HOTPATH.json does: "path.Name", or
// "path.Type.Name" for a method, with a generic receiver named by its
// origin type.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	if named := namedOf(recv.Type()); named != nil {
		return typeKey(named) + "." + fn.Name()
	}
	return ""
}

func typeKey(named *types.Named) string {
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// namedOf returns the named type t is or points to, or nil.
func namedOf(t types.Type) *types.Named {
	named, _ := deref(t).(*types.Named)
	return named
}

// deref strips aliases and one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	return types.Unalias(t)
}

// under is t's underlying type, nil for an expression the checker did not
// type (an unresolved fixture import).
func under(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func isString(t types.Type) bool {
	b, ok := under(t).(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isFunc(t types.Type) bool {
	_, ok := under(t).(*types.Signature)
	return ok
}

// calleeObj is the object a call names: a *types.Func for a static call, a
// *types.Builtin, a *types.Var for a call through a func value, or nil.
func calleeObj(p *Package, call *ast.CallExpr) types.Object {
	switch fun := stripIndex(call.Fun).(type) {
	case *ast.Ident:
		return p.Info.Uses[fun]
	case *ast.SelectorExpr:
		return p.Info.Uses[fun.Sel]
	}
	return nil
}

// funcFieldKey names the func-typed field sel selects by the struct that
// declares it ("path.Type.field"), following promotion through embedded
// fields. It is "" when sel selects anything else.
func funcFieldKey(p *Package, sel *ast.SelectorExpr) string {
	s := p.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal || !isFunc(s.Type()) {
		return ""
	}
	t := s.Recv()
	for _, i := range s.Index()[:len(s.Index())-1] {
		t = deref(t).Underlying().(*types.Struct).Field(i).Type()
	}
	if named := namedOf(t); named != nil {
		return typeKey(named) + "." + sel.Sel.Name
	}
	return ""
}

// ---------------------------------------------------------------------------
// Analysis state

type hpAnalysis struct {
	funcs map[string]*hpFunc // function key -> decl
	// fieldAssigns collects every non-test assignment (including composite-
	// literal initialization) to a func-typed struct field, keyed like
	// funcFieldKey. A key with no entry was never assigned outside tests:
	// calls through it are proven silent.
	fieldAssigns map[string][]*hpBinding
	// seqYields maps a module function whose only uses are as iter.Pull's
	// sequence argument to its yield parameter.
	seqYields map[string]types.Object

	roots []*hpFunc

	diags    []Diagnostic
	diagSeen map[string]bool
}

func analyzeHotPaths(pkgs []*Package) (*HotPath, []Diagnostic) {
	a := &hpAnalysis{
		fieldAssigns: map[string][]*hpBinding{},
		seqYields:    map[string]types.Object{},
		diagSeen:     map[string]bool{},
	}
	a.index(pkgs)
	a.collectCoroutines()
	a.collectAssigns()

	hp := &HotPath{Source: hotPathSource}
	sort.Slice(a.roots, func(i, j int) bool { return a.roots[i].key < a.roots[j].key })
	for _, root := range a.roots {
		w := &rootWalk{
			visited:     map[string]bool{},
			visitedLits: map[*ast.FuncLit]bool{},
			reach:       map[string]bool{},
		}
		a.walkFunc(root, w)
		reach := make([]string, 0, len(w.reach))
		for k := range w.reach {
			reach = append(reach, k)
		}
		sort.Strings(reach)
		hp.Roots = append(hp.Roots, HotPathRoot{
			Root:        root.key,
			Bench:       root.hot.bench,
			AllocsPerOp: root.hot.allocs,
			Reachable:   reach,
		})
	}
	return hp, a.diags
}

func (a *hpAnalysis) report(p *Package, pos token.Pos, msg string) {
	position := p.Fset.Position(pos)
	key := fmt.Sprintf("%s:%d:%d:%s", position.Filename, position.Line, position.Column, msg)
	if a.diagSeen[key] {
		return
	}
	a.diagSeen[key] = true
	a.diags = append(a.diags, Diagnostic{Pos: position, Analyzer: "hotpath", Message: msg})
}

// ---------------------------------------------------------------------------
// Pass 1: index declarations

func (a *hpAnalysis) index(pkgs []*Package) {
	a.funcs = moduleFuncs(pkgs)
	for _, fn := range a.sortedFuncs() {
		anno, msgs := parseHotAnno(fn.decl.Doc)
		for _, m := range msgs {
			a.report(fn.pkg, fn.decl.Pos(), m)
		}
		if anno != nil {
			fn.hot = anno
			a.roots = append(a.roots, fn)
		}
	}
}

// moduleFuncs indexes the non-test function and method declarations of
// pkgs by funcKey. privflow shares it to reach callees in other packages.
func moduleFuncs(pkgs []*Package) map[string]*hpFunc {
	funcs := map[string]*hpFunc{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			if p.Test[f] {
				continue
			}
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				// A method whose receiver type does not resolve has no key.
				if obj, ok := p.Info.Defs[d.Name].(*types.Func); ok && funcKey(obj) != "" {
					funcs[funcKey(obj)] = &hpFunc{pkg: p, decl: d, key: funcKey(obj)}
				}
			}
		}
	}
	return funcs
}

func parseHotAnno(doc *ast.CommentGroup) (*hotAnno, []string) {
	if doc == nil {
		return nil, nil
	}
	for _, c := range doc.List {
		text := c.Text
		if text != "//xoarlint:hot" && !strings.HasPrefix(text, "//xoarlint:hot ") {
			continue
		}
		anno := &hotAnno{}
		var msgs []string
		for _, tok := range strings.Fields(strings.TrimPrefix(text, "//xoarlint:hot")) {
			switch {
			case strings.HasPrefix(tok, "bench="):
				anno.bench = strings.TrimPrefix(tok, "bench=")
			case strings.HasPrefix(tok, "allocs="):
				n, err := strconv.Atoi(strings.TrimPrefix(tok, "allocs="))
				if err != nil || n < 0 {
					msgs = append(msgs, fmt.Sprintf("malformed //xoarlint:hot annotation: bad allocs budget %q", tok))
					continue
				}
				anno.allocs = n
			default:
				msgs = append(msgs, fmt.Sprintf("malformed //xoarlint:hot annotation: unknown token %q (want bench=... or allocs=N)", tok))
			}
		}
		return anno, msgs
	}
	return nil, nil
}

// ---------------------------------------------------------------------------
// Pass 2: collect func-field assignments (funcflow)

// collectCoroutines finds the functions passed to iter.Pull or iter.Pull2
// by name or as a method value, and records the yield parameter of each one
// that is used nowhere else, so baseEnv can bind it as a coroutine switch.
// A function that is also called directly, or passed anywhere else, may
// receive some other yield, so its parameter stays unresolved.
func (a *hpAnalysis) collectCoroutines() {
	refs, pulls := map[*hpFunc]int{}, map[*hpFunc]int{}
	for _, fn := range a.sortedFuncs() {
		if fn.decl.Body == nil {
			continue
		}
		env := hpEnv{}
		ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				a.updateEnv(fn.pkg, env, x)
			case *ast.CallExpr:
				if isIterPull(fn.pkg, x) && len(x.Args) == 1 {
					if b := a.bindingOf(fn.pkg, env, x.Args[0]); b != nil && b.decl != nil {
						pulls[b.decl]++
					}
				}
			case *ast.Ident:
				if b := a.bindingOf(fn.pkg, env, x); b != nil && b.decl != nil {
					refs[b.decl]++
				}
			}
			return true
		})
	}
	for fn, n := range pulls {
		params := fn.decl.Type.Params
		if refs[fn] != n || params == nil || len(params.List) != 1 || len(params.List[0].Names) != 1 {
			continue
		}
		a.seqYields[fn.key] = fn.pkg.Info.Defs[params.List[0].Names[0]]
	}
}

// isIterPull reports whether e is a call to iter.Pull or iter.Pull2.
func isIterPull(p *Package, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := calleeObj(p, call).(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "iter" && (fn.Name() == "Pull" || fn.Name() == "Pull2")
}

func (a *hpAnalysis) collectAssigns() {
	for _, fn := range a.sortedFuncs() {
		if fn.decl.Body == nil {
			continue
		}
		env := a.baseEnv(fn)
		ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				a.recordAssign(fn, env, x)
			case *ast.CompositeLit:
				a.recordCompositeInit(fn, env, x)
			}
			return true
		})
	}
}

func (a *hpAnalysis) sortedFuncs() []*hpFunc {
	keys := make([]string, 0, len(a.funcs))
	for k := range a.funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*hpFunc, len(keys))
	for i, k := range keys {
		out[i] = a.funcs[k]
	}
	return out
}

// recordAssign registers X.Sel = RHS when X.Sel is a func-typed field,
// against the bindings of fn's locals in source order.
func (a *hpAnalysis) recordAssign(fn *hpFunc, env hpEnv, as *ast.AssignStmt) {
	a.updateEnv(fn.pkg, env, as)
	// A multi-value assignment takes its values from one call, map read or
	// type assertion. iter.Pull's results are coroutine switches; anything
	// else is unresolved, so calls through the field fail closed instead of
	// passing as never assigned.
	var tuple *hpBinding
	if len(as.Lhs) != len(as.Rhs) {
		tuple = &hpBinding{fwd: true}
		if isIterPull(fn.pkg, as.Rhs[0]) {
			tuple = &hpBinding{coro: true}
		}
	}
	for i, lhs := range as.Lhs {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		key := funcFieldKey(fn.pkg, sel)
		if key == "" {
			continue
		}
		b := tuple
		if b == nil {
			b = a.classifyFuncValue(fn.pkg, env, as.Rhs[i])
		}
		if b != nil {
			a.fieldAssigns[key] = append(a.fieldAssigns[key], b)
		}
	}
}

// recordCompositeInit registers func-typed field initializers inside struct
// composite literals (event{fn: fn}).
func (a *hpAnalysis) recordCompositeInit(fn *hpFunc, env hpEnv, cl *ast.CompositeLit) {
	named := namedOf(fn.pkg.Info.TypeOf(cl))
	if named == nil {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range cl.Elts {
		var field *types.Var
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				field, _ = fn.pkg.Info.Uses[id].(*types.Var)
			}
			elt = kv.Value
		} else if i < st.NumFields() {
			field = st.Field(i)
		}
		if field == nil || !isFunc(field.Type()) {
			continue
		}
		if b := a.classifyFuncValue(fn.pkg, env, elt); b != nil {
			key := typeKey(named) + "." + field.Name()
			a.fieldAssigns[key] = append(a.fieldAssigns[key], b)
		}
	}
}

// classifyFuncValue maps an expression assigned into a func-typed slot to a
// binding. Literal nil contributes nothing; a value the walk cannot trace
// is forwarded.
func (a *hpAnalysis) classifyFuncValue(p *Package, env hpEnv, e ast.Expr) *hpBinding {
	if p.Info.Types[e].IsNil() {
		return nil
	}
	if b := a.bindingOf(p, env, e); b != nil {
		return b
	}
	return &hpBinding{fwd: true}
}

// bindingOf returns where a func value comes from — a literal, a module
// function or method value, a func-typed field, or a local bound in env — or
// nil when e is none of these.
func (a *hpAnalysis) bindingOf(p *Package, env hpEnv, e ast.Expr) *hpBinding {
	var obj types.Object
	switch x := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return &hpBinding{lit: &hpLit{pkg: p, lit: x, env: maps.Clone(env)}}
	case *ast.Ident:
		obj = p.Info.Uses[x]
		if b, ok := env[obj]; ok && obj != nil {
			return b
		}
	case *ast.SelectorExpr:
		if key := funcFieldKey(p, x); key != "" {
			return &hpBinding{fieldRef: key}
		}
		obj = p.Info.Uses[x.Sel]
	}
	if fn, ok := obj.(*types.Func); ok {
		if decl := a.funcs[funcKey(fn)]; decl != nil {
			return &hpBinding{decl: decl}
		}
	}
	return nil
}

// updateEnv applies an assignment to the bindings of the locals it assigns.
// A multi-value assignment binds nothing the walk can trace.
func (a *hpAnalysis) updateEnv(p *Package, env hpEnv, as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj := p.Info.ObjectOf(id)
		if obj == nil {
			continue
		}
		var b *hpBinding
		if len(as.Lhs) == len(as.Rhs) {
			b = a.bindingOf(p, env, as.Rhs[i])
		}
		env[obj] = b
	}
}

// ---------------------------------------------------------------------------
// Pass 3: the root walk

type rootWalk struct {
	visited     map[string]bool
	visitedLits map[*ast.FuncLit]bool
	reach       map[string]bool
}

// walkCtx is the per-function walking context.
type walkCtx struct {
	pkg *Package
	env hpEnv
	w   *rootWalk
}

func (a *hpAnalysis) baseEnv(fn *hpFunc) hpEnv {
	env := hpEnv{}
	if yield := a.seqYields[fn.key]; yield != nil {
		env[yield] = &hpBinding{coro: true}
	}
	return env
}

func (a *hpAnalysis) walkFunc(fn *hpFunc, w *rootWalk) {
	if w.visited[fn.key] {
		return
	}
	w.visited[fn.key] = true
	w.reach[fn.key] = true
	if fn.decl.Body == nil {
		return
	}
	ctx := &walkCtx{pkg: fn.pkg, env: a.baseEnv(fn), w: w}
	a.walkBlock(ctx, fn.decl.Body)
}

// walkFieldCallees walks every module-wide assignment to a func-typed field
// reached by a dynamic call (or passed into a walked call).
func (a *hpAnalysis) walkFieldCallees(key string, ctx *walkCtx, pos token.Pos, called bool) {
	marker := "field " + key
	if ctx.w.visited[marker] {
		return
	}
	ctx.w.visited[marker] = true
	ctx.w.reach[key+" (func value)"] = true
	for _, b := range a.fieldAssigns[key] {
		a.walkBinding(b, ctx, pos, key, called)
	}
}

func (a *hpAnalysis) walkBinding(b *hpBinding, ctx *walkCtx, pos token.Pos, what string, called bool) {
	switch {
	case b == nil:
	case b.coro:
		// Allocation-free switch; the other side has its own roots.
	case b.lit != nil:
		a.walkLit(b.lit, ctx.w)
	case b.decl != nil:
		a.walkFunc(b.decl, ctx.w)
	case b.fieldRef != "":
		a.walkFieldCallees(b.fieldRef, ctx, pos, called)
	case b.fwd && called:
		a.report(ctx.pkg, pos, fmt.Sprintf(
			"hot path: cannot resolve call through function value %s (a value forwarded from a parameter or stored by a multi-value assignment reaches it)", what))
	}
}

func (a *hpAnalysis) walkLit(l *hpLit, w *rootWalk) {
	if w.visitedLits[l.lit] {
		return
	}
	w.visitedLits[l.lit] = true
	ctx := &walkCtx{pkg: l.pkg, env: maps.Clone(l.env), w: w}
	a.walkBlock(ctx, l.lit.Body)
}

func (a *hpAnalysis) walkBlock(ctx *walkCtx, b *ast.BlockStmt) {
	if b == nil {
		return
	}
	for _, s := range b.List {
		a.walkStmt(ctx, s)
	}
}

func (a *hpAnalysis) walkStmt(ctx *walkCtx, s ast.Stmt) {
	switch x := s.(type) {
	case nil:
	case *ast.BlockStmt:
		a.walkBlock(ctx, x)
	case *ast.ExprStmt:
		a.walkExpr(ctx, x.X)
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			a.walkExpr(ctx, r)
		}
		for _, l := range x.Lhs {
			a.checkAssignTarget(ctx, l)
		}
		a.updateEnv(ctx.pkg, ctx.env, x)
	case *ast.DeclStmt:
		gd, ok := x.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, v := range vs.Values {
				a.walkExpr(ctx, v)
				if len(vs.Values) != len(vs.Names) {
					continue
				}
				if obj := ctx.pkg.Info.Defs[vs.Names[i]]; obj != nil {
					ctx.env[obj] = a.bindingOf(ctx.pkg, ctx.env, v)
				}
			}
		}
	case *ast.IfStmt:
		a.walkStmt(ctx, x.Init)
		a.walkExpr(ctx, x.Cond)
		if a.coldBranch(ctx, x) {
			// The condition still executes on the hot path, but the body is
			// the cold (error/teardown) side: skip it.
			a.walkStmt(ctx, x.Else)
			return
		}
		a.walkBlock(ctx, x.Body)
		a.walkStmt(ctx, x.Else)
	case *ast.ForStmt:
		a.walkStmt(ctx, x.Init)
		if x.Cond != nil {
			a.walkExpr(ctx, x.Cond)
		}
		a.walkStmt(ctx, x.Post)
		a.walkBlock(ctx, x.Body)
	case *ast.RangeStmt:
		a.walkExpr(ctx, x.X)
		// Range variables take values the walk does not trace.
		for _, e := range []ast.Expr{x.Key, x.Value} {
			if id, ok := e.(*ast.Ident); ok {
				delete(ctx.env, ctx.pkg.Info.ObjectOf(id))
			}
		}
		a.walkBlock(ctx, x.Body)
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			a.walkExpr(ctx, r)
		}
	case *ast.SwitchStmt:
		a.walkStmt(ctx, x.Init)
		if x.Tag != nil {
			a.walkExpr(ctx, x.Tag)
		}
		for _, c := range x.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				a.walkExpr(ctx, e)
			}
			for _, s := range cc.Body {
				a.walkStmt(ctx, s)
			}
		}
	case *ast.TypeSwitchStmt:
		a.walkStmt(ctx, x.Init)
		a.walkStmt(ctx, x.Assign)
		for _, c := range x.Body.List {
			cc := c.(*ast.CaseClause)
			for _, s := range cc.Body {
				a.walkStmt(ctx, s)
			}
		}
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			cc := c.(*ast.CommClause)
			a.walkStmt(ctx, cc.Comm)
			for _, s := range cc.Body {
				a.walkStmt(ctx, s)
			}
		}
	case *ast.SendStmt:
		a.walkExpr(ctx, x.Chan)
		a.walkExpr(ctx, x.Value)
	case *ast.IncDecStmt:
		a.walkExpr(ctx, x.X)
	case *ast.DeferStmt:
		a.walkExpr(ctx, x.Call)
	case *ast.GoStmt:
		a.report(ctx.pkg, x.Pos(), "allocation on hot path: go statement spawns a goroutine")
		a.walkExpr(ctx, x.Call)
	case *ast.LabeledStmt:
		a.walkStmt(ctx, x.Stmt)
	case *ast.BranchStmt, *ast.EmptyStmt:
	}
}

// checkAssignTarget flags writes whose target may allocate: map assignment.
func (a *hpAnalysis) checkAssignTarget(ctx *walkCtx, lhs ast.Expr) {
	ix, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return
	}
	if _, ok := under(ctx.pkg.Info.TypeOf(ix.X)).(*types.Map); ok {
		a.report(ctx.pkg, lhs.Pos(), "allocation on hot path: map assignment may allocate")
	}
	a.walkExpr(ctx, ix.X)
	a.walkExpr(ctx, ix.Index)
}

// ---------------------------------------------------------------------------
// Cold-branch fencing

// coldNames are flag fields/methods whose truth means the ring/device is in
// a teardown or error state: the steady-state data path never sees them set.
var coldNames = map[string]bool{
	"broken": true, "Broken": true, "closed": true, "Closed": true,
	"done": true, "Done": true, "killed": true, "stopped": true, "Stopped": true,
}

func (a *hpAnalysis) coldBranch(ctx *walkCtx, s *ast.IfStmt) bool {
	if a.coldCond(s.Cond) {
		return true
	}
	return coldTerminator(s.Body)
}

func (a *hpAnalysis) coldCond(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return a.coldCond(x.X)
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			return a.coldCond(x.X) || a.coldCond(x.Y)
		case token.LOR:
			return a.coldCond(x.X) && a.coldCond(x.Y)
		case token.NEQ:
			return (errishName(x.X) && isNilIdent(x.Y)) || (errishName(x.Y) && isNilIdent(x.X))
		case token.EQL:
			return isLenCall(x.X) && isZeroLit(x.Y) || isLenCall(x.Y) && isZeroLit(x.X)
		}
		return false
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			if id, ok := x.X.(*ast.Ident); ok {
				return id.Name == "ok" || id.Name == "found" || id.Name == "exists"
			}
		}
		return false
	case *ast.Ident:
		return coldNames[x.Name]
	case *ast.SelectorExpr:
		return coldNames[x.Sel.Name]
	case *ast.CallExpr:
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			return coldNames[sel.Sel.Name]
		}
		if id, ok := x.Fun.(*ast.Ident); ok {
			return coldNames[id.Name]
		}
		return false
	}
	return false
}

func errishName(e ast.Expr) bool {
	var name string
	switch x := e.(type) {
	case *ast.Ident:
		name = x.Name
	case *ast.SelectorExpr:
		name = x.Sel.Name
	default:
		return false
	}
	return name == "err" || strings.HasSuffix(name, "Err") || strings.HasSuffix(name, "err")
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func isLenCall(e ast.Expr) bool {
	c, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := c.Fun.(*ast.Ident)
	return ok && id.Name == "len"
}

func isZeroLit(e ast.Expr) bool {
	bl, ok := e.(*ast.BasicLit)
	return ok && bl.Kind == token.INT && bl.Value == "0"
}

// coldTerminator reports whether the branch body ends by leaving the hot
// path: a return whose results construct an error (fmt/errors or an
// err*-named helper) or a panic. Such branches are failure exits even when
// the condition is not syntactically recognizable.
func coldTerminator(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		for _, r := range last.Results {
			if callIsErrorish(r) {
				return true
			}
		}
		return false
	case *ast.ExprStmt:
		c, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := c.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

func callIsErrorish(e ast.Expr) bool {
	c, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := c.Fun.(type) {
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok && (id.Name == "fmt" || id.Name == "errors") {
			return true
		}
		return errFuncName(fun.Sel.Name)
	case *ast.Ident:
		return errFuncName(fun.Name)
	}
	return false
}

func errFuncName(name string) bool {
	return strings.HasPrefix(name, "err") || strings.HasPrefix(name, "Err")
}

// ---------------------------------------------------------------------------
// Expression walking: the allocation catalog

func (a *hpAnalysis) walkExpr(ctx *walkCtx, e ast.Expr) {
	switch x := e.(type) {
	case nil:
	case *ast.ParenExpr:
		a.walkExpr(ctx, x.X)
	case *ast.CallExpr:
		a.walkCall(ctx, x)
	case *ast.FuncLit:
		a.report(ctx.pkg, x.Pos(), "allocation on hot path: function literal allocates a closure")
		l := &hpLit{pkg: ctx.pkg, lit: x, env: ctx.env}
		a.walkLit(l, ctx.w)
	case *ast.CompositeLit:
		a.checkCompositeLit(ctx, x, false)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if cl, ok := x.X.(*ast.CompositeLit); ok {
				a.checkCompositeLit(ctx, cl, true)
				return
			}
		}
		a.walkExpr(ctx, x.X)
	case *ast.BinaryExpr:
		if x.Op == token.ADD && isString(ctx.pkg.Info.TypeOf(x)) {
			a.report(ctx.pkg, x.Pos(), "allocation on hot path: string concatenation allocates")
		}
		a.walkExpr(ctx, x.X)
		a.walkExpr(ctx, x.Y)
	case *ast.SelectorExpr:
		a.walkExpr(ctx, x.X)
	case *ast.IndexExpr:
		a.walkExpr(ctx, x.X)
		a.walkExpr(ctx, x.Index)
	case *ast.IndexListExpr:
		a.walkExpr(ctx, x.X)
	case *ast.SliceExpr:
		a.walkExpr(ctx, x.X)
		a.walkExpr(ctx, x.Low)
		a.walkExpr(ctx, x.High)
		a.walkExpr(ctx, x.Max)
	case *ast.StarExpr:
		a.walkExpr(ctx, x.X)
	case *ast.TypeAssertExpr:
		a.walkExpr(ctx, x.X)
	case *ast.KeyValueExpr:
		a.walkExpr(ctx, x.Value)
	}
}

func (a *hpAnalysis) checkCompositeLit(ctx *walkCtx, cl *ast.CompositeLit, escaping bool) {
	if escaping {
		a.report(ctx.pkg, cl.Pos(), "allocation on hot path: &composite literal escapes to the heap")
	} else {
		switch under(ctx.pkg.Info.TypeOf(cl)).(type) {
		case *types.Slice, *types.Map:
			a.report(ctx.pkg, cl.Pos(), "allocation on hot path: slice/map composite literal allocates")
		}
	}
	for _, elt := range cl.Elts {
		a.walkExpr(ctx, elt)
	}
}

// hotAllocPkgs are stdlib packages whose exported API allocates (or
// formats); any call into them from a hot path is flagged.
var hotAllocPkgs = map[string]bool{
	"fmt": true, "errors": true, "log": true, "strconv": true,
	"strings": true, "bytes": true, "time": true, "os": true, "io": true,
	"reflect": true, "regexp": true, "bufio": true, "encoding/json": true,
}

// hotSafePkgPrefixes are stdlib subtrees whose hot-used API is in-place:
// math (incl. math/rand value draws), sync primitives, atomics.
var hotSafePkgPrefixes = []string{"math", "sync", "unsafe"}

// stdlibVerdict classifies a call into a non-module package: 'o' proven
// fine, 'x' allocates, '?' cannot prove.
func stdlibVerdict(pkgPath, name string) byte {
	if hotAllocPkgs[pkgPath] {
		return 'x'
	}
	for _, pre := range hotSafePkgPrefixes {
		if pkgPath == pre || strings.HasPrefix(pkgPath, pre+"/") {
			return 'o'
		}
	}
	if pkgPath == "sort" && strings.HasPrefix(name, "Search") {
		return 'o'
	}
	return '?'
}

func (a *hpAnalysis) walkCall(ctx *walkCtx, call *ast.CallExpr) {
	info := ctx.pkg.Info
	fun := stripIndex(call.Fun)

	// Conversions.
	if tv := info.Types[call.Fun]; tv.IsType() {
		if len(call.Args) == 1 {
			argIsString := isString(info.TypeOf(call.Args[0]))
			_, toSlice := under(tv.Type).(*types.Slice)
			switch {
			case isString(tv.Type) && !argIsString:
				a.report(ctx.pkg, call.Pos(), "allocation on hot path: conversion to string allocates")
			case toSlice && argIsString:
				a.report(ctx.pkg, call.Pos(), "allocation on hot path: string to slice conversion allocates")
			}
			a.walkExpr(ctx, call.Args[0])
		}
		return
	}

	switch obj := calleeObj(ctx.pkg, call).(type) {
	case *types.Builtin:
		switch obj.Name() {
		case "append":
			a.report(ctx.pkg, call.Pos(), "allocation on hot path: append may grow its backing array")
			a.walkArgs(ctx, call, nil)
		case "make", "new":
			a.report(ctx.pkg, call.Pos(), "allocation on hot path: "+obj.Name()+" allocates")
		case "print", "println":
			a.report(ctx.pkg, call.Pos(), "allocation on hot path: print/println allocates")
		default:
			a.walkArgs(ctx, call, nil)
		}
		return
	case *types.Func:
		if obj.Pkg() == nil {
			break // a method of the predeclared error interface
		}
		path := obj.Pkg().Path()
		if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
			a.flagStdlib(ctx, call, path, obj.Name())
			a.walkArgs(ctx, call, nil)
			return
		}
		if fn := a.funcs[funcKey(obj)]; fn != nil {
			a.walkFunc(fn, ctx.w)
			sig, _ := info.TypeOf(call.Fun).(*types.Signature)
			a.walkArgs(ctx, call, sig)
			return
		}
	case *types.Var:
		// A func value: a field or local whose binding the walk follows.
		if b := a.bindingOf(ctx.pkg, ctx.env, fun); b != nil {
			what := b.fieldRef
			if what == "" {
				what = exprString(fun)
			}
			a.walkBinding(b, ctx, call.Pos(), what, true)
			a.walkArgs(ctx, call, nil)
			return
		}
		if _, ok := fun.(*ast.Ident); ok {
			a.report(ctx.pkg, call.Pos(), fmt.Sprintf("hot path: cannot resolve call through function value %s", exprString(fun)))
			a.walkArgs(ctx, call, nil)
			return
		}
	}
	if lit, ok := fun.(*ast.FuncLit); ok {
		a.report(ctx.pkg, lit.Pos(), "allocation on hot path: function literal allocates a closure")
		a.walkLit(&hpLit{pkg: ctx.pkg, lit: lit, env: ctx.env}, ctx.w)
		a.walkArgs(ctx, call, nil)
		return
	}
	a.report(ctx.pkg, call.Pos(), fmt.Sprintf("hot path: cannot resolve call to %s (cannot prove allocation-free)", exprString(fun)))
	a.walkArgs(ctx, call, nil)
}

const modulePath = "xoar"

func (a *hpAnalysis) flagStdlib(ctx *walkCtx, call *ast.CallExpr, pkgPath, name string) {
	switch stdlibVerdict(pkgPath, name) {
	case 'x':
		a.report(ctx.pkg, call.Pos(), fmt.Sprintf("allocation on hot path: call into %s allocates", pkgPath))
	case '?':
		a.report(ctx.pkg, call.Pos(), fmt.Sprintf("hot path: cannot prove %s.%s allocation-free", pkgPath, name))
	}
}

// walkArgs walks argument expressions and the func values passed onward
// (funcflow through calls). Given the callee's signature, it also checks
// interface-typed parameters for boxing of non-pointer arguments.
func (a *hpAnalysis) walkArgs(ctx *walkCtx, call *ast.CallExpr, sig *types.Signature) {
	for i, arg := range call.Args {
		if sig != nil && boxes(paramType(sig, i)) {
			a.checkBoxedArg(ctx, arg)
		}
		if b := a.bindingOf(ctx.pkg, ctx.env, arg); b != nil {
			a.walkBinding(b, ctx, arg.Pos(), exprString(arg), false)
		}
		a.walkExpr(ctx, arg)
	}
}

// paramType is the parameter type the i'th argument of a call is assigned
// to, or nil.
func paramType(sig *types.Signature, i int) types.Type {
	params := sig.Params()
	if sig.Variadic() && i >= params.Len()-1 {
		return params.At(params.Len() - 1).Type().(*types.Slice).Elem()
	}
	if i < params.Len() {
		return params.At(i).Type()
	}
	return nil
}

// boxes reports whether a value stored in a parameter of type t is boxed:
// t is an interface, and not a type parameter constrained by one.
func boxes(t types.Type) bool {
	_, tparam := t.(*types.TypeParam)
	return t != nil && !tparam && types.IsInterface(t)
}

// checkBoxedArg flags an argument proven to be a non-pointer value — a
// basic, struct or array — since storing it in an interface allocates.
func (a *hpAnalysis) checkBoxedArg(ctx *walkCtx, arg ast.Expr) {
	tv := ctx.pkg.Info.Types[arg]
	if tv.IsNil() {
		return
	}
	switch u := under(tv.Type).(type) {
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return
		}
	case *types.Struct, *types.Array:
	default:
		return
	}
	a.report(ctx.pkg, arg.Pos(), "allocation on hot path: interface boxing of non-pointer value")
}

// exprString renders small expressions for messages.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.CallExpr:
		return exprString(x.Fun) + "()"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.ParenExpr:
		return exprString(x.X)
	default:
		return "<expr>"
	}
}
