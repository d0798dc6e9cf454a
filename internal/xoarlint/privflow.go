package xoarlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"sort"
	"strings"
)

// privflow enforces the paper's core mechanism (§3, §5.6) on every hypercall
// entry point: each exported *hv.Hypervisor method taking an xtypes.DomID.
//
//   - Entry rule: the method audits one of its own DomID parameters with
//     h.check or h.controls, directly or through a helper like h.gate.
//     Missing it is the §6.2 "forgotten audit"; exemptEntries lists the
//     read-only and deliberately unprivileged methods.
//   - Dominance rule: an *enforced* audit dominates every reachable mutation
//     of hypervisor state. An audit after the mutation, on one branch only,
//     or whose error is dropped fails it.
//
// The walk runs on the loader's go/types information, through the resolvers
// hotpath uses (calleeObj, funcFieldKey, namedOf): every callee, field,
// parameter, xtypes.Hypercall constant and local is the object the type
// checker resolved, never a name. It is interprocedural over the hv
// package's own code: a call to a *Hypervisor method or a package function
// is inlined under the caller's fact set (so a mutation buried in h.destroy
// is checked against the audits its callers performed), and a helper that
// performs and enforces an audit itself, like h.gate, credits its callers
// once *they* enforce its result.
//
// State. A write mutates when the location it stores to is reached through
// a field of the Hypervisor struct (other than exemptCounterFields) or
// through one of the Domain fields in domainStateFields. Locals are keyed by
// types.Object, so an alias carries its root: after g := h.Grants, st :=
// &d.State or d := h.domains[id], a store through the local is a store
// through its right-hand side. A method call whose receiver is reached the
// same way (h.MM.SetMaxMem, d.Mem.Rollback, g.Revoke) mutates when the
// callee's computed summary says so: the method, or a function of its own
// package it calls, writes state of a type that package declares. A callee
// whose body is not loaded counts as writing. A write is labelled by the
// field it roots in ("domains", "Domain.State"), a call by the fields up to
// the object whose method runs ("Machine.Bus", "Domain.Mem").
//
// Facts and enforcement. Calling h.check(caller, xtypes.HyperX) or
// h.controls(caller, d) establishes nothing by itself: the result must be
// acted on. A pending audit bound to an error variable becomes a fact on
// the control-flow edge where that error is nil (the `if err != nil
// { return err }` guard); a bool audit becomes a fact on the edge where it
// is true (`if !h.controls(...) { return ... }`). Branches merge by
// intersection, loops keep only entry facts, and a fact only satisfies
// dominance when the audited variable is (bound to) one of the entry
// point's own DomID parameters — auditing a constant, or a local that
// shadows the parameter, is still a forgotten audit.
//
// Function values (funcflow). Privilege also flows through functions as
// data: closures stored into func-typed fields (h.Sink), callback
// registries (h.onDestroy, Evtchn.SetHandler) and method values (f :=
// h.reap). The walk distinguishes two fates for a function value:
//
//   - locally bound and invoked (f := func(){...}; f(), or an immediately
//     invoked literal): the body is analyzed at the call site under the
//     caller's current facts, like an inlined helper;
//   - escaped (stored into a field or registry, passed as an argument,
//     returned): the body runs at an unknown later time, so it is analyzed
//     under an EMPTY fact state — audits performed before the store do not
//     dominate the deferred execution. The value's own DomID parameters are
//     entry-bound (they are the data the callback receives at invocation,
//     so an audit inside the closure on its own parameter is the legitimate
//     guard), and captured variables keep their entry binding for the same
//     reason.
//
// A privileged mutation hidden behind a stored closure is therefore flagged
// unless the closure re-audits for itself.
//
// The same walk powers the PRIVMATRIX.json artifact (see artifact.go) and
// the auditlog pass: per entry point, the specific xtypes.Hyper* privileges
// checked, whether management rights are consulted, which state roots are
// mutated — the Go analogue of the paper's Table 3.1 per-shard whitelist
// surface — and, for auditlog, which topology changes it makes and whether
// it emits an audit event.

func init() {
	Register(&Analyzer{
		Name:      "privflow",
		Doc:       "every hv entry point taking a DomID must audit the caller, and every hv state mutation must be dominated by an enforced h.check/h.controls audit on it (flow-sensitive, interprocedural)",
		RunModule: runPrivflow,
	})
}

func runPrivflow(pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, c := range hvFlows(pkgs) {
		diags = append(diags, c.diags...)
	}
	return diags
}

// hvPath is the one package whose exported surface is the hypercall ABI.
const hvPath = "xoar/internal/hv"

// exemptEntries are exported *Hypervisor methods that take a DomID but
// legitimately skip the caller audit, with their rationale.
var exemptEntries = map[string]string{
	// Read-only queries: they reveal only what the caller could observe
	// through its own hypercall results and mutate nothing.
	"Domain":     "lookup; read-only",
	"Domains":    "enumeration; read-only",
	"HasIOPorts": "port-range query; read-only",
	// InjectHardwareVIRQ models the hardware interrupt source itself, not a
	// domain-issued hypercall; it has no caller to audit.
	"InjectHardwareVIRQ": "hardware source, no caller",
	// Compute charges simulated CPU time; scheduling one's own work is the
	// unprivileged baseline of any guest.
	"Compute": "CPU accounting; unprivileged by design",
	// SelfExit is the §5.8 hypervisor modification that lets boot-time
	// components (Bootstrapper, PCIBack) destroy themselves: voluntary exit
	// is deliberately unprivileged and only ever targets the caller.
	"SelfExit": "voluntary exit; unprivileged by design (§5.8)",
}

// exemptCounterFields are *Hypervisor fields that exist purely for
// experiment accounting, bumped by h.check and h.deny.
var exemptCounterFields = map[string]bool{
	"HypercallCount": true,
	"DeniedCalls":    true,
}

// domainStateFields are *Domain fields that carry privilege, lifecycle or
// memory-image state; writing them (or calling through Mem) from a
// hypercall entry point requires a dominating audit.
var domainStateFields = map[string]bool{
	"State":         true,
	"parentTool":    true,
	"delegates":     true,
	"privilegedFor": true,
	"clients":       true,
	"priv":          true,
	"ioPorts":       true,
	"Mem":           true,
	"Cfg":           true,
	"ExitReason":    true,
}

// hvAnalysis binds the policy lists to the hv package's own objects and
// holds what the walks of its entry points share.
type hvAnalysis struct {
	p     *Package
	funcs map[string]*hpFunc // every loaded function, by funcKey
	hv    *types.Named       // Hypervisor
	// check and controls are the audit primitives.
	check, controls *types.Func
	// state maps each field a mutation roots in to its label prefix: "" for
	// a Hypervisor field, "Domain." for one of domainStateFields.
	state map[*types.Var]string
	// topology is auditlog's subset of state, with the same prefixes.
	topology map[*types.Var]string
	// sinks are the func-typed Hypervisor fields taking an Event, by
	// funcFieldKey: calling through one emits an audit event.
	sinks map[string]bool
	// wrote memoizes writes; busy marks the summaries being computed.
	wrote, busy map[string]bool
	cycles      int
}

func newHVAnalysis(p *Package, funcs map[string]*hpFunc) *hvAnalysis {
	if p.Path != hvPath {
		return nil
	}
	var scope *types.Scope
	for _, obj := range p.Info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && tn.Name() == "Hypervisor" && tn.Parent() == tn.Pkg().Scope() {
			scope = tn.Pkg().Scope()
		}
	}
	if scope == nil {
		return nil // the external test unit of hv
	}
	a := &hvAnalysis{p: p, funcs: funcs, state: map[*types.Var]string{}, topology: map[*types.Var]string{},
		sinks: map[string]bool{}, wrote: map[string]bool{}, busy: map[string]bool{}}
	a.hv = namedOf(scope.Lookup("Hypervisor").Type())
	a.check, a.controls = method(a.hv, "check"), method(a.hv, "controls")
	event := scope.Lookup("Event")
	for _, f := range structFields(a.hv) {
		if !exemptCounterFields[f.Name()] {
			a.state[f] = ""
		}
		if auditlogHVFields[f.Name()] {
			a.topology[f] = ""
		}
		if sig, ok := under(f.Type()).(*types.Signature); ok && event != nil &&
			slices.ContainsFunc(params(sig), func(v *types.Var) bool { return types.Identical(v.Type(), event.Type()) }) {
			a.sinks[typeKey(a.hv)+"."+f.Name()] = true
		}
	}
	if dom, ok := scope.Lookup("Domain").(*types.TypeName); ok {
		for _, f := range structFields(namedOf(dom.Type())) {
			if domainStateFields[f.Name()] {
				a.state[f] = "Domain."
			}
			if auditlogDomainFields[f.Name()] {
				a.topology[f] = "Domain."
			}
		}
	}
	return a
}

func method(named *types.Named, name string) *types.Func {
	obj, _, _ := types.LookupFieldOrMethod(named, true, named.Obj().Pkg(), name)
	fn, _ := obj.(*types.Func)
	return fn
}

func structFields(named *types.Named) []*types.Var {
	var out []*types.Var
	if named == nil {
		return out
	}
	if st, ok := named.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			out = append(out, st.Field(i))
		}
	}
	return out
}

// isXtype reports whether t is the named type xtypes.<name>.
func isXtype(t types.Type, name string) bool {
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == xtypesPath && n.Obj().Name() == name
}

// hvFlows walks every hypercall entry point of the hv package among pkgs,
// sorted by name: each exported *Hypervisor method taking a DomID. Exempt
// entry points are walked too, for auditlog; their privflow findings are
// dropped and their matrix row carries the rationale.
func hvFlows(pkgs []*Package) []*flow {
	funcs := moduleFuncs(pkgs)
	var out []*flow
	for _, p := range pkgs {
		a := newHVAnalysis(p, funcs)
		if a == nil {
			continue
		}
		var entries []*hpFunc
		for _, fn := range funcs {
			if fn.pkg != p || !fn.decl.Name.IsExported() {
				continue
			}
			sig := p.Info.Defs[fn.decl.Name].Type().(*types.Signature)
			if sig.Recv() != nil && namedOf(sig.Recv().Type()) == a.hv &&
				slices.ContainsFunc(params(sig), func(v *types.Var) bool { return isXtype(v.Type(), "DomID") }) {
				entries = append(entries, fn)
			}
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
		for _, fn := range entries {
			out = append(out, a.walk(fn))
		}
	}
	return out
}

func params(sig *types.Signature) []*types.Var {
	out := make([]*types.Var, sig.Params().Len())
	for i := range out {
		out[i] = sig.Params().At(i)
	}
	return out
}

// fact is one established audit: past this program point the caller has
// been verified against a specific privilege, or (priv == "") against
// management rights over a target. entry records whether the audited
// variable is bound to one of the entry point's own DomID parameters; only
// entry facts satisfy dominance.
type fact struct {
	priv  string
	dom   types.Object
	entry bool
}

// verdict is the facts an audit result carries until it is enforced: where
// it is true for a bool audit (boolPol, h.controls), where it is nil for an
// error result.
type verdict struct {
	facts   []fact
	boolPol bool
}

// flowState is the dataflow value: established facts plus pending audits,
// keyed by the variable the verdict was assigned to.
type flowState struct {
	facts   map[fact]bool
	pending map[types.Object]verdict
}

func newFlowState() *flowState {
	return &flowState{facts: map[fact]bool{}, pending: map[types.Object]verdict{}}
}

func (s *flowState) clone() *flowState {
	return &flowState{facts: maps.Clone(s.facts), pending: maps.Clone(s.pending)}
}

func (s *flowState) add(fs ...fact) *flowState {
	for _, f := range fs {
		s.facts[f] = true
	}
	return s
}

// intersectStates merges two branch outcomes: only facts established on
// both paths survive.
func intersectStates(a, b *flowState) *flowState {
	out := newFlowState()
	for f := range a.facts {
		if b.facts[f] {
			out.facts[f] = true
		}
	}
	for k, p := range a.pending {
		if _, ok := b.pending[k]; ok {
			out.pending[k] = p
		}
	}
	return out
}

// binding is what the walk knows of a parameter or local.
type binding struct {
	entry bool         // a DomID carrying the entry point's caller
	hyper string       // the xtypes.Hypercall constant the call chain bound it to
	fn    *fnValue     // the function value it holds
	root  []*types.Var // the path of fields to the state it aliases
}

// fnValue is a function the walk can run: a literal, or a function or
// method the analyzed package declares.
type fnValue struct {
	lit  *ast.FuncLit
	decl *hpFunc
}

// flow walks one entry point. env and the fact keys are types.Objects, so
// one map serves the entry point, its inlined helpers and its closures.
type flow struct {
	a        *hvAnalysis
	p        *Package
	decl     *ast.FuncDecl
	recv     string
	env      map[types.Object]binding
	stack    []walkFrame // inlined chain, for the recursion guard and messages
	diags    []Diagnostic
	reported map[token.Pos]bool
	row      PrivEntry
	privs    map[string]bool
	controls bool
	mutates  map[string]bool
	// topology and emits are auditlog's view of the same walk.
	topology map[string]bool
	emits    bool
}

type walkFrame struct {
	node ast.Node
	name string
}

func (a *hvAnalysis) walk(fn *hpFunc) *flow {
	sig := a.p.Info.Defs[fn.decl.Name].Type().(*types.Signature)
	c := &flow{a: a, p: a.p, decl: fn.decl, recv: sig.Recv().Name(), env: map[types.Object]binding{},
		reported: map[token.Pos]bool{}, privs: map[string]bool{}, mutates: map[string]bool{}, topology: map[string]bool{}}
	for _, v := range params(sig) {
		c.env[v] = binding{entry: isXtype(v.Type(), "DomID")}
	}
	c.stmts(newFlowState(), fn.decl.Body.List)
	name := fn.decl.Name.Name
	if why, ok := exemptEntries[name]; ok {
		c.diags, c.row = nil, PrivEntry{Method: name, Exempt: why}
		return c
	}
	if len(c.privs) == 0 && !c.controls {
		c.report(fn.decl.Name.Pos(), fmt.Sprintf("hv.%s takes a caller DomID but never audits it with %s.check or %s.controls",
			name, c.recv, c.recv))
	}
	c.row = PrivEntry{Method: name, Privileges: sortedKeys(c.privs), Controls: c.controls, Mutates: sortedKeys(c.mutates)}
	return c
}

// --- statement walk ----------------------------------------------------------

// stmts walks a statement list, threading the dataflow state; the bool
// reports whether the list terminates (return/panic/branch) on every path
// that reaches its end.
func (c *flow) stmts(st *flowState, list []ast.Stmt) (*flowState, bool) {
	for _, s := range list {
		var term bool
		st, term = c.stmt(st, s)
		if term {
			return st, true
		}
	}
	return st, false
}

func (c *flow) stmt(st *flowState, s ast.Stmt) (*flowState, bool) {
	switch v := s.(type) {
	case *ast.ReturnStmt:
		for _, r := range v.Results {
			c.expr(st, r)
		}
		return st, true
	case *ast.BranchStmt:
		return st, true
	case *ast.ExprStmt:
		// An audit whose result is discarded establishes nothing.
		c.expr(st, v.X)
		if call, ok := ast.Unparen(v.X).(*ast.CallExpr); ok {
			if b, ok := calleeObj(c.p, call).(*types.Builtin); ok && b.Name() == "panic" {
				return st, true
			}
		}
	case *ast.AssignStmt:
		c.assign(st, v.Lhs, v.Rhs)
	case *ast.IncDecStmt:
		c.store(st, v.X, nil)
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, n := range vs.Names {
						lhs[i] = n
					}
					c.assign(st, lhs, vs.Values)
				}
			}
		}
	case *ast.IfStmt:
		return c.ifStmt(st, v)
	case *ast.BlockStmt:
		return c.stmts(st, v.List)
	case *ast.ForStmt:
		st, _ = c.stmt(st, v.Init)
		body := st.clone()
		pos, _ := c.cond(body, v.Cond)
		out, _ := c.stmts(body.add(pos...), v.Body.List)
		c.stmt(out, v.Post)
		return st, false // the body may run zero times: keep entry facts only
	case *ast.RangeStmt:
		c.expr(st, v.X)
		body := st.clone()
		for _, e := range []ast.Expr{v.Key, v.Value} {
			if e != nil {
				c.store(body, e, nil) // range variables take values the walk does not trace
			}
		}
		c.stmts(body, v.Body.List)
	case *ast.SwitchStmt:
		st, _ = c.stmt(st, v.Init)
		c.expr(st, v.Tag)
		return c.caseClauses(st, v.Body.List)
	case *ast.TypeSwitchStmt:
		st, _ = c.stmt(st, v.Init)
		return c.caseClauses(st, v.Body.List)
	case *ast.SelectStmt:
		for _, cl := range v.Body.List {
			if comm, ok := cl.(*ast.CommClause); ok {
				c.stmts(st.clone(), comm.Body)
			}
		}
	case *ast.DeferStmt:
		c.expr(st, v.Call)
	case *ast.GoStmt:
		c.expr(st, v.Call)
	case *ast.SendStmt:
		c.expr(st, v.Chan)
		c.expr(st, v.Value)
	case *ast.LabeledStmt:
		return c.stmt(st, v.Stmt)
	}
	return st, false
}

// caseClauses walks switch bodies: each case starts from the pre-switch
// state and none of its facts escape (the matched case is unknown).
func (c *flow) caseClauses(st *flowState, clauses []ast.Stmt) (*flowState, bool) {
	hasDefault := false
	allTerm := len(clauses) > 0
	for _, cs := range clauses {
		cl, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cl.List == nil {
			hasDefault = true
		}
		for _, e := range cl.List {
			c.expr(st, e)
		}
		if _, term := c.stmts(st.clone(), cl.Body); !term {
			allTerm = false
		}
	}
	return st, hasDefault && allTerm
}

// assign walks the right-hand sides for audits and mutations, then stores
// into each left-hand side and binds a pending audit to the variable its
// verdict lands in. A function value assigned to a local is *bound*, not
// escaped: its body is analyzed when (and where) the local is invoked.
func (c *flow) assign(st *flowState, lhs, rhs []ast.Expr) {
	pair := len(lhs) == len(rhs)
	var res *verdict
	for i, r := range rhs {
		if _, ok := c.fnOf(r); ok && pair && c.varOf(lhs[i]) != nil {
			continue
		}
		if v := c.expr(st, r); v != nil {
			res = v
		}
	}
	for i, l := range lhs {
		var r ast.Expr
		if pair {
			r = rhs[i]
		}
		c.store(st, l, r)
	}
	// The verdict lands in the sole variable for bool audits, the last one
	// for error-style results (Go's error-last convention).
	if res == nil || (res.boolPol && len(lhs) != 1) {
		return
	}
	if obj := c.varOf(lhs[len(lhs)-1]); obj != nil {
		st.pending[obj] = *res
	}
}

// varOf is the variable e names, or nil when e is not a variable or is the
// blank identifier.
func (c *flow) varOf(e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok && id.Name != "_" {
		return c.p.Info.ObjectOf(id)
	}
	return nil
}

// store records a store of rhs (nil when untraced) into lhs: a variable is
// rebound, which invalidates its old verdict; anything else is a write.
func (c *flow) store(st *flowState, lhs, rhs ast.Expr) {
	if _, ok := ast.Unparen(lhs).(*ast.Ident); !ok {
		c.write(st, lhs)
	} else if obj := c.varOf(lhs); obj != nil {
		delete(st.pending, obj)
		c.env[obj] = c.valueOf(rhs)
	}
}

// valueOf is what a variable assigned e holds: a function value, and an
// alias of state when e is an address, or a pointer, map or slice reached
// through a field.
func (c *flow) valueOf(e ast.Expr) binding {
	var b binding
	if e == nil {
		return b
	}
	if fv, ok := c.fnOf(e); ok {
		b.fn = &fv
	}
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.AND {
		b.root = c.path(u.X)
	} else {
		switch under(c.p.Info.TypeOf(e)).(type) {
		case *types.Pointer, *types.Map, *types.Slice:
			b.root = c.path(e)
		}
	}
	return b
}

// ifStmt is where pending audits become facts: on the branch edge that
// proves enforcement (err == nil, controls == true), and on the
// fall-through edge when the failure branch terminates.
func (c *flow) ifStmt(st *flowState, v *ast.IfStmt) (*flowState, bool) {
	st, _ = c.stmt(st, v.Init)
	pos, neg := c.cond(st, v.Cond)
	bOut, bTerm := c.stmts(st.clone().add(pos...), v.Body.List)
	if v.Else == nil {
		skip := st.clone().add(neg...)
		if bTerm {
			return skip, false
		}
		return intersectStates(bOut, skip), false
	}
	eOut, eTerm := c.stmt(st.clone().add(neg...), v.Else)
	switch {
	case bTerm && eTerm:
		return st, true
	case bTerm:
		return eOut, false
	case eTerm:
		return bOut, false
	default:
		return intersectStates(bOut, eOut), false
	}
}

// cond evaluates a branch condition and returns the facts established on
// its true and false edges.
func (c *flow) cond(st *flowState, e ast.Expr) (pos, neg []fact) {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return c.cond(st, v.X)
	case *ast.UnaryExpr:
		if v.Op == token.NOT {
			p, n := c.cond(st, v.X)
			return n, p
		}
	case *ast.BinaryExpr:
		switch v.Op {
		case token.LAND:
			p1, _ := c.cond(st, v.X)
			p2, _ := c.cond(st, v.Y)
			return append(p1, p2...), nil // which conjunct failed is unknown
		case token.LOR:
			_, n1 := c.cond(st, v.X)
			_, n2 := c.cond(st, v.Y)
			return nil, append(n1, n2...)
		case token.EQL, token.NEQ:
			if c.p.Info.Types[v.Y].IsNil() {
				if res := c.valueRes(st, v.X); res != nil && !res.boolPol {
					if v.Op == token.EQL {
						return res.facts, nil // err == nil: audit passed
					}
					return nil, res.facts // err != nil: failure edge
				}
				return nil, nil
			}
		}
	case *ast.Ident:
		if pe, ok := st.pending[c.p.Info.Uses[v]]; ok && pe.boolPol {
			return pe.facts, nil
		}
		return nil, nil
	case *ast.CallExpr:
		if res := c.expr(st, v); res != nil && res.boolPol {
			return res.facts, nil
		}
		return nil, nil
	}
	c.expr(st, e)
	return nil, nil
}

// valueRes resolves a condition operand to its pending audit, evaluating
// calls in place (`if h.requirePriv(caller, X) != nil`).
func (c *flow) valueRes(st *flowState, e ast.Expr) *verdict {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return c.valueRes(st, v.X)
	case *ast.Ident:
		if pe, ok := st.pending[c.p.Info.Uses[v]]; ok {
			return &pe
		}
	case *ast.CallExpr:
		return c.expr(st, v)
	}
	return nil
}

// --- expression walk ---------------------------------------------------------

// expr walks an expression for audits, helper calls and mutations,
// returning the audit verdict of the outermost call, if any.
func (c *flow) expr(st *flowState, e ast.Expr) *verdict {
	switch v := e.(type) {
	case *ast.CallExpr:
		for _, a := range v.Args {
			c.expr(st, a)
		}
		return c.call(st, v)
	case *ast.ParenExpr:
		return c.expr(st, v.X)
	case *ast.UnaryExpr:
		return c.expr(st, v.X)
	case *ast.StarExpr:
		return c.expr(st, v.X)
	case *ast.BinaryExpr:
		c.expr(st, v.X)
		c.expr(st, v.Y)
	case *ast.KeyValueExpr:
		c.expr(st, v.Value)
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			c.expr(st, el)
		}
	case *ast.IndexExpr:
		c.expr(st, v.X)
		c.expr(st, v.Index)
	case *ast.SliceExpr:
		c.expr(st, v.X)
		c.expr(st, v.Low)
		c.expr(st, v.High)
		c.expr(st, v.Max)
	case *ast.TypeAssertExpr:
		c.expr(st, v.X)
	case *ast.FuncLit, *ast.Ident, *ast.SelectorExpr:
		// A function value read as data escapes (stored into a field or
		// registry, passed along, returned): it runs later, outside the
		// facts established here.
		if fv, ok := c.fnOf(e); ok {
			c.run(fv, nil, nil)
		} else if sel, ok := e.(*ast.SelectorExpr); ok {
			c.expr(st, sel.X)
		}
	}
	return nil
}

// fnOf resolves e to a function value the walk can run: a literal, a
// function or method of the analyzed package (named, or as a method value),
// or a variable bound to one of these.
func (c *flow) fnOf(e ast.Expr) (fnValue, bool) {
	var obj types.Object
	switch v := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return fnValue{lit: v}, true
	case *ast.Ident:
		obj = c.p.Info.Uses[v]
		if fv := c.env[obj].fn; fv != nil {
			return *fv, true
		}
	case *ast.SelectorExpr:
		obj = c.p.Info.Uses[v.Sel]
	}
	if fn, ok := obj.(*types.Func); ok {
		if decl := c.local(fn); decl != nil {
			return fnValue{decl: decl}, true
		}
	}
	return fnValue{}, false
}

// local is fn's declaration when the analyzed package declares it.
func (c *flow) local(fn *types.Func) *hpFunc {
	if d := c.a.funcs[funcKey(fn)]; d != nil && d.pkg == c.p && d.decl.Body != nil {
		return d
	}
	return nil
}

// call dispatches one call expression: audit primitives, helpers of the hv
// package (inlined), bound function values and immediately invoked literals
// (analyzed at the call site), builtin delete, calls through a state object
// (mutations when the callee writes) and calls through an Event sink.
func (c *flow) call(st *flowState, v *ast.CallExpr) *verdict {
	fun := ast.Unparen(v.Fun)
	if lit, ok := fun.(*ast.FuncLit); ok {
		return c.run(fnValue{lit: lit}, st, v.Args) // immediately invoked: runs here
	}
	sel, _ := fun.(*ast.SelectorExpr)
	switch obj := calleeObj(c.p, v).(type) {
	case *types.Builtin:
		if obj.Name() == "delete" && len(v.Args) > 0 {
			c.write(st, v.Args[0])
		}
		return nil
	case *types.Func:
		if (obj == c.a.check || obj == c.a.controls) && len(v.Args) == 2 {
			if obj == c.a.controls {
				return c.audit("", v.Args[0], true)
			}
			return c.auditCheck(v)
		}
		if sel != nil {
			c.expr(st, sel.X)
		}
		recv := obj.Type().(*types.Signature).Recv()
		if fn := c.local(obj); fn != nil && (recv == nil || namedOf(recv.Type()) == c.a.hv) {
			return c.run(fnValue{decl: fn}, st, v.Args)
		}
		if recv != nil && sel != nil {
			path := c.path(sel.X)
			if label := c.a.label(path, true); label != "" && c.a.writes(obj) {
				c.mutation(v.Pos(), st, label, path)
			}
		}
		return nil
	case *types.Var:
		if fv := c.env[obj].fn; fv != nil {
			return c.run(*fv, st, v.Args) // a bound function value runs here
		}
		if sel != nil && c.a.sinks[funcFieldKey(c.p, sel)] {
			c.emits = true
		}
		return nil
	}
	c.expr(st, fun) // a conversion, or a call of a computed function
	return nil
}

// auditCheck models h.check(caller, xtypes.HyperX): a pending privilege
// fact, error polarity. A privilege argument that is not a specific
// xtypes.Hypercall constant defeats static whitelist review and is flagged.
func (c *flow) auditCheck(v *ast.CallExpr) *verdict {
	priv := c.hyper(v.Args[1])
	if priv == "" {
		c.report(v.Pos(), fmt.Sprintf(
			"hv.%s: %s.check must name a specific xtypes.Hyper* constant so the whitelist surface stays statically auditable",
			c.decl.Name.Name, c.recv))
		return nil
	}
	return c.audit(priv, v.Args[0], false)
}

// audit is the pending fact an audit primitive establishes on the DomID
// variable arg names: a privilege (priv) or, with priv "", management
// rights (h.controls, bool polarity).
func (c *flow) audit(priv string, arg ast.Expr, boolPol bool) *verdict {
	dom := c.varOf(arg)
	entry := dom != nil && c.env[dom].entry
	if entry && priv == "" {
		c.controls = true
	} else if entry {
		c.privs[priv] = true
	}
	return &verdict{facts: []fact{{priv: priv, dom: dom, entry: entry}}, boolPol: boolPol}
}

// hyper resolves e to the name of an xtypes.Hypercall constant: named
// directly, or through a parameter the call chain bound one to.
func (c *flow) hyper(e ast.Expr) string {
	var obj types.Object
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = c.p.Info.Uses[v]
	case *ast.SelectorExpr:
		obj = c.p.Info.Uses[v.Sel]
	}
	if k, ok := obj.(*types.Const); ok && isXtype(k.Type(), "Hypercall") {
		return k.Name()
	}
	return c.env[obj].hyper
}

// run walks a function body: at this program point under st's facts (an
// inlined helper, a bound or immediately invoked literal), or, when st is
// nil, as escaped code that runs at some later, unknown point, so no fact
// established here dominates it. An escaped function's own DomID parameters
// are entry-bound: they are the caller identity the callback receives, and
// an audit inside it against them is the legitimate deferred guard. The
// facts an inlined body establishes come back as a verdict for the caller
// to enforce when its result is an error or a bool: this is what credits
// audit helpers like h.gate.
func (c *flow) run(fv fnValue, st *flowState, args []ast.Expr) *verdict {
	var node ast.Node
	var body *ast.BlockStmt
	var sig *types.Signature
	var name string
	if fv.lit != nil {
		node, body = fv.lit, fv.lit.Body
		sig, _ = c.p.Info.TypeOf(fv.lit).(*types.Signature)
		name = fmt.Sprintf("func literal (line %d)", c.p.Fset.Position(fv.lit.Pos()).Line)
		if st == nil {
			name = "stored " + name
		}
	} else {
		node, body = fv.decl.decl, fv.decl.decl.Body
		sig = c.p.Info.Defs[fv.decl.decl.Name].Type().(*types.Signature)
		name = fv.decl.decl.Name.Name
	}
	if sig == nil || len(c.stack) >= 8 || slices.ContainsFunc(c.stack, func(f walkFrame) bool { return f.node == node }) {
		return nil // recursion: stop, keep the caller's facts
	}
	c.stack = append(c.stack, walkFrame{node, name})
	defer func() { c.stack = c.stack[:len(c.stack)-1] }()

	in := newFlowState()
	if st != nil {
		in = st.clone()
	}
	for i, p := range params(sig) {
		b := binding{entry: st == nil && isXtype(p.Type(), "DomID")}
		if st != nil && i < len(args) {
			b.hyper = c.hyper(args[i])
			if dom := c.varOf(args[i]); dom != nil && isXtype(p.Type(), "DomID") {
				b.entry = c.env[dom].entry
			}
		}
		c.env[p] = b
	}
	out, _ := c.stmts(in, body.List)
	if st == nil {
		return nil
	}
	var fs []fact
	for f := range out.facts {
		if !st.facts[f] {
			fs = append(fs, f)
		}
	}
	boolPol, ok := polarity(sig)
	if len(fs) == 0 || !ok {
		return nil // nothing new, or no error/bool result the caller could enforce
	}
	return &verdict{facts: fs, boolPol: boolPol}
}

// polarity classifies a helper's enforceable result: error-last or bool.
func polarity(sig *types.Signature) (boolPol, ok bool) {
	rs := sig.Results()
	if rs.Len() == 0 {
		return false, false
	}
	switch last := rs.At(rs.Len() - 1).Type(); {
	case types.Identical(last, types.Universe.Lookup("error").Type()):
		return false, true
	case types.Identical(last, types.Typ[types.Bool]):
		return true, true
	}
	return false, false
}

// --- mutation detection ------------------------------------------------------

// path returns the fields e is reached through, innermost first, starting
// from the root an alias carries: h.Machine.Bus -> [Machine Bus];
// d.priv.Hypercalls[hc] -> [priv Hypercalls]. It is nil when e is reached
// through neither a field nor an alias.
func (c *flow) path(e ast.Expr) []*types.Var {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return c.env[c.p.Info.Uses[v]].root
	case *ast.SelectorExpr:
		if s := c.p.Info.Selections[v]; s != nil && s.Kind() == types.FieldVal {
			return append(slices.Clip(c.path(v.X)), s.Obj().(*types.Var))
		}
	case *ast.IndexExpr:
		return c.path(v.X)
	case *ast.StarExpr:
		return c.path(v.X)
	}
	return nil
}

// label names the state a path reaches: its first state field, followed,
// for a call (whole), by the fields up to the object whose method runs. It
// is "" when no state field is on the path.
func (a *hvAnalysis) label(path []*types.Var, whole bool) string {
	for i, f := range path {
		prefix, ok := a.state[f]
		if !ok {
			continue
		}
		names := []string{f.Name()}
		if whole {
			for _, g := range path[i+1:] {
				names = append(names, g.Name())
			}
		}
		return prefix + strings.Join(names, ".")
	}
	return ""
}

// write records a store into the location e denotes, when that is state.
func (c *flow) write(st *flowState, e ast.Expr) {
	path := c.path(e)
	if label := c.a.label(path, false); label != "" {
		c.mutation(e.Pos(), st, label, path)
	}
}

// mutation records a state mutation for the matrix and for auditlog (the
// last topology field on its path), and flags it unless an entry-bound
// audit fact dominates this program point.
func (c *flow) mutation(pos token.Pos, st *flowState, label string, path []*types.Var) {
	c.mutates[label] = true
	topo := ""
	for _, f := range path {
		if prefix, ok := c.a.topology[f]; ok {
			topo = prefix + f.Name()
		}
	}
	if topo != "" {
		c.topology[topo] = true
	}
	for f := range st.facts {
		if f.entry {
			return
		}
	}
	msg := fmt.Sprintf("hv.%s: mutation of %s is not dominated by an enforced h.check/h.controls audit on the caller", c.decl.Name.Name, label)
	if len(c.stack) > 0 {
		names := make([]string, len(c.stack))
		for i, f := range c.stack {
			names[i] = f.name
		}
		msg += " (reached via " + strings.Join(names, " -> ") + ")"
	}
	c.report(pos, msg)
}

func (c *flow) report(pos token.Pos, msg string) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.diags = append(c.diags, Diagnostic{Pos: c.p.Fset.Position(pos), Analyzer: "privflow", Message: msg})
}

// writes is the computed summary of a method called through a state object:
// whether it, or a function of its own package it calls, writes state of a
// type that package declares. A body the walk cannot see (a package that is
// not loaded, an interface method) counts as writing.
func (a *hvAnalysis) writes(fn *types.Func) bool {
	key := funcKey(fn)
	if w, ok := a.wrote[key]; ok {
		return w
	}
	if a.busy[key] {
		a.cycles++ // recursion: the rest of the cycle decides
		return false
	}
	f := a.funcs[key]
	if f == nil || f.decl.Body == nil {
		return true
	}
	a.busy[key] = true
	cycles, w := a.cycles, false
	pkg := fn.Pkg().Path()
	ast.Inspect(f.decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, l := range v.Lhs {
				w = w || writesState(f.pkg, l, pkg)
			}
		case *ast.IncDecStmt:
			w = w || writesState(f.pkg, v.X, pkg)
		case *ast.CallExpr:
			switch callee := calleeObj(f.pkg, v).(type) {
			case *types.Builtin:
				w = w || callee.Name() == "delete" && len(v.Args) > 0 && writesState(f.pkg, v.Args[0], pkg)
			case *types.Func:
				w = w || callee.Pkg() != nil && callee.Pkg().Path() == pkg && a.writes(callee)
			}
		}
		return !w
	})
	delete(a.busy, key)
	if w || a.cycles == cycles {
		a.wrote[key] = w // a "no" that leaned on a cycle is recomputed
	}
	return w
}

// writesState reports whether a store into lhs writes state of a type
// declared in package pkg: a package-level variable, or a location reached
// through a selector, index or dereference of a value of such a type that
// is not a local copy.
func writesState(p *Package, lhs ast.Expr, pkg string) bool {
	for {
		var x ast.Expr
		switch v := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			obj, ok := p.Info.Uses[v].(*types.Var)
			return ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
		case *ast.SelectorExpr:
			x = v.X
		case *ast.IndexExpr:
			x = v.X
		case *ast.StarExpr:
			x = v.X
		default:
			return false
		}
		named := namedOf(p.Info.TypeOf(x))
		if named != nil && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == pkg && !heldByValue(p, x) {
			return true
		}
		lhs = x
	}
}

// heldByValue reports whether e is a local variable holding its own copy of
// a value, not a pointer, map or slice into shared state.
func heldByValue(p *Package, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := p.Info.Uses[id].(*types.Var)
	if !ok || v.Parent() == v.Pkg().Scope() {
		return false
	}
	switch under(v.Type()).(type) {
	case *types.Pointer, *types.Map, *types.Slice:
		return false
	}
	return true
}

func sortedKeys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
