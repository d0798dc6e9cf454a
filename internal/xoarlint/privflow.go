package xoarlint

import (
	"fmt"
	"go/ast"
	"go/token"
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
// The analysis is interprocedural over the *Hypervisor method graph: helper
// calls are inlined under the caller's fact set (so a mutation buried in
// h.destroy is checked against the audits its callers performed), and a
// helper that performs and enforces an audit itself, like h.gate, credits
// its callers once *they* enforce its result.
//
// Facts and enforcement. Calling h.check(caller, xtypes.HyperX) or
// h.controls(caller, d) establishes nothing by itself: the result must be
// acted on. A pending audit bound to an error variable becomes a fact on
// the control-flow edge where that error is nil (the `if err != nil
// { return err }` guard); a bool audit becomes a fact on the edge where it
// is true (`if !h.controls(...) { return ... }`). Branches merge by
// intersection, loops keep only entry facts, and a fact only satisfies
// dominance when the audited identifier is (bound to) one of the entry
// point's own DomID parameters — auditing a constant is still a forgotten
// audit.
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
// The same walk powers the PRIVMATRIX.json artifact (see artifact.go): per
// entry point, the specific xtypes.Hyper* privileges checked, whether
// management rights are consulted, and which state roots are mutated — the
// Go analogue of the paper's Table 3.1 per-shard whitelist surface.

func init() {
	Register(&Analyzer{
		Name: "privflow",
		Doc:  "every hv entry point taking a DomID must audit the caller, and every hv state mutation must be dominated by an enforced h.check/h.controls audit on it (flow-sensitive, interprocedural)",
		Run:  runPrivflow,
	})
}

func runPrivflow(p *Package) []Diagnostic {
	diags, _ := privflowPackage(p)
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

// hvStateObjects are *Hypervisor fields holding privileged machine state;
// any method call through them is a mutation unless listed read-only.
var hvStateObjects = map[string]bool{
	"MM":      true,
	"Grants":  true,
	"Evtchn":  true,
	"Machine": true,
}

// readOnlyStateCalls are query methods on state objects (and on
// Domain.Mem) that observe without mutating.
var readOnlyStateCalls = map[string]bool{
	"Devices":    true,
	"AssignedTo": true,
	"Snapshot":   true,
	"DirtyPages": true,
	"Read":       true,
	"Pages":      true,
	"FreeMB":     true,
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

// hvMethod is one method on *hv.Hypervisor, with its xtypes.DomID
// parameters.
type hvMethod struct {
	fn   *ast.FuncDecl
	recv string
	dom  map[string]bool
}

// receiverName returns the receiver identifier of a method on *typeName (or
// typeName), or "" if the receiver is a different type or anonymous.
func receiverName(fn *ast.FuncDecl, typeName string) string {
	if len(fn.Recv.List) != 1 {
		return ""
	}
	field := fn.Recv.List[0]
	t := field.Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	if !ok || id.Name != typeName {
		return ""
	}
	if len(field.Names) != 1 {
		return ""
	}
	return field.Names[0].Name
}

// domIDParams returns the names of the parameters in params typed
// xtypes.DomID.
func domIDParams(p *Package, params *ast.FieldList) map[string]bool {
	out := map[string]bool{}
	if params == nil {
		return out
	}
	for _, field := range params.List {
		sel, ok := field.Type.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "DomID" {
			continue
		}
		x, ok := sel.X.(*ast.Ident)
		if !ok || p.pkgPathOf(x) != "xoar/internal/xtypes" {
			continue
		}
		for _, n := range field.Names {
			out[n.Name] = true
		}
	}
	return out
}

// hypervisorMethods collects every non-test *Hypervisor method of the
// package, keyed by name — the node set of the privilege-flow call graph.
func hypervisorMethods(p *Package) map[string]*hvMethod {
	out := map[string]*hvMethod{}
	for _, f := range p.Files {
		if p.Test[f] {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil {
				continue
			}
			recv := receiverName(fn, "Hypervisor")
			if recv == "" {
				continue
			}
			out[fn.Name.Name] = &hvMethod{fn: fn, recv: recv, dom: domIDParams(p, fn.Type.Params)}
		}
	}
	return out
}

// privflowPackage analyzes every hypercall entry point of the hv package,
// returning the diagnostics and the privilege-matrix rows. Entry points are
// exported *Hypervisor methods taking at least one caller DomID; the exempt
// ones get a matrix row carrying their rationale and no analysis.
func privflowPackage(p *Package) ([]Diagnostic, []PrivEntry) {
	if p.Path != hvPath {
		return nil, nil
	}
	methods := hypervisorMethods(p)
	var names []string
	for name, m := range methods {
		if m.fn.Name.IsExported() && len(m.dom) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var diags []Diagnostic
	var entries []PrivEntry
	for _, name := range names {
		if why, ok := exemptEntries[name]; ok {
			entries = append(entries, PrivEntry{Method: name, Exempt: why})
			continue
		}
		m := methods[name]
		c := &flow{
			p:        p,
			methods:  methods,
			entry:    name,
			reported: map[string]bool{},
			privs:    map[string]bool{},
			mutates:  map[string]bool{},
		}
		fr := &frame{m: m, binding: map[string]bool{}, hc: map[string]string{}, fns: map[string]fnVal{}}
		for pn := range m.dom {
			fr.binding[pn] = true
		}
		c.stmts(fr, newFlowState(), m.fn.Body.List)
		if len(c.privs) == 0 && !c.controls {
			c.report(m.fn.Name.Pos(), fmt.Sprintf("hv.%s takes a caller DomID but never audits it with %s.check or %s.controls",
				name, m.recv, m.recv))
		}
		diags = append(diags, c.diags...)
		entries = append(entries, PrivEntry{
			Method:     name,
			Privileges: sortedKeys(c.privs),
			Controls:   c.controls,
			Mutates:    sortedKeys(c.mutates),
		})
	}
	return diags, entries
}

// fact is one established audit: past this program point the caller has
// been verified against a specific privilege (kind "priv") or against
// management rights over a target (kind "controls"). entry records whether
// the audited identifier is bound to one of the entry point's own DomID
// parameters; only entry facts satisfy dominance.
type fact struct {
	kind  string // "priv" or "controls"
	priv  string // xtypes constant name, kind=="priv" only
	dom   string // audited identifier, frame-local
	entry bool
}

func (f fact) key() string { return f.kind + ":" + f.priv + ":" + f.dom }

// pend holds audit facts awaiting enforcement, bound to the variable the
// audit's verdict was assigned to. boolPol facts hold where the variable is
// true (h.controls); otherwise where it is nil (error results).
type pend struct {
	facts   []fact
	boolPol bool
}

// flowState is the dataflow value: established facts plus pending audits.
type flowState struct {
	facts   map[string]fact
	pending map[string]pend
}

func newFlowState() *flowState {
	return &flowState{facts: map[string]fact{}, pending: map[string]pend{}}
}

func (s *flowState) clone() *flowState {
	out := newFlowState()
	for k, f := range s.facts {
		out.facts[k] = f
	}
	for k, p := range s.pending {
		out.pending[k] = p
	}
	return out
}

func (s *flowState) add(fs ...fact) *flowState {
	for _, f := range fs {
		s.facts[f.key()] = f
	}
	return s
}

// intersectStates merges two branch outcomes: only facts established on
// both paths survive.
func intersectStates(a, b *flowState) *flowState {
	out := newFlowState()
	for k, f := range a.facts {
		if _, ok := b.facts[k]; ok {
			out.facts[k] = f
		}
	}
	for k, p := range a.pending {
		if _, ok := b.pending[k]; ok {
			out.pending[k] = p
		}
	}
	return out
}

// evalRes is the audit outcome of evaluating an expression: facts that
// become pending on whatever variable the result lands in.
type evalRes struct {
	facts   []fact
	boolPol bool
}

// frame is one (possibly inlined) method activation: binding maps the
// method's DomID parameters to whether they carry an entry-point caller;
// hc maps parameters through which the call site passed a specific
// xtypes.Hyper* constant (so h.gate(caller, xtypes.HyperX, target) audits
// a statically known privilege inside the helper too); fns maps local
// variables bound to function values (literals or method values), so a
// later f() is analyzed at its call site.
type frame struct {
	m       *hvMethod
	binding map[string]bool
	hc      map[string]string
	fns     map[string]fnVal
}

// fnVal is a function value a local variable is bound to.
type fnVal struct {
	lit    *ast.FuncLit // f := func(...){...}
	method *hvMethod    // f := h.reap
}

// flow analyzes one entry point.
type flow struct {
	p        *Package
	methods  map[string]*hvMethod
	entry    string
	diags    []Diagnostic
	reported map[string]bool
	privs    map[string]bool
	controls bool
	mutates  map[string]bool
	stack    []string // inlined helper chain, for cycle guard and messages
}

// --- statement walk ----------------------------------------------------------

// stmts walks a statement list, threading the dataflow state; the bool
// reports whether the list terminates (return/panic/branch) on every path
// that reaches its end.
func (c *flow) stmts(fr *frame, st *flowState, list []ast.Stmt) (*flowState, bool) {
	for _, s := range list {
		var term bool
		st, term = c.stmt(fr, st, s)
		if term {
			return st, true
		}
	}
	return st, false
}

func (c *flow) stmt(fr *frame, st *flowState, s ast.Stmt) (*flowState, bool) {
	switch v := s.(type) {
	case *ast.ReturnStmt:
		for _, r := range v.Results {
			c.expr(fr, st, r)
		}
		return st, true
	case *ast.BranchStmt:
		return st, true
	case *ast.ExprStmt:
		if call, ok := v.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				for _, a := range call.Args {
					c.expr(fr, st, a)
				}
				return st, true
			}
		}
		// An audit whose result is discarded establishes nothing.
		c.expr(fr, st, v.X)
		return st, false
	case *ast.AssignStmt:
		return c.assign(fr, st, v), false
	case *ast.IncDecStmt:
		c.lvalue(fr, st, v.X)
		return st, false
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if len(vs.Names) == len(vs.Values) && c.bindFns(fr, vs.Names, vs.Values) {
					continue
				}
				var res *evalRes
				for _, val := range vs.Values {
					if r := c.expr(fr, st, val); r != nil {
						res = r
					}
				}
				var names []string
				for _, n := range vs.Names {
					delete(st.pending, n.Name)
					names = append(names, n.Name)
				}
				c.attach(st, names, res)
			}
		}
		return st, false
	case *ast.IfStmt:
		return c.ifStmt(fr, st, v)
	case *ast.BlockStmt:
		return c.stmts(fr, st, v.List)
	case *ast.ForStmt:
		if v.Init != nil {
			st, _ = c.stmt(fr, st, v.Init)
		}
		body := st.clone()
		if v.Cond != nil {
			pos, _ := c.cond(fr, body, v.Cond)
			body.add(pos...)
		}
		out, _ := c.stmts(fr, body, v.Body.List)
		if v.Post != nil {
			c.stmt(fr, out, v.Post)
		}
		return st, false // the body may run zero times: keep entry facts only
	case *ast.RangeStmt:
		c.expr(fr, st, v.X)
		body := st.clone()
		for _, e := range []ast.Expr{v.Key, v.Value} {
			if id, ok := e.(*ast.Ident); ok {
				delete(body.pending, id.Name)
			}
		}
		c.stmts(fr, body, v.Body.List)
		return st, false
	case *ast.SwitchStmt:
		if v.Init != nil {
			st, _ = c.stmt(fr, st, v.Init)
		}
		if v.Tag != nil {
			c.expr(fr, st, v.Tag)
		}
		return c.caseClauses(fr, st, v.Body.List)
	case *ast.TypeSwitchStmt:
		if v.Init != nil {
			st, _ = c.stmt(fr, st, v.Init)
		}
		return c.caseClauses(fr, st, v.Body.List)
	case *ast.SelectStmt:
		for _, cl := range v.Body.List {
			if comm, ok := cl.(*ast.CommClause); ok {
				c.stmts(fr, st.clone(), comm.Body)
			}
		}
		return st, false
	case *ast.DeferStmt:
		c.expr(fr, st, v.Call)
		return st, false
	case *ast.GoStmt:
		c.expr(fr, st, v.Call)
		return st, false
	case *ast.SendStmt:
		c.expr(fr, st, v.Chan)
		c.expr(fr, st, v.Value)
		return st, false
	case *ast.LabeledStmt:
		return c.stmt(fr, st, v.Stmt)
	}
	return st, false
}

// caseClauses walks switch bodies: each case starts from the pre-switch
// state and none of its facts escape (the matched case is unknown).
func (c *flow) caseClauses(fr *frame, st *flowState, clauses []ast.Stmt) (*flowState, bool) {
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
			c.expr(fr, st, e)
		}
		if _, term := c.stmts(fr, st.clone(), cl.Body); !term {
			allTerm = false
		}
	}
	return st, hasDefault && allTerm
}

// assign processes RHS audits/mutations, LHS mutations, and rebinds pending
// audits to the variables their verdicts were assigned to. A function value
// assigned to a plain local is *bound*, not escaped — its body is analyzed
// when (and where) the local is invoked.
func (c *flow) assign(fr *frame, st *flowState, v *ast.AssignStmt) *flowState {
	if len(v.Lhs) == len(v.Rhs) && c.bindFnsExpr(fr, v.Lhs, v.Rhs) {
		for _, l := range v.Lhs {
			if id, ok := l.(*ast.Ident); ok {
				delete(st.pending, id.Name)
			}
		}
		return st
	}
	var res *evalRes
	for _, r := range v.Rhs {
		if rr := c.expr(fr, st, r); rr != nil {
			res = rr
		}
	}
	var names []string
	for _, l := range v.Lhs {
		if id, ok := l.(*ast.Ident); ok {
			delete(st.pending, id.Name) // reassignment invalidates the old verdict
			names = append(names, id.Name)
		} else {
			c.lvalue(fr, st, l)
			names = append(names, "")
		}
	}
	c.attach(st, names, res)
	return st
}

// attach binds an audit result to its destination variable: the sole
// variable for bool audits, the last one for error-style results (Go's
// error-last convention).
func (c *flow) attach(st *flowState, names []string, res *evalRes) {
	if res == nil || len(res.facts) == 0 || len(names) == 0 {
		return
	}
	target := names[len(names)-1]
	if res.boolPol && len(names) != 1 {
		return
	}
	if target == "" || target == "_" {
		return
	}
	st.pending[target] = pend{facts: res.facts, boolPol: res.boolPol}
}

// ifStmt is where pending audits become facts: on the branch edge that
// proves enforcement (err == nil, controls == true), and on the
// fall-through edge when the failure branch terminates.
func (c *flow) ifStmt(fr *frame, st *flowState, v *ast.IfStmt) (*flowState, bool) {
	if v.Init != nil {
		st, _ = c.stmt(fr, st, v.Init)
	}
	pos, neg := c.cond(fr, st, v.Cond)
	bOut, bTerm := c.stmts(fr, st.clone().add(pos...), v.Body.List)
	if v.Else == nil {
		skip := st.clone().add(neg...)
		if bTerm {
			return skip, false
		}
		return intersectStates(bOut, skip), false
	}
	elseSt := st.clone().add(neg...)
	var eOut *flowState
	var eTerm bool
	switch e := v.Else.(type) {
	case *ast.BlockStmt:
		eOut, eTerm = c.stmts(fr, elseSt, e.List)
	case *ast.IfStmt:
		eOut, eTerm = c.ifStmt(fr, elseSt, e)
	default:
		eOut = elseSt
	}
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
func (c *flow) cond(fr *frame, st *flowState, e ast.Expr) (pos, neg []fact) {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return c.cond(fr, st, v.X)
	case *ast.UnaryExpr:
		if v.Op == token.NOT {
			p, n := c.cond(fr, st, v.X)
			return n, p
		}
	case *ast.BinaryExpr:
		switch v.Op {
		case token.LAND:
			p1, _ := c.cond(fr, st, v.X)
			p2, _ := c.cond(fr, st, v.Y)
			return append(p1, p2...), nil // which conjunct failed is unknown
		case token.LOR:
			_, n1 := c.cond(fr, st, v.X)
			_, n2 := c.cond(fr, st, v.Y)
			return nil, append(n1, n2...)
		case token.EQL, token.NEQ:
			if isNilExpr(v.Y) {
				if res := c.valueRes(fr, st, v.X); res != nil && !res.boolPol {
					if v.Op == token.EQL {
						return res.facts, nil // err == nil: audit passed
					}
					return nil, res.facts // err != nil: failure edge
				}
				return nil, nil
			}
			c.expr(fr, st, v.X)
			c.expr(fr, st, v.Y)
			return nil, nil
		}
	case *ast.Ident:
		if pe, ok := st.pending[v.Name]; ok && pe.boolPol {
			return pe.facts, nil
		}
		return nil, nil
	case *ast.CallExpr:
		if res := c.expr(fr, st, v); res != nil && res.boolPol {
			return res.facts, nil
		}
		return nil, nil
	}
	c.expr(fr, st, e)
	return nil, nil
}

// valueRes resolves a condition operand to its pending audit, evaluating
// calls in place (`if h.requirePriv(caller, X) != nil`).
func (c *flow) valueRes(fr *frame, st *flowState, e ast.Expr) *evalRes {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return c.valueRes(fr, st, v.X)
	case *ast.Ident:
		if pe, ok := st.pending[v.Name]; ok {
			return &evalRes{facts: pe.facts, boolPol: pe.boolPol}
		}
	case *ast.CallExpr:
		return c.expr(fr, st, v)
	}
	return nil
}

func isNilExpr(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// --- expression walk ---------------------------------------------------------

// expr walks an expression for audits, helper calls and mutations,
// returning the audit result of the outermost call, if any.
func (c *flow) expr(fr *frame, st *flowState, e ast.Expr) *evalRes {
	switch v := e.(type) {
	case nil:
		return nil
	case *ast.CallExpr:
		for _, a := range v.Args {
			c.expr(fr, st, a)
		}
		return c.call(fr, st, v)
	case *ast.ParenExpr:
		return c.expr(fr, st, v.X)
	case *ast.UnaryExpr:
		return c.expr(fr, st, v.X)
	case *ast.StarExpr:
		return c.expr(fr, st, v.X)
	case *ast.BinaryExpr:
		c.expr(fr, st, v.X)
		c.expr(fr, st, v.Y)
	case *ast.KeyValueExpr:
		c.expr(fr, st, v.Value)
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			c.expr(fr, st, el)
		}
	case *ast.IndexExpr:
		c.expr(fr, st, v.X)
		c.expr(fr, st, v.Index)
	case *ast.SliceExpr:
		c.expr(fr, st, v.X)
		c.expr(fr, st, v.Low)
		c.expr(fr, st, v.High)
		c.expr(fr, st, v.Max)
	case *ast.SelectorExpr:
		// A method read as a value (h.reap passed to a registry) escapes:
		// it runs later, outside the facts established here.
		if m := c.methodValue(fr, v); m != nil {
			c.escapedMethod(fr, m)
			return nil
		}
		c.expr(fr, st, v.X)
	case *ast.TypeAssertExpr:
		c.expr(fr, st, v.X)
	case *ast.FuncLit:
		// A literal in value position escapes (stored into a field or
		// registry, passed along, returned).
		c.escapedLit(fr, v)
	case *ast.Ident:
		// A bound function value escaping by name: analyze its target as
		// deferred, like the direct escape forms above.
		if fn, ok := fr.fns[v.Name]; ok {
			if fn.lit != nil {
				c.escapedLit(fr, fn.lit)
			} else if fn.method != nil {
				c.escapedMethod(fr, fn.method)
			}
		}
	}
	return nil
}

// methodValue resolves a selector in value position to a *Hypervisor method
// it names (h.reap without the call), or nil.
func (c *flow) methodValue(fr *frame, sel *ast.SelectorExpr) *hvMethod {
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != fr.m.recv {
		return nil
	}
	return c.methods[sel.Sel.Name]
}

// bindFns records function-value bindings for a declaration's name/value
// pairs; true when every pair bound (so the caller skips the normal walk).
func (c *flow) bindFns(fr *frame, names []*ast.Ident, values []ast.Expr) bool {
	vals := make([]fnVal, len(values))
	for i, val := range values {
		fn, ok := c.fnValue(fr, val)
		if !ok {
			return false
		}
		vals[i] = fn
	}
	for i, n := range names {
		if n.Name != "_" {
			fr.fns[n.Name] = vals[i]
		}
	}
	return true
}

// bindFnsExpr is bindFns for assignment statements.
func (c *flow) bindFnsExpr(fr *frame, lhs, rhs []ast.Expr) bool {
	names := make([]*ast.Ident, len(lhs))
	for i, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			return false
		}
		names[i] = id
	}
	return c.bindFns(fr, names, rhs)
}

// fnValue resolves an expression to a bindable function value.
func (c *flow) fnValue(fr *frame, e ast.Expr) (fnVal, bool) {
	switch v := e.(type) {
	case *ast.FuncLit:
		return fnVal{lit: v}, true
	case *ast.SelectorExpr:
		if m := c.methodValue(fr, v); m != nil {
			return fnVal{method: m}, true
		}
	case *ast.Ident:
		if fn, ok := fr.fns[v.Name]; ok {
			return fn, true
		}
	}
	return fnVal{}, false
}

// call dispatches one call expression: audit primitives, helper methods
// (inlined), bound function values and immediately invoked literals
// (analyzed at the call site), builtin delete, and mutating calls through
// state objects.
func (c *flow) call(fr *frame, st *flowState, v *ast.CallExpr) *evalRes {
	switch fun := v.Fun.(type) {
	case *ast.FuncLit:
		// Immediately invoked literal: runs here, under the current facts.
		return c.inlineLit(fr, st, fun, v.Args)
	case *ast.Ident:
		if fn, ok := fr.fns[fun.Name]; ok {
			if fn.lit != nil {
				return c.inlineLit(fr, st, fn.lit, v.Args)
			}
			return c.inline(fr, st, fn.method, v.Args)
		}
		if fun.Name == "delete" && len(v.Args) > 0 {
			c.lvalue(fr, st, v.Args[0])
		}
		return nil
	case *ast.SelectorExpr:
		chain, ok := flattenChain(fun)
		if !ok {
			// Call on a computed receiver (d.Mem.Snapshot().Pages()):
			// the inner chain was already walked via the args/X recursion.
			c.expr(fr, st, fun.X)
			return nil
		}
		if chain[0] == fr.m.recv {
			return c.recvCall(fr, st, v, chain)
		}
		if len(chain) >= 3 && chain[1] == "Mem" && !readOnlyStateCalls[chain[len(chain)-1]] {
			c.mutation(v.Pos(), "Domain.Mem", st)
		}
		return nil
	}
	return nil
}

// recvCall handles calls rooted at the Hypervisor receiver.
func (c *flow) recvCall(fr *frame, st *flowState, v *ast.CallExpr, chain []string) *evalRes {
	if len(chain) == 2 {
		switch chain[1] {
		case "check":
			return c.auditCheck(fr, v)
		case "controls":
			return c.auditControls(fr, v)
		}
		if m, ok := c.methods[chain[1]]; ok {
			return c.inline(fr, st, m, v.Args)
		}
		return nil // func-typed field (h.Sink, h.Fault)
	}
	root := chain[1]
	if hvStateObjects[root] && !readOnlyStateCalls[chain[len(chain)-1]] {
		label := root
		if root == "Machine" {
			label = "Machine.Bus"
		}
		c.mutation(v.Pos(), label, st)
	}
	return nil
}

// auditCheck models h.check(caller, xtypes.HyperX): a pending privilege
// fact, error polarity. A privilege argument that is not a specific
// xtypes.Hyper* constant defeats static whitelist review and is flagged.
func (c *flow) auditCheck(fr *frame, v *ast.CallExpr) *evalRes {
	if len(v.Args) != 2 {
		return nil
	}
	priv := c.hyperConstOrBound(fr, v.Args[1])
	if priv == "" {
		c.report(v.Pos(), fmt.Sprintf(
			"hv.%s: %s.check must name a specific xtypes.Hyper* constant so the whitelist surface stays statically auditable",
			c.entry, fr.m.recv))
		return nil
	}
	dom, entry := c.domArg(fr, v.Args[0])
	if entry {
		c.privs[priv] = true
	}
	return &evalRes{facts: []fact{{kind: "priv", priv: priv, dom: dom, entry: entry}}}
}

// auditControls models h.controls(caller, target): a pending management
// fact, bool polarity.
func (c *flow) auditControls(fr *frame, v *ast.CallExpr) *evalRes {
	if len(v.Args) != 2 {
		return nil
	}
	dom, entry := c.domArg(fr, v.Args[0])
	if entry {
		c.controls = true
	}
	return &evalRes{facts: []fact{{kind: "controls", dom: dom, entry: entry}}, boolPol: true}
}

// hyperConstOrBound resolves an expression to the name of an
// xtypes.Hyper* constant — directly, or through a helper parameter the
// current call chain bound a constant to.
func (c *flow) hyperConstOrBound(fr *frame, e ast.Expr) string {
	if pc := c.hyperConst(fr, e); pc != "" {
		return pc
	}
	if id, ok := e.(*ast.Ident); ok {
		return fr.hc[id.Name]
	}
	return ""
}

// hyperConst resolves an expression to the name of an xtypes.Hyper*
// constant, or "".
func (c *flow) hyperConst(fr *frame, e ast.Expr) string {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok || c.p.pkgPathOf(x) != "xoar/internal/xtypes" {
		return ""
	}
	if !strings.HasPrefix(sel.Sel.Name, "Hyper") {
		return ""
	}
	return sel.Sel.Name
}

func (c *flow) domArg(fr *frame, e ast.Expr) (string, bool) {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name, fr.binding[id.Name]
	}
	return "", false
}

// inline analyzes a helper method at this call site: its mutations are
// checked under the caller's current facts (context sensitivity), and any
// facts the helper itself establishes and enforces internally are handed
// back as a pending audit for the caller to enforce — this is what credits
// audit helpers like h.gate.
func (c *flow) inline(fr *frame, st *flowState, m *hvMethod, args []ast.Expr) *evalRes {
	name := m.fn.Name.Name
	for _, s := range c.stack {
		if s == name {
			return nil // recursion: stop, keep caller facts
		}
	}
	if len(c.stack) >= 8 {
		return nil
	}
	c.stack = append(c.stack, name)
	defer func() { c.stack = c.stack[:len(c.stack)-1] }()

	binding := map[string]bool{}
	hcb := map[string]string{}
	i := 0
	for _, field := range m.fn.Type.Params.List {
		for _, pname := range field.Names {
			if i < len(args) {
				if m.dom[pname.Name] {
					if id, ok := args[i].(*ast.Ident); ok {
						binding[pname.Name] = fr.binding[id.Name]
					}
				}
				if pc := c.hyperConstOrBound(fr, args[i]); pc != "" {
					hcb[pname.Name] = pc
				}
			}
			i++
		}
	}
	sub := newFlowState()
	for k, f := range st.facts {
		sub.facts[k] = f
	}
	out, _ := c.stmts(&frame{m: m, binding: binding, hc: hcb, fns: map[string]fnVal{}}, sub, m.fn.Body.List)
	var fs []fact
	for k, f := range out.facts {
		if _, had := st.facts[k]; !had {
			fs = append(fs, f)
		}
	}
	if len(fs) == 0 {
		return nil
	}
	boolPol, ok := resultPolarity(m.fn)
	if !ok {
		return nil // no error/bool result: the caller cannot enforce it
	}
	return &evalRes{facts: fs, boolPol: boolPol}
}

// inlineLit analyzes a function literal invoked at this program point
// (immediately invoked, or called through the local it was bound to): its
// body runs here, so mutations are checked under the caller's current
// facts. Captured bindings carry over; the literal's own DomID parameters
// bind to whatever the call site passed.
func (c *flow) inlineLit(fr *frame, st *flowState, lit *ast.FuncLit, args []ast.Expr) *evalRes {
	marker := c.litMarker(lit)
	for _, s := range c.stack {
		if s == marker || s == "stored "+marker {
			return nil // self-recursive bound literal: stop
		}
	}
	if len(c.stack) >= 8 {
		return nil
	}
	c.stack = append(c.stack, marker)
	defer func() { c.stack = c.stack[:len(c.stack)-1] }()

	sub := c.litFrame(fr, lit)
	i := 0
	if lit.Type.Params != nil {
		dom := domIDParams(c.p, lit.Type.Params)
		for _, field := range lit.Type.Params.List {
			for _, pname := range field.Names {
				if i < len(args) {
					if dom[pname.Name] {
						if id, ok := args[i].(*ast.Ident); ok {
							sub.binding[pname.Name] = fr.binding[id.Name]
						} else {
							sub.binding[pname.Name] = false
						}
					}
					if pc := c.hyperConstOrBound(fr, args[i]); pc != "" {
						sub.hc[pname.Name] = pc
					}
				}
				i++
			}
		}
	}
	c.stmts(sub, st.clone(), lit.Body.List)
	return nil
}

// escapedLit analyzes a function literal that escapes the current flow: it
// will run at some later, unknown point, so no fact established here
// dominates its body. Its own DomID parameters are entry-bound — they are
// the caller identity the callback receives, and an audit inside the
// closure against them is the legitimate deferred guard.
func (c *flow) escapedLit(fr *frame, lit *ast.FuncLit) {
	marker := c.litMarker(lit)
	for _, s := range c.stack {
		if s == marker || s == "stored "+marker {
			return
		}
	}
	if len(c.stack) >= 8 {
		return
	}
	c.stack = append(c.stack, "stored "+marker)
	defer func() { c.stack = c.stack[:len(c.stack)-1] }()

	sub := c.litFrame(fr, lit)
	for pn := range domIDParams(c.p, lit.Type.Params) {
		sub.binding[pn] = true
	}
	c.stmts(sub, newFlowState(), lit.Body.List)
}

// escapedMethod analyzes a method value that escapes (h.reap handed to a
// registry): like escapedLit, under empty facts with its own DomID
// parameters entry-bound.
func (c *flow) escapedMethod(fr *frame, m *hvMethod) {
	name := m.fn.Name.Name
	for _, s := range c.stack {
		if s == name {
			return
		}
	}
	if len(c.stack) >= 8 {
		return
	}
	c.stack = append(c.stack, name)
	defer func() { c.stack = c.stack[:len(c.stack)-1] }()

	binding := map[string]bool{}
	for pn := range m.dom {
		binding[pn] = true
	}
	c.stmts(&frame{m: m, binding: binding, hc: map[string]string{}, fns: map[string]fnVal{}}, newFlowState(), m.fn.Body.List)
}

// litFrame builds the activation frame for a function literal: same method
// context (receiver name, file), captured bindings and function values
// copied from the enclosing frame.
func (c *flow) litFrame(fr *frame, lit *ast.FuncLit) *frame {
	sub := &frame{m: fr.m, binding: map[string]bool{}, hc: map[string]string{}, fns: map[string]fnVal{}}
	for k, v := range fr.binding {
		sub.binding[k] = v
	}
	for k, v := range fr.hc {
		sub.hc[k] = v
	}
	for k, v := range fr.fns {
		sub.fns[k] = v
	}
	return sub
}

// litMarker names a literal for the inline stack (recursion guard and the
// "reached via" chain in diagnostics).
func (c *flow) litMarker(lit *ast.FuncLit) string {
	return fmt.Sprintf("func literal (line %d)", c.p.Fset.Position(lit.Pos()).Line)
}

// resultPolarity classifies a helper's enforceable result: error-last or
// single bool.
func resultPolarity(fn *ast.FuncDecl) (boolPol, ok bool) {
	rs := fn.Type.Results
	if rs == nil || len(rs.List) == 0 {
		return false, false
	}
	last := rs.List[len(rs.List)-1].Type
	id, isIdent := last.(*ast.Ident)
	if !isIdent {
		return false, false
	}
	switch id.Name {
	case "error":
		return false, true
	case "bool":
		return true, true
	}
	return false, false
}

// --- mutation detection ------------------------------------------------------

// lvalue inspects an assignment, delete or ++/-- target and records a
// mutation when it roots in hypervisor or domain privilege state.
func (c *flow) lvalue(fr *frame, st *flowState, e ast.Expr) {
	chain, ok := flattenChain(e)
	if !ok || len(chain) < 2 {
		return
	}
	if chain[0] == fr.m.recv {
		if exemptCounterFields[chain[1]] {
			return
		}
		c.mutation(e.Pos(), chain[1], st)
		return
	}
	if domainStateFields[chain[1]] {
		c.mutation(e.Pos(), "Domain."+chain[1], st)
	}
}

// mutation records a state mutation for the matrix and flags it unless an
// entry-bound audit fact dominates this program point.
func (c *flow) mutation(pos token.Pos, root string, st *flowState) {
	c.mutates[root] = true
	for _, f := range st.facts {
		if f.entry {
			return
		}
	}
	msg := fmt.Sprintf("hv.%s: mutation of %s is not dominated by an enforced h.check/h.controls audit on the caller", c.entry, root)
	if len(c.stack) > 0 {
		msg += " (reached via " + strings.Join(c.stack, " -> ") + ")"
	}
	c.report(pos, msg)
}

func (c *flow) report(pos token.Pos, msg string) {
	key := fmt.Sprintf("%d:%s", pos, c.entry)
	if c.reported[key] {
		return
	}
	c.reported[key] = true
	c.diags = append(c.diags, Diagnostic{Pos: c.p.Fset.Position(pos), Analyzer: "privflow", Message: msg})
}

// flattenChain reduces a selector/index chain to its identifier path:
// h.Machine.Bus -> [h Machine Bus]; d.priv.Hypercalls[hc] -> [d priv
// Hypercalls]. It fails when the chain roots in something other than a
// plain identifier (a call result, a composite literal).
func flattenChain(e ast.Expr) ([]string, bool) {
	var rev []string
	for {
		switch v := e.(type) {
		case *ast.Ident:
			rev = append(rev, v.Name)
			out := make([]string, len(rev))
			for i, s := range rev {
				out[len(rev)-1-i] = s
			}
			return out, true
		case *ast.SelectorExpr:
			rev = append(rev, v.Sel.Name)
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil, false
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
