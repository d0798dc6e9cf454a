package xoarlint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// errwrap protects the errors.Is contracts the platform's control flow hangs
// off. The xtypes.Err* sentinels are the model's errno surface: seceval's
// containment analysis matches denials with errors.Is(err, xtypes.ErrPerm),
// and the restart engine distinguishes ErrShutdown/ErrNoMicroreboot the same
// way. A fmt.Errorf that embeds a sentinel with %v or %s instead of %w
// silently severs that chain — every errors.Is downstream turns false and a
// denial test starts passing for the wrong reason. errwrap flags any
// fmt.Errorf call whose argument list contains an xtypes.Err* sentinel not
// matched to a %w verb.
//
// Inside internal/hv it also keeps the denial counter honest: a fmt.Errorf
// wrapping a denial sentinel (the set xtypes.IsDenial matches) must be the
// direct argument of (*Hypervisor).deny, the one place DeniedCalls is
// counted. A refusal built anywhere else is a silent denial.

func init() {
	Register(&Analyzer{
		Name: "errwrap",
		Doc:  "xtypes.Err* sentinels passed to fmt.Errorf must be wrapped with %w so errors.Is keeps working; in hv, denial wraps must go straight to h.deny",
		Run:  runErrwrap,
	})
}

// denialSentinels are the xtypes sentinels xtypes.IsDenial matches.
var denialSentinels = map[string]bool{"ErrPerm": true, "ErrNotShard": true, "ErrNotDelegated": true}

func runErrwrap(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		countsDenials := p.Path == hvPath && !p.Test[f]
		denied := map[ast.Expr]bool{} // arguments of (*Hypervisor).deny calls
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if countsDenials && isDenyCall(p, call) {
				for _, a := range call.Args {
					denied[a] = true
				}
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Errorf" {
				return true
			}
			x, ok := sel.X.(*ast.Ident)
			if !ok || p.pkgPathOf(x) != "fmt" {
				return true
			}
			if len(call.Args) < 2 {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok {
				return true // non-literal format: out of scope
			}
			format, err := strconv.Unquote(lit.Value)
			if err != nil || strings.Contains(format, "%[") {
				return true // indexed verbs: out of scope
			}
			verbs := formatVerbs(format)
			for i, arg := range call.Args[1:] {
				name := sentinelName(p, arg)
				if name == "" {
					continue
				}
				if i >= len(verbs) || verbs[i] != 'w' {
					diags = append(diags, Diagnostic{
						Pos:      p.Fset.Position(arg.Pos()),
						Analyzer: "errwrap",
						Message: fmt.Sprintf("xtypes.%s must be wrapped with %%w (not %%%s) so errors.Is sees it",
							name, verbAt(verbs, i)),
					})
				} else if countsDenials && denialSentinels[name] && !denied[call] {
					diags = append(diags, Diagnostic{
						Pos:      p.Fset.Position(call.Pos()),
						Analyzer: "errwrap",
						Message: fmt.Sprintf("hv refusal wrapping xtypes.%s must be the direct argument of h.deny, which counts it in DeniedCalls",
							name),
					})
				}
			}
			return true
		})
	}
	return diags
}

// isDenyCall reports whether call invokes (*hv.Hypervisor).deny.
func isDenyCall(p *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s := p.Info.Selections[sel]
	return s != nil && s.Kind() == types.MethodVal && s.Obj().(*types.Func).FullName() == "(*"+hvPath+".Hypervisor).deny"
}

// sentinelName returns the Err* name if arg is a selector for an
// xoar/internal/xtypes sentinel, else "".
func sentinelName(p *Package, arg ast.Expr) string {
	sel, ok := arg.(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "Err") {
		return ""
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok || p.pkgPathOf(x) != "xoar/internal/xtypes" {
		return ""
	}
	return sel.Sel.Name
}

// formatVerbs returns the verb letter for each consumed argument, in order.
// Width/precision stars consume an argument slot and are recorded as '*'.
func formatVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i < len(format) && format[i] == '%' {
			continue
		}
		// flags, width, precision
		for i < len(format) {
			c := format[i]
			if c == '*' {
				verbs = append(verbs, '*')
				i++
				continue
			}
			if c == '+' || c == '-' || c == '#' || c == ' ' || c == '0' || c == '.' || (c >= '0' && c <= '9') {
				i++
				continue
			}
			break
		}
		if i < len(format) {
			verbs = append(verbs, format[i])
		}
	}
	return verbs
}

func verbAt(verbs []byte, i int) string {
	if i >= len(verbs) {
		return "<missing verb>"
	}
	return string(verbs[i])
}
