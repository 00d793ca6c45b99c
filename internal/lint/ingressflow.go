package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// IngressFlow makes the PR 3 trust boundary a compile-time rule: every
// value produced by an internal/wire decode function is untrusted and
// must flow through the internal/validate screen (Validator.AdmitBatch)
// before it reaches a protocol machine — a Deliver/Step method on any
// sim.Machine implementation, or a call through the interface itself.
//
// The analysis is object-level taint with screen dominance: a decode
// result taints the variables it flows into through assignments,
// composite literals, appends, indexing and range; the taint is NOT
// propagated by a statement when every tainted variable it mentions is
// dominated by an AdmitBatch call screening that same variable — which
// is exactly the transport receive loop's shape, where the admitted
// payloads are appended to the inbox under the screen. Function results
// built from unscreened decode output carry the taint to callers via
// summaries, so the rule holds across helper boundaries.
//
// Attacker harnesses and tests that replay raw bytes on purpose opt
// out with //lint:trusted on the sink line or the enclosing function.
var IngressFlow = &Analyzer{
	Name: "ingressflow",
	Doc: "wire-decoded values are untrusted and must pass validate.AdmitBatch " +
		"before reaching a Machine Deliver/Step; annotate deliberate " +
		"bypasses (attacker/test code) with //lint:trusted",
	RunModule: runIngressFlow,
}

func runIngressFlow(mp *ModulePass) error {
	var machineIface *types.Interface
	for _, path := range []string{"proxcensus/internal/sim"} {
		if t := mp.LookupType(path, "Machine"); t != nil {
			machineIface, _ = t.Underlying().(*types.Interface)
		}
	}
	if machineIface == nil {
		return nil // no protocol machines in this load
	}
	fl := &ingressFlow{mp: mp, machine: machineIface, summaries: make(map[*types.Func]resultMask)}
	// Module fixpoint over taint summaries: a helper returning raw
	// decode output taints its callers' variables.
	for changed := true; changed; {
		changed = false
		for _, fb := range mp.Funcs() {
			if fl.analyze(fb, false) {
				changed = true
			}
		}
	}
	for _, fb := range mp.Funcs() {
		fl.analyze(fb, true)
	}
	return nil
}

// resultMask marks which results of a function carry unscreened decode
// output (bit i = result i).
type resultMask uint32

type ingressFlow struct {
	mp        *ModulePass
	machine   *types.Interface
	summaries map[*types.Func]resultMask
}

// isSource reports whether fn is a wire decode entry point.
func isSource(fn *types.Func) bool {
	return fn != nil &&
		strings.HasSuffix(pkgPathOf(fn), "internal/wire") &&
		strings.HasPrefix(fn.Name(), "Decode")
}

// isScreen reports whether fn is the validate admission check,
// AdmitBatch. DecodeOnly is NOT a screen: it only checks that bytes
// parsed.
func isScreen(fn *types.Func) bool {
	return fn != nil &&
		strings.HasSuffix(pkgPathOf(fn), "internal/validate") &&
		fn.Name() == "AdmitBatch"
}

// sourceMask returns the tainted results of a source call: everything
// that is not the error.
func sourceMask(fn *types.Func) resultMask {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return 0
	}
	var mask resultMask
	for i := 0; i < sig.Results().Len(); i++ {
		if !isErrorType(sig.Results().At(i).Type()) {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// ifState is the per-function analysis state.
type ifState struct {
	fl      *ingressFlow
	fb      *FuncBody
	info    *types.Info
	tainted map[types.Object]bool
	// screens are the AdmitBatch call sites with the objects they screen.
	screens []screenSite
}

type screenSite struct {
	pos  token.Pos
	objs map[types.Object]bool
}

// analyze runs the intraprocedural taint pass over fb. In summary mode
// it returns whether fb's result mask changed; in report mode it emits
// diagnostics at unscreened sinks.
func (fl *ingressFlow) analyze(fb *FuncBody, report bool) bool {
	st := &ifState{fl: fl, fb: fb, info: fb.Pkg.Info, tainted: make(map[types.Object]bool)}
	st.collectScreens()

	// Taint propagation to fixpoint.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fb.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if st.propagateAssign(n) {
					changed = true
				}
			case *ast.GenDecl:
				if st.propagateDecl(n) {
					changed = true
				}
			case *ast.RangeStmt:
				if st.propagateRange(n) {
					changed = true
				}
			}
			return true
		})
	}

	if report {
		st.reportSinks()
		return false
	}
	mask := st.resultSummary()
	changed := fl.summaries[fb.Fn] != mask
	fl.summaries[fb.Fn] = mask
	return changed
}

// collectScreens indexes the AdmitBatch call sites and the local objects
// their arguments mention.
func (st *ifState) collectScreens() {
	ast.Inspect(st.fb.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isScreen(calleeFunc(st.info, call)) {
			return true
		}
		objs := make(map[types.Object]bool)
		for _, arg := range call.Args {
			for _, o := range st.rootObjects(arg) {
				objs[o] = true
			}
		}
		st.screens = append(st.screens, screenSite{pos: call.Pos(), objs: objs})
		return true
	})
}

// rootObjects returns the local variables an expression reads.
func (st *ifState) rootObjects(e ast.Expr) []types.Object {
	var out []types.Object
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj, ok := st.info.Uses[id].(*types.Var); ok {
				out = append(out, obj)
			}
		}
		return true
	})
	return out
}

// screenedAt reports whether every object in roots is screened by an
// AdmitBatch call dominating pos. An empty root set (a bare decode call) can
// never be screened.
func (st *ifState) screenedAt(roots []types.Object, pos token.Pos) bool {
	if len(roots) == 0 {
		return false
	}
	g := st.fl.mp.CFG(st.fb)
	for _, o := range roots {
		ok := false
		for _, s := range st.screens {
			if s.objs[o] && g.dominates(s.pos, pos) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// taintedExpr reports whether e carries untrusted decode output, and
// the local variables that taint flows through (empty for a direct
// source call).
func (st *ifState) taintedExpr(e ast.Expr) (bool, []types.Object) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := st.objOf(e); obj != nil && st.tainted[obj] {
			return true, []types.Object{obj}
		}
	case *ast.SelectorExpr:
		// Field access on a tainted value; package-qualified names and
		// method values have no tainted base.
		if _, ok := st.info.Selections[e]; ok {
			return st.taintedExpr(e.X)
		}
	case *ast.IndexExpr:
		return st.taintedExpr(e.X)
	case *ast.SliceExpr:
		return st.taintedExpr(e.X)
	case *ast.StarExpr:
		return st.taintedExpr(e.X)
	case *ast.UnaryExpr:
		return st.taintedExpr(e.X)
	case *ast.TypeAssertExpr:
		return st.taintedExpr(e.X)
	case *ast.CompositeLit:
		var roots []types.Object
		found := false
		for _, elt := range e.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if t, r := st.taintedExpr(v); t {
				found = true
				roots = append(roots, r...)
			}
		}
		return found, roots
	case *ast.CallExpr:
		fn := calleeFunc(st.info, e)
		if isSource(fn) {
			return true, nil
		}
		if mask := st.fl.summaries[fn]; mask != 0 {
			// Single-value use of a summarized callee: tainted if any
			// result is (multi-value assigns are handled per-index).
			return true, nil
		}
		if fn == nil {
			// Builtin append carries its arguments' taint.
			if isBuiltin(st.info, e, "append") {
				var roots []types.Object
				found := false
				for _, a := range e.Args {
					if t, r := st.taintedExpr(a); t {
						found = true
						roots = append(roots, r...)
					}
				}
				return found, roots
			}
		}
	}
	return false, nil
}

func (st *ifState) objOf(id *ast.Ident) types.Object {
	if obj := st.info.Defs[id]; obj != nil {
		return obj
	}
	return st.info.Uses[id]
}

// taint marks the root variable written by lhs.
func (st *ifState) taint(lhs ast.Expr) bool {
	roots := st.rootObjects(lhs)
	var obj types.Object
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		obj = st.objOf(id)
	} else if len(roots) > 0 {
		obj = roots[0]
	}
	if obj == nil || st.tainted[obj] {
		return false
	}
	if _, ok := obj.(*types.Var); !ok {
		return false
	}
	st.tainted[obj] = true
	return true
}

// propagateAssign handles `x, y := f()` and `x = expr` forms, blocking
// propagation through statements whose tainted inputs are all screened
// by a dominating AdmitBatch.
func (st *ifState) propagateAssign(as *ast.AssignStmt) bool {
	changed := false
	// Multi-value call on the right.
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			fn := calleeFunc(st.info, call)
			mask := st.fl.summaries[fn]
			if isSource(fn) {
				mask = sourceMask(fn)
			}
			for i, lhs := range as.Lhs {
				if mask&(1<<uint(i)) != 0 && st.taint(lhs) {
					changed = true
				}
			}
		}
		return changed
	}
	if len(as.Lhs) != len(as.Rhs) {
		return false
	}
	for i, rhs := range as.Rhs {
		t, roots := st.taintedExpr(rhs)
		if !t || st.screenedAt(roots, as.Pos()) {
			continue
		}
		if st.taint(as.Lhs[i]) {
			changed = true
		}
	}
	return changed
}

// propagateDecl handles `var x = expr`.
func (st *ifState) propagateDecl(gd *ast.GenDecl) bool {
	changed := false
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Values) != len(vs.Names) {
			continue
		}
		for i, v := range vs.Values {
			t, roots := st.taintedExpr(v)
			if !t || st.screenedAt(roots, gd.Pos()) {
				continue
			}
			if obj := st.info.Defs[vs.Names[i]]; obj != nil && !st.tainted[obj] {
				st.tainted[obj] = true
				changed = true
			}
		}
	}
	return changed
}

// propagateRange taints the iteration variables of a range over a
// tainted collection.
func (st *ifState) propagateRange(rs *ast.RangeStmt) bool {
	t, roots := st.taintedExpr(rs.X)
	if !t || st.screenedAt(roots, rs.Pos()) {
		return false
	}
	changed := false
	for _, v := range []ast.Expr{rs.Key, rs.Value} {
		if v == nil {
			continue
		}
		if st.taint(v) {
			changed = true
		}
	}
	return changed
}

// resultSummary computes which results of fb return unscreened taint.
func (st *ifState) resultSummary() resultMask {
	var mask resultMask
	ast.Inspect(st.fb.Decl.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			_ = fl
			return false // nested literals have their own (unsummarized) results
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for i, res := range ret.Results {
			if i >= 32 {
				break
			}
			t, roots := st.taintedExpr(res)
			if t && !st.screenedAt(roots, ret.Pos()) {
				mask |= 1 << uint(i)
			}
		}
		return true
	})
	return mask
}

// reportSinks flags tainted, unscreened arguments reaching a protocol
// machine Deliver/Step.
func (st *ifState) reportSinks() {
	pass := st.fl.mp.Pass(st.fb.Pkg)
	trustedFunc := pass != nil && FuncHasDirective(pass, st.fb.Decl, "trusted")
	ast.Inspect(st.fb.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !st.isSinkCall(call) {
			return true
		}
		for _, arg := range call.Args {
			t, roots := st.taintedExpr(arg)
			if !t || st.screenedAt(roots, call.Pos()) {
				continue
			}
			if trustedFunc || st.fl.mp.HasDirective(call.Pos(), "trusted") {
				continue
			}
			st.fl.mp.Reportf(call.Pos(),
				"wire-decoded value %s reaches %s without passing validate.AdmitBatch; screen it or annotate //lint:trusted",
				types.ExprString(arg), sinkName(st.info, call))
			break
		}
		return true
	})
}

// isSinkCall reports whether call invokes Deliver or Step on a
// sim.Machine — through the interface or on a concrete implementation.
func (st *ifState) isSinkCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	name := sel.Sel.Name
	if name != "Deliver" && name != "Step" {
		return false
	}
	s := st.info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return false
	}
	recv := s.Recv()
	if iface, ok := recv.Underlying().(*types.Interface); ok {
		return types.Implements(iface, st.fl.machine) || types.Identical(iface, st.fl.machine)
	}
	return types.Implements(recv, st.fl.machine) ||
		types.Implements(types.NewPointer(recv), st.fl.machine)
}

func sinkName(info *types.Info, call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return types.ExprString(sel.X) + "." + sel.Sel.Name
	}
	return "machine"
}
