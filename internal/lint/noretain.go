package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NoRetain forbids Machine.Deliver implementations from storing the
// delivered []sim.Message slice — or any subslice or alias of it — into
// a struct field, package variable or container. The execution engine
// pools per-party inbox buffers and overwrites them every round, so a
// retained slice silently mutates under the machine, corrupting state
// in a seed-dependent way. Copying message values out is always safe
// and is what every machine in this repository does: the Message struct
// and its immutable payload may be kept freely, with one exception the
// analyzer does not see — the Data of a payload blob (ba.TCPayload,
// ba.TCPayloadEcho) aliases the TCP transport's received frame and is
// valid only until Deliver returns, so a machine copies the bytes it
// keeps.
var NoRetain = &Analyzer{
	Name: "noretain",
	Doc: "forbid Deliver implementations from retaining the delivered []sim.Message slice " +
		"(it aliases a pooled engine buffer overwritten each round); copy message values out " +
		"(a payload may be kept freely, except a payload blob's Data, which aliases the " +
		"transport's frame until Deliver returns: copy the bytes), " +
		"or annotate a store that provably does not outlive the call with //lint:retain <reason>",
	Run: runNoRetain,
}

func runNoRetain(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "Deliver" || fd.Body == nil {
				continue
			}
			if param := deliveredParam(pass, fd); param != nil {
				checkRetention(pass, fd.Body, param)
			}
		}
	}
	return nil
}

// deliveredParam returns the object of the method's []sim.Message
// parameter, or nil if it has none (a Deliver of some unrelated
// interface).
func deliveredParam(pass *Pass, fd *ast.FuncDecl) types.Object {
	for _, field := range fd.Type.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok {
			continue
		}
		sl, ok := tv.Type.Underlying().(*types.Slice)
		if !ok {
			continue
		}
		named, ok := sl.Elem().(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() != "Message" || !strings.HasSuffix(pkgPathOf(obj), "internal/sim") {
			continue
		}
		for _, name := range field.Names {
			if o := pass.TypesInfo.Defs[name]; o != nil {
				return o
			}
		}
	}
	return nil
}

// checkRetention flags stores of the tainted slice set — the parameter,
// its subslices, and local aliases thereof — into anything that can
// outlive the call: struct fields, package variables, maps and other
// containers. Element copies (append(dst, in...), in[i]) are untainted:
// they move Message values into caller-owned memory.
func checkRetention(pass *Pass, body *ast.BlockStmt, param types.Object) {
	tainted := map[types.Object]bool{param: true}

	// Taint fixpoint over local aliases: `a := in; b := a[1:]; ...`.
	for {
		changed := false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, rhs := range n.Rhs {
					if !taintedExpr(pass, tainted, rhs) {
						continue
					}
					if obj := localVarOf(pass, n.Lhs[i]); obj != nil && !tainted[obj] {
						tainted[obj] = true
						changed = true
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) != len(n.Values) {
					return true
				}
				for i, rhs := range n.Values {
					if !taintedExpr(pass, tainted, rhs) {
						continue
					}
					if obj := pass.TypesInfo.Defs[n.Names[i]]; obj != nil && !tainted[obj] {
						tainted[obj] = true
						changed = true
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}

	// Reporting pass: a tainted right-hand side may only flow into a
	// fresh local variable.
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !taintedExpr(pass, tainted, rhs) {
				continue
			}
			lhs := ast.Unparen(as.Lhs[i])
			if id, ok := lhs.(*ast.Ident); ok {
				if id.Name == "_" {
					continue // discarded, nothing retained
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj == nil || !isPackageVar(obj) {
					continue // fresh or shadowing local: handled by taint
				}
			}
			if pass.HasDirective(as.Pos(), "retain") {
				continue
			}
			pass.Reportf(as.Pos(),
				"Deliver stores the delivered message slice in %s; delivered slices alias a pooled engine buffer overwritten each round — copy message values out, or annotate //lint:retain if the store does not outlive the call",
				types.ExprString(as.Lhs[i]))
		}
		return true
	})
}

// taintedExpr reports whether e evaluates to (a subslice of) the
// delivered slice's backing array.
func taintedExpr(pass *Pass, tainted map[types.Object]bool, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		return obj != nil && tainted[obj]
	case *ast.SliceExpr:
		return taintedExpr(pass, tainted, e.X)
	}
	return false
}

// localVarOf returns the function-local variable an identifier resolves
// to, or nil for blank identifiers, fields and package-level variables.
func localVarOf(pass *Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	obj := pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = pass.TypesInfo.Uses[id]
	}
	if obj == nil || isPackageVar(obj) {
		return nil
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return nil
	}
	return obj
}

// isPackageVar reports whether obj is a package-level variable.
func isPackageVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}
