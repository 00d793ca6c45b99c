package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NoRetain forbids the two methods the engine hands a pooled
// []sim.Message — Machine.Deliver (the delivered inbox) and
// Adversary.Act (the rushing view of the round's honest traffic) — from
// storing that slice, or any subslice or alias of it, into a struct
// field, package variable or container, or appending it as an element.
// The engine overwrites both buffers every round, so a retained slice
// silently mutates under its holder, corrupting state in a
// seed-dependent way. Copying message values out is always safe and is
// what every machine and adversary in this repository does: the Message
// struct and its immutable payload may be kept freely, with one
// exception the analyzer does not see — the Data of a payload blob
// (ba.TCPayload, ba.TCPayloadEcho) aliases the TCP transport's received
// frame and is valid only until Deliver returns, so a machine copies the
// bytes it keeps.
var NoRetain = &Analyzer{
	Name: "noretain",
	Doc: "forbid Deliver and Act implementations from retaining the []sim.Message slice the engine " +
		"hands them (the delivered inbox, the adversary's view of honest traffic: both alias pooled " +
		"engine buffers overwritten each round); copy message values out " +
		"(a payload may be kept freely, except a payload blob's Data, which aliases the " +
		"transport's frame until Deliver returns: copy the bytes), " +
		"or annotate a store that provably does not outlive the call with //lint:retain <reason>",
	Run: runNoRetain,
}

// retainedSlice names, per method the engine hands a pooled message
// slice, what that slice is.
var retainedSlice = map[string]string{
	"Deliver": "delivered",
	"Act":     "observed honest",
}

func runNoRetain(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			what, ok := retainedSlice[fd.Name.Name]
			if !ok {
				continue
			}
			if param := messageSliceParam(pass, fd); param != nil {
				checkRetention(pass, fd, param, what)
			}
		}
	}
	return nil
}

// messageSliceParam returns the object of the method's []sim.Message
// parameter, or nil if it has none (a Deliver or Act of some unrelated
// interface).
func messageSliceParam(pass *Pass, fd *ast.FuncDecl) types.Object {
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
// containers, and appends of it as an element (append(views, in)).
// Element copies (append(dst, in...), in[i]) are untainted: they move
// Message values into caller-owned memory.
func checkRetention(pass *Pass, fd *ast.FuncDecl, param types.Object, what string) {
	body := fd.Body
	tainted := map[types.Object]bool{param: true}
	report := func(n ast.Node, into string) {
		if pass.HasDirective(n.Pos(), "retain") {
			return
		}
		pass.Reportf(n.Pos(),
			"%s stores the %s message slice in %s; it aliases a pooled engine buffer overwritten each round — copy message values out, or annotate //lint:retain if the store does not outlive the call",
			fd.Name.Name, what, into)
	}

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
	// fresh local variable, and a tainted slice is never an appended
	// element.
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isBuiltin(pass.TypesInfo, call, "append") {
			for i, arg := range call.Args {
				spread := call.Ellipsis.IsValid() && i == len(call.Args)-1
				if i > 0 && !spread && taintedExpr(pass, tainted, arg) {
					report(call, "an appended element of "+types.ExprString(call.Args[0]))
				}
			}
			return true
		}
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
			report(as, types.ExprString(as.Lhs[i]))
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
