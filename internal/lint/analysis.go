// Package lint is a stdlib-only static-analysis suite enforcing this
// repository's determinism and safety invariants. It mirrors the shape
// of golang.org/x/tools/go/analysis (one Analyzer per invariant, a Pass
// carrying the type-checked package, Diagnostics at token positions)
// without depending on it: the module is intentionally dependency-free,
// so the framework is rebuilt here on go/ast, go/types and go/build.
//
// Analyzers (one file each, every one a per-package Run):
//
//   - nomapiter: no range over a map in protocol packages unless the
//     loop is annotated //lint:ordered (map iteration order must never
//     reach wire messages, traces or tallies).
//   - norandglobal: no math/rand global functions or wall-clock-seeded
//     sources; all randomness flows from the injected *rand.Rand.
//   - nowallclock: no wall-clock reads or sleeps in round-based
//     protocol packages (simulated time only).
//   - checkederr: encode/decode and signature-verify results from
//     internal/wire and internal/crypto must not be discarded.
//   - noretain: Machine.Deliver and Adversary.Act implementations must
//     not retain the []sim.Message slice the engine hands them (the
//     inbox, the honest view: both alias pooled engine buffers that
//     are overwritten every round).
//   - quorumexpr: comparisons against inline n/t arithmetic must go
//     through named threshold predicates (internal/quorum) so the
//     off-by-one class the conformance mutation test plants has one
//     audited home.
//
// The transport's wire invariants — every delivery passes the ingress
// screen, every frame read and write runs under a deadline — have one
// site each, so tests in internal/transport and internal/chaos hold
// them rather than an analyzer (DESIGN §7). Zero steady-state
// allocation on the round loop is likewise held by testing.AllocsPerRun
// pins, which measure what the compiler actually emits.
//
// TestModuleIsClean (suite_test.go) is the one driver: it runs each
// analyzer over the whole module as its own subtest, so
// `go test -run 'TestModuleIsClean/noretain' ./internal/lint` runs one.
// linttest runs them over testdata packages with // want expectations.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and names its
	// TestModuleIsClean subtest.
	Name string
	// Doc is a one-paragraph description: what is forbidden, why, and
	// how to annotate legitimate exemptions.
	Doc string
	// Scope reports whether the analyzer applies to a package, given
	// its module-relative path ("" is the module root, "internal/ba",
	// "cmd/proxlab", ...). A nil Scope applies to every package. The
	// driver consults Scope; test harnesses call Run directly.
	Scope func(relPkgPath string) bool
	// Run analyzes one package, reporting findings via pass.Reportf.
	Run func(pass *Pass) error
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Pass carries one type-checked package through one analyzer run.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report     func(Diagnostic)
	analyzer   string
	directives map[directiveKey]bool
}

type directiveKey struct {
	file string
	line int
	name string
}

// directiveRE matches machine-readable exemption comments, e.g.
// "//lint:ordered keys are sorted below". The word after the colon is
// the directive name; the rest of the line is a free-form reason.
var directiveRE = regexp.MustCompile(`^//lint:([a-z]+)(\s|$)`)

// newPass builds a Pass and indexes its //lint: directives by file and
// line so analyzers can honor annotations on or directly above a
// statement.
func newPass(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzer string, report func(Diagnostic)) *Pass {
	p := &Pass{
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		TypesInfo:  info,
		report:     report,
		analyzer:   analyzer,
		directives: make(map[directiveKey]bool),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				p.directives[directiveKey{pos.Filename, pos.Line, m[1]}] = true
			}
		}
	}
	return p
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.analyzer})
}

// HasDirective reports whether a "//lint:<name>" comment annotates the
// source line at pos — either trailing on the same line or on the line
// immediately above.
func (p *Pass) HasDirective(pos token.Pos, name string) bool {
	at := p.Fset.Position(pos)
	return p.directives[directiveKey{at.Filename, at.Line, name}] ||
		p.directives[directiveKey{at.Filename, at.Line - 1, name}]
}

// isBuiltin reports whether call invokes the named builtin (append,
// make, ...), resolved through the type checker so a shadowing local
// of the same name does not match.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// calleeFunc resolves the function or method a call expression invokes,
// or nil when the callee is not a named function (e.g. a function
// value, conversion, or builtin).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// pkgPathOf returns the import path of the package an object belongs
// to, or "" for universe-scope objects.
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// inPackages returns a Scope matching exactly the given module-relative
// package paths.
func inPackages(rels ...string) func(string) bool {
	set := make(map[string]bool, len(rels))
	for _, r := range rels {
		set[r] = true
	}
	return func(rel string) bool { return set[rel] }
}

// exceptPackages returns a Scope matching every module package except
// the given module-relative paths and their subtrees.
func exceptPackages(rels ...string) func(string) bool {
	return func(rel string) bool {
		for _, r := range rels {
			if rel == r || strings.HasPrefix(rel, r+"/") {
				return false
			}
		}
		return true
	}
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		NoMapIter, NoRandGlobal, NoWallClock, CheckedErr, NoRetain,
		QuorumExpr,
	}
}
