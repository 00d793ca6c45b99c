// Package linttest is the shared test harness for the lint analyzers,
// modeled on golang.org/x/tools/go/analysis/analysistest (which this
// dependency-free module cannot import): a testdata package is loaded
// and type-checked, the analyzer runs over it, and its diagnostics are
// matched against `// want "regexp"` comments in the sources. Every
// diagnostic must be wanted on its exact line and every want must be
// matched, so each testdata package exercises both flagged (positive)
// and clean or annotated (negative) code.
package linttest

import (
	"fmt"
	"go/token"
	"regexp"
	"testing"

	"proxcensus/internal/lint"
)

// wantRE extracts the expectation regexp from a trailing comment of the
// form `// want "..."`. Double quotes cannot appear inside the pattern;
// none of the analyzers' messages contain them.
var wantRE = regexp.MustCompile(`// want "([^"]*)"`)

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// Run loads the single package rooted at dir (conventionally
// testdata/src/<analyzer> relative to the calling test), applies the
// analyzer, and reports every mismatch between its diagnostics and the
// sources' want comments.
func Run(t *testing.T, dir string, a *lint.Analyzer) {
	t.Helper()
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatalf("creating loader: %v", err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}

	wants := collectWants(t, loader.Fset(), pkg)
	diags, err := lint.Analyze(loader, a, pkg)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	for _, d := range diags {
		pos := loader.Fset().Position(d.Pos)
		key := lineKey{pos.Filename, pos.Line}
		exp := wants[key]
		found := false
		for _, e := range exp {
			if !e.matched && e.re.MatchString(d.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for key, exp := range wants {
		for _, e := range exp {
			if !e.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, e.re)
			}
		}
	}
}

type lineKey struct {
	file string
	line int
}

// collectWants scans every comment in the package for want
// expectations, keyed by the line they annotate.
func collectWants(t *testing.T, fset *token.FileSet, pkg *lint.Package) map[lineKey][]*expectation {
	t.Helper()
	wants := make(map[lineKey][]*expectation)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					pos := fset.Position(c.Pos())
					t.Fatalf("%s: bad want pattern %q: %v", fmt.Sprintf("%s:%d", pos.Filename, pos.Line), m[1], err)
				}
				pos := fset.Position(c.Pos())
				key := lineKey{pos.Filename, pos.Line}
				wants[key] = append(wants[key], &expectation{re: re})
			}
		}
	}
	return wants
}
