package lint

import (
	"fmt"
	"sort"
)

// Select filters analyzers by name ("a,b,c" lists from the -run flag,
// already split). Unknown names are an error so typos fail loudly.
func Select(analyzers []*Analyzer, names []string) ([]*Analyzer, error) {
	if len(names) == 0 {
		return analyzers, nil
	}
	byName := make(map[string]*Analyzer, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	out := make([]*Analyzer, 0, len(names))
	for _, name := range names {
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// RunSuite drives analyzers over loaded packages exactly as cmd/balint
// and the module-clean test do: each analyzer runs on every package in
// its scope. Diagnostics come back sorted by position.
func RunSuite(l *Loader, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			if a.Scope != nil && !a.Scope(pkg.RelPath) {
				continue
			}
			ds, err := Analyze(l, a, pkg)
			if err != nil {
				return nil, err
			}
			diags = append(diags, ds...)
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}
