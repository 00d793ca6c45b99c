package lint

import "sort"

// AnalyzeAll runs one analyzer over every loaded package in its scope,
// as TestModuleIsClean drives each analyzer over the module.
// Diagnostics come back sorted by position.
func AnalyzeAll(l *Loader, a *Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var diags []Diagnostic
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
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}
