// Command balint is the repository's determinism and safety
// multichecker: it runs every internal/lint analyzer over the module's
// non-test code and fails if any invariant is violated.
//
// Usage:
//
//	go run ./cmd/balint ./...            # whole module (the CI invocation)
//	go run ./cmd/balint ./internal/ba    # one package
//	go run ./cmd/balint -list            # describe the analyzers
//	go run ./cmd/balint -run noretain,quorumexpr ./...
//	go run ./cmd/balint -json ./...      # machine-readable diagnostics
//
// Human diagnostics print as file:line:col: message (analyzer), sorted
// by position; -json emits one JSON array of {file, line, col,
// analyzer, message} objects on stdout with a summary line on stderr.
// Exit status is 1 when diagnostics were reported, 2 on a load or
// internal error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"proxcensus/internal/lint"
)

// jsonDiag is the -json wire form of one diagnostic.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	flag.Parse()

	analyzers := lint.All()
	if *run != "" {
		var err error
		analyzers, err = lint.Select(analyzers, strings.Split(*run, ","))
		if err != nil {
			fail(err)
		}
	}

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%s:\n  %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		fail(err)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fail(err)
	}
	diags, err := lint.RunSuite(loader, pkgs, analyzers)
	if err != nil {
		fail(err)
	}

	cwd, _ := os.Getwd()
	relName := func(name string) string {
		if rel, err := filepath.Rel(cwd, name); err == nil && len(rel) < len(name) {
			return rel
		}
		return name
	}

	if *jsonOut {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			pos := loader.Fset().Position(d.Pos)
			out = append(out, jsonDiag{
				File:     relName(pos.Filename),
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail(err)
		}
	} else {
		for _, d := range diags {
			pos := loader.Fset().Position(d.Pos)
			fmt.Printf("%s:%d:%d: %s (%s)\n", relName(pos.Filename), pos.Line, pos.Column, d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "balint: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "balint:", err)
	os.Exit(2)
}
