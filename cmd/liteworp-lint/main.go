// Command liteworp-lint runs the determinism lint suite (internal/lint)
// over the module and reports violations of the reproducibility contract:
// nondeterminism sources (wall-clock reads, global math/rand draws,
// any range over a map, select) at their own line and wherever
// the call graph lets determinism-bound code reach one, raw concurrency,
// unscoped node timers, pooled-record lifetime bugs, and cross-goroutine
// kernel sharing.
//
// Usage:
//
//	liteworp-lint [-json] [packages]
//
// The package arguments are accepted for familiarity (`./...`) but the
// linter always analyzes the whole module containing the working
// directory — the determinism contract is module-wide.
//
// Output: one `file:line:col: [analyzer] message` line per finding, or
// with -json a JSON array in canonical order (file, line, column,
// analyzer). Both are byte-stable across runs. An inline //lint:<directive> <reason>
// waiver is the one way to accept a finding.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"liteworp/internal/lint"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "liteworp-lint:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("liteworp-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	if err := fs.Parse(args); err != nil {
		return 2, nil // flag package already printed the error
	}

	root, err := lint.FindModuleRoot(".")
	if err != nil {
		return 2, err
	}
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		return 2, err
	}
	findings := lint.Run(pkgs, lint.Analyzers())

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			return 2, err
		}
	} else {
		for _, d := range findings {
			fmt.Fprintln(stdout, d)
		}
	}

	if len(findings) > 0 {
		fmt.Fprintf(stderr, "liteworp-lint: %d violation(s) of the determinism contract\n", len(findings))
		return 1, nil
	}
	return 0, nil
}
