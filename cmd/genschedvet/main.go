// Command genschedvet runs gensched's determinism-and-discipline
// analyzer suite (detlint, maporder, errlint, seedlint, deadlint) over
// the module's packages and reports every contract violation as
// file:line:col diagnostics. The whole module is loaded whatever the
// patterns, so deadlint counts references from every package. It is pure stdlib, walks and type-checks
// packages itself, and is wired into CI as a hard gate:
//
//	go run ./cmd/genschedvet ./...          # human-readable
//	go run ./cmd/genschedvet -json ./...    # machine-readable, for CI
//
// Exit status: 0 clean, 1 diagnostics found, 2 load/type-check failure.
// See DESIGN.md "Static analysis & determinism contracts" for the zone
// table and the escape-hatch policy.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/hpcsched/gensched/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: genschedvet [-json] [packages]\n\npackages follow the go tool's shape: ./..., ./cmd/..., ./internal/sim\n(default ./...)\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := analysis.Load(cwd, patterns)
	if err != nil {
		fatal(err)
	}
	diags := analysis.Run(pkgs, analysis.All())

	// Diagnostics print module-relative paths so output is stable
	// across checkouts and clickable from the repo root.
	if root, err := analysis.ModuleRoot(cwd); err == nil {
		for i := range diags {
			if rel, err := filepath.Rel(root, diags[i].File); err == nil {
				diags[i].File = filepath.ToSlash(rel)
			}
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(os.Stderr, "genschedvet: %d violation(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "genschedvet:", err)
	os.Exit(2)
}
