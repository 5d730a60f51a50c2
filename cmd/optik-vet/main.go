// Command optik-vet runs the repo's OPTIK analyzer fleet (optikvalidate,
// padcheck — see internal/analysis and docs/INVARIANTS.md).
//
// Two modes, distinguished by the arguments:
//
//	go vet -vettool=$(which optik-vet) ./...
//
// drives it through the go command's vettool protocol (one JSON config
// per package, including test packages), which is how CI runs it; and
//
//	optik-vet [packages]
//
// standalone resolves the patterns (default ./...) with the go tool and
// analyzes them directly — handy for one-off sweeps. Both modes exit 2
// when diagnostics were reported.
package main

import (
	"fmt"
	"os"
	"strings"

	"github.com/optik-go/optik/internal/analysis"
	"github.com/optik-go/optik/internal/analysis/fleet"
)

func main() {
	args := os.Args[1:]
	if isVetProtocol(args) {
		analysis.VetMain(args, fleet.Analyzers)
		return // unreachable: VetMain exits
	}
	patterns := args
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "optik-vet: %v\n", err)
		os.Exit(1)
	}
	diags, err := analysis.RunAnalyzers(pkgs, fleet.Analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "optik-vet: %v\n", err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}

// isVetProtocol reports whether the go command is driving us: a -V/-flags
// identity probe or a single package config file.
func isVetProtocol(args []string) bool {
	for _, a := range args {
		if strings.HasPrefix(a, "-V") || strings.HasPrefix(a, "--V") || a == "-flags" || a == "--flags" {
			return true
		}
	}
	return len(args) == 1 && strings.HasSuffix(args[0], ".cfg")
}
