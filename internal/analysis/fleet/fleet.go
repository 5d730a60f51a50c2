// Package fleet is the registry of this repo's OPTIK analyzers — the
// single list shared by cmd/optik-vet (both standalone and `go vet
// -vettool` modes) and the self-check test that runs the fleet over the
// live repo packages.
package fleet

import (
	"github.com/optik-go/optik/internal/analysis"
	"github.com/optik-go/optik/internal/analysis/optikvalidate"
	"github.com/optik-go/optik/internal/analysis/padcheck"
)

// Analyzers is the full fleet, in reporting order.
var Analyzers = []*analysis.Analyzer{
	optikvalidate.Analyzer,
	padcheck.Analyzer,
}
