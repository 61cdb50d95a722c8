// Package analyzers assembles the simlint suite: the custom static
// checks that turn this repository's determinism, reset-coverage,
// hot-path, and worker-isolation conventions into build-time errors.
// See DESIGN.md, "Static invariants", for each analyzer's contract and
// annotation grammar.
package analyzers

import (
	"repro/internal/analyzers/analysis"
	"repro/internal/analyzers/detflow"
	"repro/internal/analyzers/hotcall"
	"repro/internal/analyzers/resetcheck"
	"repro/internal/analyzers/sharecheck"
)

// All is the suite cmd/simlint runs, in reporting order. resetcheck is
// a per-package pass; hotcall and sharecheck run over the module call
// graph and facts store, and detflow is a module pass combining its
// simulation-package scope with computed output-sink reachability.
var All = []*analysis.Analyzer{
	resetcheck.Analyzer,
	hotcall.Analyzer,
	detflow.Analyzer,
	sharecheck.Analyzer,
}
