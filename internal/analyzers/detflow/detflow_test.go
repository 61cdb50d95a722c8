package detflow_test

import (
	"testing"

	"repro/internal/analyzers/atest"
	"repro/internal/analyzers/detflow"
)

// TestDetflow runs the analyzer over the sink-reachability fixture: map
// iteration reaching an output sink is flagged, the sorted idioms and
// unreachable functions stay silent.
func TestDetflow(t *testing.T) {
	atest.Run(t, "testdata", "detflowpkg", detflow.Analyzer)
}

// TestDetflowScope runs the analyzer over a fixture package whose import
// path falls inside Scope: every forbidden construct must be flagged
// with no sink in sight, and an //simlint:allow annotation must silence
// its site.
func TestDetflowScope(t *testing.T) {
	atest.Run(t, "testdata", "internal/sim", detflow.Analyzer)
}

// TestDetflowOutOfScope runs the analyzer over a package outside Scope
// and unreachable from any sink, using the same forbidden constructs;
// the fixture has no want comments, so any diagnostic fails the test.
func TestDetflowOutOfScope(t *testing.T) {
	atest.Run(t, "testdata", "outofscope", detflow.Analyzer)
}
