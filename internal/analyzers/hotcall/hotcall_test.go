package hotcall_test

import (
	"testing"

	"repro/internal/analyzers/atest"
	"repro/internal/analyzers/hotcall"
)

// TestHotcall runs the analyzer over the call-edge fixture: every seeded
// hot→allocating call is flagged at its call site, and the silent edges
// (clean, cold-with-reason, and hot callees) stay silent.
func TestHotcall(t *testing.T) {
	atest.Run(t, "testdata", "hotcalls", hotcall.Analyzer)
}

// TestHotcallBody runs the analyzer over the hot-body fixture: an
// annotated function committing every forbidden construct (flagged.go)
// and an annotated function using every allowed pattern (clean.go) —
// including the append-style buffer pipeline and call-only closures the
// routing engine relies on.
func TestHotcallBody(t *testing.T) {
	atest.Run(t, "testdata", "hot", hotcall.Analyzer)
}
