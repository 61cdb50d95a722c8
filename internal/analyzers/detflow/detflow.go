// Package detflow implements the simlint determinism analyzer.
//
// The reproduction's headline guarantee is bit-identical results for a
// given seed, sequential or parallel (DESIGN.md "Determinism"), and the
// service's is byte-identical rendered artifacts — figure and table
// text, HTTP response bodies, /metrics exposition — across worker
// counts, pool warmth, and process restarts. One rule set polices both:
//
//  1. Inside the Scope packages (simulation state), anywhere in the
//     package: time.Now — wall-clock time makes results depend on the
//     host, virtual time comes from sim.Kernel.Now; the global math/rand
//     functions — they draw from process-wide shared state, so every
//     draw must come from an explicitly threaded *rand.Rand; and go and
//     select statements — scheduling order is the runtime's choice, so
//     concurrency lives in internal/parallel, whose merge discipline
//     makes worker order unobservable.
//  2. Map iteration order, in every function of a Scope package and in
//     every function statically reachable from an output sink: ranging
//     over a map, and unsorted maps.Keys / maps.Values / maps.All reads.
//     A map-range three calls below a table writer reorders rows per
//     run, and the iteration and the writer often live in different
//     packages, so sink reachability is computed from the module call
//     graph. Sink roots are the functions that render output —
//     structurally, any module function with an io.Writer,
//     http.ResponseWriter, *bytes.Buffer, or *strings.Builder
//     parameter, plus the explicit value-returning renderers in
//     ExtraSinks.
//
// The sorted-keys idiom stays silent without annotation: a range whose
// body only collects keys into a slice that the function later sorts,
// and maps.Keys/Values/All wrapped directly in slices.Sorted*. Anything
// else order-insensitive is suppressed site by site with
// //simlint:allow detflow <reason>.
//
// Soundness caveat: reachability follows static edges only — dynamic
// dispatch through interfaces or func values contributes nothing, so a
// renderer invoked only through an interface needs its own writer-ish
// parameter (it then roots its own reachability) or an ExtraSinks
// entry.
package detflow

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analyzers/analysis"
)

// Analyzer is the detflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "detflow",
	Doc: "forbid wall-clock time, global math/rand state, and goroutine scheduling in simulation " +
		"packages, and map iteration order there or in functions reachable from output sinks",
	RunModule: runModule,
}

// Scope lists the module-relative package paths (and their subtrees)
// holding simulation state: every rule applies anywhere in them.
var Scope = []string{
	"internal/sim",
	"internal/network",
	"internal/routing",
	"internal/apps",
	"internal/mpi",
	"internal/workload",
	"internal/core",
}

// InScope reports whether pkgPath falls under any entry of Scope
// (entries are matched as whole path segments, with or without the
// module-path prefix).
func InScope(pkgPath string) bool {
	for _, s := range Scope {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) ||
			strings.HasPrefix(pkgPath, s+"/") || strings.Contains(pkgPath, "/"+s+"/") {
			return true
		}
	}
	return false
}

// randConstructors are the math/rand package-level functions that build
// explicit generators rather than touching the global one.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// WriterTypes are the parameter types that make a function a sink root:
// storage that rendered bytes flow into.
var WriterTypes = map[string]bool{
	"io.Writer":               true,
	"net/http.ResponseWriter": true,
	"*bytes.Buffer":           true,
	"*strings.Builder":        true,
}

// ExtraSinks names value-returning renderers the structural rule cannot
// see (they build output without taking a writer). Entries are
// module-relative: "pkg/path.Func" for functions, "pkg/path.Recv.Func"
// for methods.
var ExtraSinks = []string{
	"internal/service.buildResponse",
	"internal/service.marshalResponse",
	"internal/service.metrics.render",
	"internal/service.errorBody",
	// viz renders into local strings.Builders and returns the text, so
	// the structural writer-parameter rule never sees it.
	"internal/viz.Sparkline",
	"internal/viz.HeatStrip",
	"internal/viz.GroupHeatmap",
	"internal/viz.Histogram",
}

// SinkRoots returns the module's output sink roots, sorted by position
// for deterministic traversal and witness attribution.
func SinkRoots(m *analysis.Module) []*types.Func {
	var roots []*types.Func
	for fn, fd := range m.Graph.Decls {
		if fd.Body == nil {
			continue
		}
		if isStructuralSink(fn) || isExtraSink(m, fn) {
			roots = append(roots, fn)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Pos() < roots[j].Pos() })
	return roots
}

// isStructuralSink reports whether fn has a writer-ish parameter.
func isStructuralSink(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if WriterTypes[params.At(i).Type().String()] {
			return true
		}
	}
	return false
}

// isExtraSink matches fn against ExtraSinks by module-relative name.
func isExtraSink(m *analysis.Module, fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	rel := moduleRel(m, fn.Pkg().Path())
	name := rel + "." + fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := receiverName(sig.Recv().Type()); named != "" {
			name = rel + "." + named + "." + fn.Name()
		}
	}
	for _, s := range ExtraSinks {
		if s == name {
			return true
		}
	}
	return false
}

func receiverName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func moduleRel(m *analysis.Module, pkgPath string) string {
	if m.Loader.ModulePath != "" {
		if rest, ok := strings.CutPrefix(pkgPath, m.Loader.ModulePath+"/"); ok {
			return rest
		}
	}
	return pkgPath
}

// Reach computes every function statically reachable from the module's
// sink roots, with the (position-first) witness root that reached it.
func Reach(m *analysis.Module) map[*types.Func]*types.Func {
	witness := map[*types.Func]*types.Func{}
	for _, root := range SinkRoots(m) {
		if _, seen := witness[root]; seen {
			continue
		}
		stack := []*types.Func{root}
		for len(stack) > 0 {
			fn := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if _, seen := witness[fn]; seen {
				continue
			}
			witness[fn] = root
			for _, site := range m.Graph.Sites[fn] {
				if site.Callee == nil {
					continue
				}
				if _, seen := witness[site.Callee]; !seen && m.Graph.Decls[site.Callee] != nil {
					stack = append(stack, site.Callee)
				}
			}
		}
	}
	return witness
}

// ReachablePackages returns the sorted module-relative paths of every
// package holding a sink-reachable function — the computed counterpart
// of the hand-maintained Scope, which the scope-drift test keeps
// consistent.
func ReachablePackages(m *analysis.Module) []string {
	seen := map[string]bool{}
	for fn := range Reach(m) {
		if fn.Pkg() != nil {
			seen[moduleRel(m, fn.Pkg().Path())] = true
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func runModule(pass *analysis.ModulePass) error {
	reach := Reach(pass.Module)
	for _, pkg := range pass.Module.Pkgs {
		scoped := InScope(pkg.Path)
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				var root *types.Func
				if fd, ok := decl.(*ast.FuncDecl); ok {
					fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
					root = reach[fn]
				}
				if scoped || root != nil {
					check(pass, pkg.Info, decl, scoped, root)
				}
			}
		}
	}
	return nil
}

// check applies the rules to one declaration: the Scope rules when its
// package is in Scope, the map-order rules either way. root is the
// witness sink when the declaration is sink-reachable, else nil.
func check(pass *analysis.ModulePass, info *types.Info, decl ast.Decl, scoped bool, root *types.Func) {
	reaches := "simulation state (package in Scope)"
	if root != nil {
		reaches = "rendered output (reachable from " + root.Name() + ")"
	}
	analysis.WithParents(decl, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil && isMap(t) && !sortedKeysIdiom(info, x, decl) {
				pass.Reportf(x.Pos(),
					"map iteration order can reach %s; iterate sorted keys or annotate an order-insensitive reduction", reaches)
			}
		case *ast.CallExpr:
			if isMapsOrderRead(info, x) && !wrappedInSortedCollect(info, stack) {
				pass.Reportf(x.Pos(),
					"unsorted map-key read can reach %s; wrap in slices.Sorted or annotate an order-insensitive use", reaches)
			}
		case *ast.SelectorExpr:
			if scoped {
				checkSelector(pass, info, x)
			}
		case *ast.GoStmt:
			if scoped {
				pass.Reportf(x.Pos(), "go statement in a simulation package: goroutine scheduling is nondeterministic")
			}
		case *ast.SelectStmt:
			if scoped {
				pass.Reportf(x.Pos(), "select statement in a simulation package: case choice is nondeterministic")
			}
		}
		return true
	})
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkSelector flags uses of time.Now and of math/rand's global-state
// package-level functions.
func checkSelector(pass *analysis.ModulePass, info *types.Info, sel *ast.SelectorExpr) {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" {
			pass.Reportf(sel.Pos(),
				"time.Now in simulation code: results would depend on the host clock; use the kernel's virtual time")
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			pass.Reportf(sel.Pos(),
				"global math/rand.%s draws from shared process-wide state; use an explicit per-run *rand.Rand stream", fn.Name())
		}
	}
}

// sortedKeysIdiom recognizes the canonical deterministic pattern: the
// range body does nothing but append the key to a slice, and the
// enclosing declaration later passes that slice to a sort call — order
// randomness dies in the sort.
func sortedKeysIdiom(info *types.Info, rng *ast.RangeStmt, decl ast.Decl) bool {
	key, ok := rng.Key.(*ast.Ident)
	if !ok || rng.Value != nil || len(rng.Body.List) != 1 {
		return false
	}
	assign, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	lhs := analysis.RootIdent(assign.Lhs[0])
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || lhs == nil {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) != 2 {
		return false
	}
	dst := analysis.RootIdent(call.Args[0])
	src, okSrc := ast.Unparen(call.Args[1]).(*ast.Ident)
	if dst == nil || !okSrc {
		return false
	}
	keyObj := analysis.ObjectOf(info, key)
	if keyObj == nil || analysis.ObjectOf(info, src) != keyObj {
		return false
	}
	slice := analysis.ObjectOf(info, lhs)
	if slice == nil || analysis.ObjectOf(info, dst) != slice {
		return false
	}
	// The collected slice must be sorted somewhere in the declaration.
	sorted := false
	ast.Inspect(decl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || sorted {
			return !sorted
		}
		if !isSortCall(info, call) {
			return true
		}
		for _, arg := range call.Args {
			if root := analysis.RootIdent(arg); root != nil && analysis.ObjectOf(info, root) == slice {
				sorted = true
			}
		}
		return !sorted
	})
	return sorted
}

// isSortCall matches package-level sort.* and slices.Sort* calls.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		return true
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}

// isMapsOrderRead matches maps.Keys / maps.Values / maps.All, whose
// iteration order is randomized like a direct range.
func isMapsOrderRead(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "maps" {
		return false
	}
	switch fn.Name() {
	case "Keys", "Values", "All":
		return true
	}
	return false
}

// wrappedInSortedCollect reports whether the call's immediate consumer
// is slices.Sorted / slices.SortedFunc / slices.SortedStableFunc.
func wrappedInSortedCollect(info *types.Info, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	outer, ok := stack[len(stack)-1].(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(outer.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "slices" &&
		strings.HasPrefix(fn.Name(), "Sorted")
}
