// Package hotcall implements the simlint hot-path allocation analyzer.
//
// The steady-state packet path is pinned at zero allocations per event,
// per hop, and per routing decision by AllocsPerRun gates — but those
// tests only catch a regression after it lands, and only through the
// specific traffic they drive. Functions annotated
//
//	//simlint:hotpath
//
// (a standalone line in the function's doc comment) are additionally
// held to a mechanical discipline that keeps the allocator out
// structurally. One body walker classifies every hazard:
//
//   - allocates: make/new, append onto storage that is not parameter-
//     or receiver-rooted (arenas, slabs, and caller-provided buffers —
//     storage whose capacity was provisioned up front), &composite /
//     slice / map literals, string concatenation, string<->[]byte/[]rune
//     conversions, escaping closures, go statements. A func literal is
//     allowed when called immediately, or when bound to a local that is
//     only ever called (the non-escaping pattern the compiler
//     stack-allocates — the routing engine's consider);
//   - boxes: a concrete value converted to an interface in a call
//     argument, conversion, assignment, var declaration, or return;
//   - formats: any call into fmt, log, log/slog, or errors.
//
// In a hot function every hazard is reported where it stands. The same
// walk yields every function's may-allocate summary, which is
// propagated over the module's static call graph and exported as one
// fact per function, so importing packages' passes compose without
// reanalysis. A hot function whose static call edge reaches a dirty
// summary is flagged at the call site.
//
// Two annotations cut propagation:
//
//	//simlint:hotpath — the callee is policed at its own annotation, so
//	  edges into it are trusted rather than re-flagged at every caller;
//	//simlint:cold <reason> — the callee is deliberately off the
//	  steady-state path (panic formatting, one-time setup, pool-miss
//	  construction). The reason is mandatory: a bare //simlint:cold
//	  does not cut, and is itself flagged.
//
// Findings are suppressed line by line with //simlint:allow hotcall
// <reason> when a construct is deliberate and proven cold.
//
// Soundness caveats (documented in DESIGN.md): dynamic call sites —
// interface method dispatch and calls through func values — contribute
// no edges, and standard-library callees outside the fmt/log/errors
// denylist are assumed allocation-free (their bodies are not loaded).
// The compiler-truth escape inventory (scripts/escapes.sh) backstops
// both gaps.
package hotcall

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analyzers/analysis"
)

// Analyzer is the hotcall pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotcall",
	Doc: "functions annotated //simlint:hotpath must not allocate, box, or format, " +
		"in their own body or through callees not annotated //simlint:cold with a reason",
	Run:       run,
	FactTypes: []analysis.Fact{(*SummaryFact)(nil)},
}

// SummaryFact is the per-function allocation summary exported for
// importing packages. Why names the first root cause for diagnostics.
type SummaryFact struct {
	Allocates bool
	Boxes     bool
	CallsFmt  bool
	Why       string
}

// AFact marks SummaryFact as a fact type.
func (*SummaryFact) AFact() {}

func (s *SummaryFact) dirty() bool { return s.Allocates || s.Boxes || s.CallsFmt }

// describe renders the summary's dominant hazard for a diagnostic.
func (s *SummaryFact) describe() string {
	switch {
	case s.CallsFmt:
		return "formats (" + s.Why + ")"
	case s.Allocates:
		return "may allocate (" + s.Why + ")"
	case s.Boxes:
		return "boxes into an interface (" + s.Why + ")"
	}
	return "is clean"
}

// kind classifies one hazard.
type kind int

const (
	allocates kind = iota
	boxes
	formats // formatting allocates too
)

// add records one local hazard.
func (s *SummaryFact) add(k kind, why string) {
	s.Allocates = s.Allocates || k != boxes
	s.Boxes = s.Boxes || k == boxes
	s.CallsFmt = s.CallsFmt || k == formats
	if s.Why == "" {
		s.Why = why
	}
}

// absorb folds a dirty callee's summary into s, reporting whether s
// gained a hazard.
func (s *SummaryFact) absorb(callee string, cs *SummaryFact) bool {
	if (!cs.Allocates || s.Allocates) && (!cs.Boxes || s.Boxes) && (!cs.CallsFmt || s.CallsFmt) {
		return false
	}
	s.Allocates = s.Allocates || cs.Allocates
	s.Boxes = s.Boxes || cs.Boxes
	s.CallsFmt = s.CallsFmt || cs.CallsFmt
	if s.Why == "" {
		s.Why = "via " + callee + ": " + cs.Why
	}
	return true
}

// fmtPackages is the stdlib denylist: calls into these packages mark
// the caller as formatting (and therefore allocating).
var fmtPackages = map[string]bool{
	"fmt":      true,
	"log":      true,
	"log/slog": true,
	"errors":   true,
}

func run(pass *analysis.Pass) error {
	if pass.Module == nil {
		return fmt.Errorf("hotcall requires the module driver (call graph + facts)")
	}
	graph := pass.Module.Graph
	// cut reports whether propagation stops at fn: hot functions are
	// policed at their own annotation, cold-with-reason ones are exempt.
	cut := func(fn *types.Func) bool {
		fd := graph.Decls[fn]
		if fd == nil {
			return false
		}
		reason, cold := analysis.DirectiveReason([]*ast.CommentGroup{fd.Doc}, "cold")
		return analysis.HasDirective(fd.Doc, "hotpath") || cold && reason != ""
	}

	// Local summaries, in source order. A hot function's own hazards are
	// reported where they stand; a bare //simlint:cold is flagged.
	var fns []*types.Func
	summaries := map[*types.Func]*SummaryFact{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			if reason, ok := analysis.DirectiveReason([]*ast.CommentGroup{fd.Doc}, "cold"); ok && reason == "" {
				pass.Reportf(fd.Pos(), "//simlint:cold needs a reason; a bare annotation does not exempt %s", fn.Name())
			}
			hot := analysis.HasDirective(fd.Doc, "hotpath")
			s := &SummaryFact{}
			walk(pass.TypesInfo, fd, func(pos token.Pos, k kind, what string) {
				if hot {
					pass.Reportf(pos, "%s on a hot path; hot functions must not allocate, box, or format", what)
				}
				s.add(k, fmt.Sprintf("%s at line %d", what, pass.Fset.Position(pos).Line))
			})
			fns = append(fns, fn)
			summaries[fn] = s
		}
	}

	// dirty returns the summary behind a static, un-cut call edge when
	// it carries a hazard. Package-internal callees resolve through the
	// summaries under construction; cross-package ones through imported
	// facts, which dependency-ordered processing has already produced.
	dirty := func(site analysis.CallSite) *SummaryFact {
		if site.Callee == nil || site.Dynamic || cut(site.Callee) {
			return nil
		}
		cs, ok := summaries[site.Callee]
		if !ok {
			cs = &SummaryFact{}
			pass.ImportObjectFact(site.Callee, cs) // stdlib or unresolved: assumed clean (see caveats)
		}
		if !cs.dirty() {
			return nil
		}
		return cs
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			for _, site := range graph.Sites[fn] {
				if cs := dirty(site); cs != nil && summaries[fn].absorb(site.Callee.Name(), cs) {
					changed = true
				}
			}
		}
	}
	for _, fn := range fns {
		s := summaries[fn]
		if cut(fn) {
			s = &SummaryFact{} // cut points export clean summaries: callers trust them
		}
		pass.ExportObjectFact(fn, s)
	}

	// Every static edge out of a hot function into a dirty, un-cut callee.
	for _, fn := range fns {
		if !analysis.HasDirective(graph.Decls[fn].Doc, "hotpath") {
			continue
		}
		for _, site := range graph.Sites[fn] {
			if cs := dirty(site); cs != nil {
				pass.Reportf(site.Pos,
					"hot path calls %s, which %s; annotate the callee //simlint:cold <reason> or make it allocation-free",
					site.Callee.Name(), cs.describe())
			}
		}
	}
	return nil
}

// walk reports every hazard in one function body.
func walk(info *types.Info, fd *ast.FuncDecl, report func(token.Pos, kind, string)) {
	if fd.Body == nil {
		return
	}
	rooted := paramRooted(info, fd)
	callOnly := callOnlyLiterals(info, fd.Body)
	analysis.WithParents(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			report(x.Pos(), allocates, "go statement")
		case *ast.FuncLit:
			if !callOnly[x] && !invoked(x, stack) {
				report(x.Pos(), allocates, "closure may escape (allocates its context)")
			}
		case *ast.UnaryExpr:
			if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok && x.Op == token.AND {
				report(x.Pos(), allocates, "&composite literal")
			}
		case *ast.CompositeLit:
			if t := info.TypeOf(x); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					report(x.Pos(), allocates, "slice/map literal")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isString(info.TypeOf(x)) {
				report(x.Pos(), allocates, "string concatenation")
			}
		case *ast.CallExpr:
			walkCall(info, x, rooted, report)
		case *ast.AssignStmt:
			if x.Tok == token.ASSIGN && len(x.Lhs) == len(x.Rhs) {
				for i, lhs := range x.Lhs {
					if t := info.TypeOf(lhs); boxing(info, t, x.Rhs[i]) {
						report(x.Rhs[i].Pos(), boxes, "concrete value boxed into interface "+t.String()+" on assignment")
					}
				}
			}
		case *ast.ValueSpec:
			if x.Type != nil {
				t := info.TypeOf(x.Type)
				for _, v := range x.Values {
					if boxing(info, t, v) {
						report(v.Pos(), boxes, "concrete value boxed into interface "+t.String()+" in declaration")
					}
				}
			}
		case *ast.ReturnStmt:
			if len(x.Results) == 0 {
				break
			}
			results := resultsOf(info, fd, stack)
			if results.Len() == len(x.Results) { // else one call expanding to several results
				for i, r := range x.Results {
					if t := results.At(i).Type(); boxing(info, t, r) {
						report(r.Pos(), boxes, "concrete value boxed into interface return "+t.String())
					}
				}
			}
		}
		return true
	})
}

// walkCall classifies one call expression: allocating builtins and
// conversions, fmt-family calls, and interface boxing of arguments.
func walkCall(info *types.Info, call *ast.CallExpr, rooted map[types.Object]bool, report func(token.Pos, kind, string)) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		target, arg := tv.Type, call.Args[0]
		at := info.TypeOf(arg)
		switch {
		case boxing(info, target, arg):
			report(call.Pos(), boxes, "conversion boxes concrete value into interface "+target.String())
		case isString(target) && isSlice(at) || isSlice(target) && isString(at):
			report(call.Pos(), allocates, "string conversion")
		}
		return
	}

	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				report(call.Pos(), allocates, b.Name())
			case "append":
				if root := analysis.RootIdent(call.Args[0]); root == nil {
					report(call.Pos(), allocates, "append onto a non-parameter slice")
				} else if !rooted[analysis.ObjectOf(info, root)] {
					report(call.Pos(), allocates, "append onto "+root.Name+", which is not parameter- or receiver-rooted")
				}
			}
			return
		}
	}

	callee, dynamic, _ := analysis.StaticCallee(info, call)
	if callee != nil && !dynamic && callee.Pkg() != nil && fmtPackages[callee.Pkg().Path()] {
		report(call.Pos(), formats, callee.Pkg().Name()+"."+callee.Name()+" call")
		return
	}

	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch last := params.Len() - 1; {
		case sig.Variadic() && i >= last && call.Ellipsis == token.NoPos:
			pt = params.At(last).Type().(*types.Slice).Elem()
		case i <= last:
			pt = params.At(i).Type()
		}
		if boxing(info, pt, arg) {
			report(arg.Pos(), boxes, "concrete value boxed into interface parameter "+pt.String())
		}
	}
}

// paramRooted computes the set of objects rooted in the function's
// receiver or parameters, propagated through local aliases in source
// order (pool := &f.pool keeps pool parameter-rooted). A local bound to
// the result of an append-style call — one whose FIRST argument is a
// rooted slice, like buf := e.intraGroup(e.nonBufs[cur][:0], a, b) —
// inherits rootedness too: by that calling convention the result
// aliases the caller-provided buffer's storage.
func paramRooted(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	rooted := map[types.Object]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					rooted[obj] = true
				}
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)
	if fd.Body == nil {
		return rooted
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, lhs := range assign.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			rhs := assign.Rhs[i]
			if call, ok := rhs.(*ast.CallExpr); ok && len(call.Args) > 0 {
				// Append-style: f(buf, ...) returns storage rooted where
				// buf is.
				rhs = call.Args[0]
			}
			root := analysis.RootIdent(rhs)
			if root == nil {
				continue
			}
			robj := analysis.ObjectOf(info, root)
			if robj == nil || !rooted[robj] {
				continue
			}
			if obj := analysis.ObjectOf(info, id); obj != nil {
				rooted[obj] = true
			}
		}
		return true
	})
	return rooted
}

// callOnlyLiterals finds func literals bound to a local variable whose
// every other use is a direct call — the pattern the compiler keeps off
// the heap.
func callOnlyLiterals(info *types.Info, body *ast.BlockStmt) map[*ast.FuncLit]bool {
	bound := map[types.Object]*ast.FuncLit{}
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, lhs := range assign.Lhs {
			id, isIdent := lhs.(*ast.Ident)
			lit, isLit := assign.Rhs[i].(*ast.FuncLit)
			if isIdent && isLit {
				if obj := analysis.ObjectOf(info, id); obj != nil {
					bound[obj] = lit
				}
			}
		}
		return true
	})
	if len(bound) == 0 {
		return nil
	}
	escaped := map[types.Object]bool{}
	analysis.WithParents(body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if _, isBound := bound[obj]; !isBound {
			return true
		}
		// A use is safe only as the Fun of a call.
		if call, ok := stack[len(stack)-1].(*ast.CallExpr); !ok || call.Fun != id {
			escaped[obj] = true
		}
		return true
	})
	ok := map[*ast.FuncLit]bool{}
	for obj, lit := range bound {
		if !escaped[obj] {
			ok[lit] = true
		}
	}
	return ok
}

// invoked reports whether a func literal is called where it stands:
// func(){...}() or (func(){...})().
func invoked(lit *ast.FuncLit, stack []ast.Node) bool {
	var fun ast.Node = lit
	for i := len(stack) - 1; i >= 0; i-- {
		if p, ok := stack[i].(*ast.ParenExpr); ok {
			fun = p
			continue
		}
		call, ok := stack[i].(*ast.CallExpr)
		return ok && call.Fun == fun
	}
	return false
}

// resultsOf returns the results of the function a return statement
// belongs to: the innermost enclosing literal, else the declaration.
func resultsOf(info *types.Info, fd *ast.FuncDecl, stack []ast.Node) *types.Tuple {
	for i := len(stack) - 1; i >= 0; i-- {
		if lit, ok := stack[i].(*ast.FuncLit); ok {
			return info.TypeOf(lit).(*types.Signature).Results()
		}
	}
	return info.Defs[fd.Name].Type().(*types.Signature).Results()
}

// boxing reports whether assigning v to a target of type t converts a
// concrete (non-interface, non-nil) value to an interface.
func boxing(info *types.Info, t types.Type, v ast.Expr) bool {
	if t == nil || !types.IsInterface(t) {
		return false
	}
	vt := info.TypeOf(v)
	if vt == nil || types.IsInterface(vt) {
		return false
	}
	b, ok := vt.(*types.Basic)
	return !ok || b.Kind() != types.UntypedNil
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}
