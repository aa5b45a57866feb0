package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// BenchMetric enforces the bench-suite hygiene the perf PRs
// established by hand: every benchmark (including b.Run
// sub-benchmarks) calls b.ReportAllocs() so allocs/op shows in every
// bench run and profile, and any benchmark that runs setup helpers
// before its b.N loop calls b.ResetTimer() (or b.StartTimer()) after
// the last of them, so construction cost never pollutes ns/op.
// Benchmarks driven by b.Loop() are exempt from the timer rule (Loop
// resets the timer itself); a deliberate exception can be annotated
// with //v6lint:benchmetric <reason> on the benchmark's line.
var BenchMetric = &Analyzer{
	Name: "benchmetric",
	Doc:  "benchmarks must b.ReportAllocs() and b.ResetTimer() after pre-loop setup",
	Run:  runBenchMetric,
}

func runBenchMetric(pass *Pass) error {
	for _, file := range pass.Files {
		if !pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv != nil {
				continue
			}
			if !strings.HasPrefix(fd.Name.Name, "Benchmark") {
				continue
			}
			b := benchParam(pass, fd.Type)
			if b == nil {
				continue
			}
			checkBenchUnit(pass, fd.Name.Name, fd.Name.Pos(), b, fd.Body)
		}
	}
	return nil
}

// benchParam returns the *testing.B parameter object of a
// benchmark-shaped function type, or nil.
func benchParam(pass *Pass, ft *ast.FuncType) *types.Var {
	if ft.Params == nil || len(ft.Params.List) != 1 {
		return nil
	}
	f := ft.Params.List[0]
	if len(f.Names) != 1 {
		return nil
	}
	v, ok := pass.Info.Defs[f.Names[0]].(*types.Var)
	if !ok {
		return nil
	}
	ptr, ok := v.Type().(*types.Pointer)
	if !ok {
		return nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	if named.Obj().Pkg().Path() != "testing" || named.Obj().Name() != "B" {
		return nil
	}
	return v
}

// checkBenchUnit applies the two rules to one benchmark unit (a
// Benchmark function or a b.Run sub-benchmark literal). Nested b.Run
// literals are recursed into and excluded from the enclosing unit's
// own scan.
func checkBenchUnit(pass *Pass, name string, pos token.Pos, b *types.Var, body *ast.BlockStmt) {
	if _, ok := pass.Annotated(pos, "benchmetric"); ok {
		return
	}

	var subLits []*ast.FuncLit
	inSub := func(p token.Pos) bool {
		for _, lit := range subLits {
			if lit.Pos() <= p && p < lit.End() {
				return true
			}
		}
		return false
	}

	// First pass: find b.Run sub-benchmarks and recurse.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !isBMethodCall(pass, call, b, "Run") || len(call.Args) != 2 {
			return true
		}
		lit, ok := unparen(call.Args[1]).(*ast.FuncLit)
		if !ok {
			return true
		}
		if inSub(lit.Pos()) {
			return true // nested b.Run handled by the recursion
		}
		subLits = append(subLits, lit)
		subName := name + "/sub"
		if litB := benchParam(pass, lit.Type); litB != nil {
			checkBenchUnit(pass, subName, lit.Pos(), litB, lit.Body)
		}
		return false
	})

	// Find this unit's own benchmark loop: the first for/range
	// statement mentioning b.N, or a b.Loop() call.
	var loopPos token.Pos
	usesLoop := false
	ast.Inspect(body, func(n ast.Node) bool {
		if loopPos.IsValid() || (n != nil && inSub(n.Pos())) {
			return false
		}
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if mentionsBN(pass, n, b) {
				loopPos = n.Pos()
				return false
			}
		case *ast.CallExpr:
			if isBMethodCall(pass, n, b, "Loop") {
				loopPos = n.Pos()
				usesLoop = true
				return false
			}
		}
		return true
	})

	if !loopPos.IsValid() {
		if len(subLits) == 0 {
			pass.Reportf(pos, "benchmark %s has no b.N/b.Loop loop and no b.Run sub-benchmarks", name)
		}
		return // pure b.Run driver: rules apply to the sub-benchmarks
	}

	// Rule 1: ReportAllocs in this unit's own body (sub-benchmarks
	// need their own; testing.B.Run children do not inherit it).
	hasReport := false
	ast.Inspect(body, func(n ast.Node) bool {
		if hasReport || (n != nil && inSub(n.Pos())) {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isBMethodCall(pass, call, b, "ReportAllocs") {
			hasReport = true
			return false
		}
		return true
	})
	if !hasReport {
		pass.Reportf(pos, "benchmark %s does not call %s.ReportAllocs(): every bench run reports allocs/op", name, b.Name())
	}

	if usesLoop {
		return // b.Loop() resets the timer itself on first call
	}

	// Rule 2: setup helpers before the loop require a ResetTimer (or
	// StartTimer) after the last of them.
	var lastSetup token.Pos
	var resetPos token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if n.Pos() >= loopPos || inSub(n.Pos()) {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a closure defined (not called) pre-loop does no work
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isBMethodCall(pass, call, b, "ResetTimer"), isBMethodCall(pass, call, b, "StartTimer"):
			if call.Pos() > resetPos {
				resetPos = call.Pos()
			}
			return true
		case isAnyBMethodCall(pass, call, b):
			return true // b.SetBytes, b.Skip, b.ReportMetric, ... are not setup
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil {
			// Builtin or type conversion; only allocation-shaped
			// builtins count as setup.
			if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "make" {
				if call.Pos() > lastSetup {
					lastSetup = call.Pos()
				}
			}
			return true
		}
		if call.Pos() > lastSetup {
			lastSetup = call.Pos()
		}
		return true
	})
	if !lastSetup.IsValid() {
		return // no setup before the loop; nothing to reset
	}
	switch {
	case !resetPos.IsValid():
		pass.Reportf(loopPos,
			"benchmark %s runs setup before its b.N loop without %s.ResetTimer(): setup cost pollutes ns/op", name, b.Name())
	case resetPos < lastSetup:
		pass.Reportf(resetPos,
			"%s.ResetTimer() precedes later setup work in %s: move it after the last setup call before the loop", b.Name(), name)
	}
}

// mentionsBN reports whether the loop header or body references b.N.
func mentionsBN(pass *Pass, loop ast.Node, b *types.Var) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "N" {
			return true
		}
		if id, ok := unparen(sel.X).(*ast.Ident); ok && pass.Info.ObjectOf(id) == b {
			found = true
			return false
		}
		return true
	})
	return found
}

// isBMethodCall reports whether call is b.<name>(...) on the given
// *testing.B parameter.
func isBMethodCall(pass *Pass, call *ast.CallExpr, b *types.Var, name string) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := unparen(sel.X).(*ast.Ident)
	return ok && pass.Info.ObjectOf(id) == b
}

// isAnyBMethodCall reports whether call is any method call on b.
func isAnyBMethodCall(pass *Pass, call *ast.CallExpr, b *types.Var) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := unparen(sel.X).(*ast.Ident)
	return ok && pass.Info.ObjectOf(id) == b
}
