// Package sharecap guards the repo's parallel-loop discipline: a
// closure handed to par.ForEach / ForEachCtx — or spawned with a go
// statement inside internal/see or internal/core — runs concurrently
// with its siblings, so writing a captured variable from inside one is
// a data race unless the write goes through the per-slot discipline
// (indexing a shared slice by a closure-local index), a mutex, or an
// atomic.
//
// The analyzer flags assignments, inc/dec and appends whose target
// decomposes to a variable captured from the enclosing function. An
// indexed write whose index expression mentions a closure-local
// variable is the sanctioned per-slot pattern (out[i] = ..., one slot
// per worker) and passes. A write positionally preceded by a .Lock()
// call in the same closure is treated as mutex-guarded. Atomic
// updates are method/function calls, not assignments, so they pass
// naturally. The race detector catches this class of bug only when the
// schedule cooperates; here it is structural.
package sharecap

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

const parPath = "repro/internal/par"

// goScopes lists the package-path suffixes in which bare go statements
// are held to the same captured-write discipline. see and core own the
// deterministic parallel solve; goroutines elsewhere (the service
// worker pool, the driver) have their own synchronization idioms.
var goScopes = []string{"internal/see", "internal/core"}

// parEntry names the par entrypoints whose final argument is a worker
// closure.
var parEntry = map[string]bool{
	"ForEach":    true,
	"ForEachCtx": true,
}

// Analyzer flags unsynchronized writes to captured variables in
// parallel closures.
var Analyzer = &analysis.Analyzer{
	Name: "sharecap",
	Doc:  "closures run by internal/par or spawned in see/core must not write captured variables without per-slot, atomic or mutex discipline",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	inGoScope := false
	for _, scope := range goScopes {
		if analysis.PathMatches(pass.Pkg.Path(), scope) {
			inGoScope = true
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if fn := analysis.Callee(pass.Info, n); fn != nil && parEntry[fn.Name()] &&
					fn.Pkg() != nil && analysis.PathMatches(fn.Pkg().Path(), parPath) && len(n.Args) > 0 {
					if lit, ok := n.Args[len(n.Args)-1].(*ast.FuncLit); ok {
						checkClosure(pass, lit, "closure passed to par."+fn.Name())
					}
				}
			case *ast.GoStmt:
				if inGoScope {
					if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
						checkClosure(pass, lit, "goroutine closure")
					}
				}
			}
			return true
		})
	}
	return nil
}

func checkClosure(pass *analysis.Pass, lit *ast.FuncLit, what string) {
	locals := localObjects(pass.Info, lit)
	lockPositions := collectLocks(lit)
	check := func(target ast.Expr, pos token.Pos) {
		name, captured := capturedTarget(pass.Info, locals, target)
		if !captured {
			return
		}
		for _, lp := range lockPositions {
			if lp < pos {
				return // a Lock() ran earlier in this closure body
			}
		}
		pass.Reportf(pos, "%s writes captured variable %s without per-slot, atomic or mutex discipline", what, name)
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				check(l, n.Pos())
			}
		case *ast.IncDecStmt:
			check(n.X, n.Pos())
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				check(n.Key, n.Pos())
				check(n.Value, n.Pos())
			}
		}
		return true
	})
}

// localObjects collects every object declared inside the closure:
// parameters, named results, and all := / var / range definitions,
// including those of nested literals.
func localObjects(info *types.Info, lit *ast.FuncLit) map[types.Object]bool {
	locals := make(map[types.Object]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				locals[obj] = true
			}
		}
		return true
	})
	return locals
}

// collectLocks records the position of every .Lock() call in the
// closure body: a captured write after one is treated as guarded.
func collectLocks(lit *ast.FuncLit) []token.Pos {
	var out []token.Pos
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Lock" {
			out = append(out, call.Pos())
		}
		return true
	})
	return out
}

// capturedTarget decomposes a write target and reports whether it
// bottoms out at a variable captured from the enclosing function. An
// index step whose index mentions a closure-local variable sanctions
// the write (the per-slot discipline: each worker owns its slots).
func capturedTarget(info *types.Info, locals map[types.Object]bool, e ast.Expr) (string, bool) {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			if t.Name == "_" {
				return "", false
			}
			obj := info.ObjectOf(t)
			if obj == nil || locals[obj] {
				return "", false
			}
			if _, ok := obj.(*types.Var); !ok {
				return "", false
			}
			return t.Name, true
		case *ast.IndexExpr:
			// The per-slot sanction only holds for slices and arrays:
			// distinct indexes are distinct memory. Concurrent map
			// writes race even on distinct keys.
			if mentionsLocal(info, locals, t.Index) && !isMapIndex(info, t) {
				return "", false
			}
			e = t.X
		case *ast.SelectorExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return "", false
		}
	}
}

func isMapIndex(info *types.Info, idx *ast.IndexExpr) bool {
	t := info.TypeOf(idx.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func mentionsLocal(info *types.Info, locals map[types.Object]bool, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil && locals[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}
