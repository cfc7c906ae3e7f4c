package hotpathalloc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/hotpathalloc"
)

// zeroAllocBenchmarks are the internal/pg benchmarks pinned at
// 0 allocs/op (BenchmarkClone is deliberately absent: cloning
// allocates by design). Every Flow method they drive must carry the
// //hca:hotpath directive.
var zeroAllocBenchmarks = []string{
	"BenchmarkAssignRollback",
	"BenchmarkEstimateMII",
	"BenchmarkObjectiveTerms",
	"BenchmarkCopyFrom",
}

// TestBenchmarkedMethodsAreAnnotated pins the //hca:hotpath annotation
// set to the 0-allocs/op benchmarks: every Flow method a pinned
// benchmark drives must carry the directive, so the analyzer's coverage
// cannot silently drift from the benchmarks. The method set is derived
// mechanically from each benchmark's AST, not hardcoded.
func TestBenchmarkedMethodsAreAnnotated(t *testing.T) {
	pgDir := filepath.Join("..", "..", "pg")
	fset := token.NewFileSet()

	benchFile, err := parser.ParseFile(fset, filepath.Join(pgDir, "bench_test.go"), nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	annotated := annotatedFuncs(t, fset, pgDir)
	for _, name := range zeroAllocBenchmarks {
		bench := findFunc(benchFile, name)
		if bench == nil {
			t.Fatalf("%s not found in internal/pg/bench_test.go", name)
		}
		// The flow under test is the first value returned by halfAssigned
		// (or a scratch flow seeded from it); collect every method
		// selector invoked on either inside the b.N loop.
		methods := methodsCalledOnFlow(bench)
		if len(methods) == 0 {
			t.Fatalf("no Flow methods found in %s; did the benchmark change shape?", name)
		}
		for m := range methods {
			if !annotated[m] {
				t.Errorf("pg.Flow.%s is driven by %s (pinned at 0 allocs/op) but lacks a %s directive", m, name, hotpathalloc.Directive)
			}
		}
	}
}

// exactHotFuncs are the solver methods that form the exact engine's
// branch-and-bound core — the same checkpoint → assign → rollback cycle
// BenchmarkAssignRollback pins at 0 allocs/op, replayed millions of
// times per solve.
var exactHotFuncs = []string{"dfs", "evalChildren", "evalClusters", "directFeasible", "boundDelta"}

// exactColdEdges are Flow methods the exact core is allowed to call
// without a hotpath annotation: both run only on incumbent
// improvement (a handful of times per solve) and allocate/free by
// design, so annotating them would be a lie the analyzer enforces.
var exactColdEdges = map[string]bool{"Clone": true, "Release": true}

// TestExactEngineHotLoopIsAnnotated closes the annotation set under the
// exact engine's reuse of the benchmarked hot path: every Flow method
// the branch-and-bound core drives on its working flow (s.f / f) must
// carry //hca:hotpath, minus the documented cold edges. Derived from
// internal/exact's AST, so a new method call in the solver loop fails
// here until internal/pg annotates (and thus allocation-sweeps) it.
func TestExactEngineHotLoopIsAnnotated(t *testing.T) {
	fset := token.NewFileSet()
	exactFile, err := parser.ParseFile(fset, filepath.Join("..", "..", "exact", "exact.go"), nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	annotated := annotatedFuncs(t, fset, filepath.Join("..", "..", "pg"))

	methods := map[string]bool{}
	for _, name := range exactHotFuncs {
		fd := findFunc(exactFile, name)
		if fd == nil {
			t.Fatalf("solver.%s not found in internal/exact/exact.go; did the solver change shape?", name)
		}
		for m := range methodsCalledOnWorkingFlow(fd) {
			methods[m] = true
		}
	}
	if len(methods) == 0 {
		t.Fatal("no Flow methods found in the exact solver core; did the receiver naming change?")
	}
	for m := range methods {
		if exactColdEdges[m] {
			continue
		}
		if !annotated[m] {
			t.Errorf("pg.Flow.%s is driven by the exact engine's branch-and-bound core (which reuses the BenchmarkAssignRollback hot path) but lacks a %s directive", m, hotpathalloc.Directive)
		}
	}
}

// methodsCalledOnWorkingFlow collects method names invoked on the exact
// solver's working flow: the `s.f` field or a local `f` bound to it.
func methodsCalledOnWorkingFlow(fd *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch x := sel.X.(type) {
		case *ast.Ident:
			if x.Name == "f" {
				out[sel.Sel.Name] = true
			}
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && id.Name == "s" && x.Sel.Name == "f" {
				out[sel.Sel.Name] = true
			}
		}
		return true
	})
	return out
}

func findFunc(f *ast.File, name string) *ast.FuncDecl {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd
		}
	}
	return nil
}

// methodsCalledOnFlow collects the names of methods called on the `f`
// or `scratch` identifiers (the benchmarked Flow and its pooled twin)
// inside the function body.
func methodsCalledOnFlow(fd *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && (id.Name == "f" || id.Name == "scratch") {
			out[sel.Sel.Name] = true
		}
		return true
	})
	return out
}

// annotatedFuncs returns the names of every function/method in the
// package directory whose doc comment carries the hotpath directive.
func annotatedFuncs(t *testing.T, fset *token.FileSet, dir string) map[string]bool {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && hotpathalloc.IsHotPath(fd) {
				out[fd.Name.Name] = true
			}
		}
	}
	return out
}
