// Package memodisc enforces the engine/memo discipline:
//
//  1. Every core.AttemptKey composite literal must set Engine — in the
//     literal itself or by an unconditional `k.Engine = ...` before the
//     key is used. Attempts solved by different engines are different
//     subproblems; an engine-less key lets a beam result satisfy an
//     exact lookup (or vice versa), silently contaminating the memo.
//  2. A function that Completes a subproblem memo entry must also be
//     able to Abandon it: a cancelled attempt's result is not the
//     subproblem's answer, and without an Abandon path it could only be
//     published or leave its waiters blocked.
//
// The service's result-cache key needs no rule: it hashes the whole
// normalized option spec, so every field reaches it by construction.
package memodisc

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/pathcheck"
)

const corePath = "repro/internal/core"

// Analyzer enforces memo/engine discipline.
var Analyzer = &analysis.Analyzer{
	Name: "memodisc",
	Doc:  "AttemptKey constructions must set Engine, and memo Complete callers must have an Abandon path",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkKeyConstruction(pass, n.Body)
					checkCompleteGuard(pass, n)
				}
			case *ast.FuncLit:
				checkKeyConstruction(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

// --- rule 1: AttemptKey constructions set Engine ---

// isAttemptKeyLit reports whether e is a composite literal of
// core.AttemptKey that does not already set Engine (either via the
// Engine key or by being fully positional).
func isAttemptKeyLit(info *types.Info, e ast.Expr) (*ast.CompositeLit, bool) {
	lit, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok {
		return nil, false
	}
	tv, ok := info.Types[lit]
	if !ok {
		return nil, false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Name() != "AttemptKey" || named.Obj().Pkg() == nil ||
		!analysis.PathMatches(named.Obj().Pkg().Path(), corePath) {
		return nil, false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, false
	}
	if len(lit.Elts) > 0 {
		if _, isKV := lit.Elts[0].(*ast.KeyValueExpr); !isKV {
			// Positional literal: legal only when every field is given,
			// so Engine is among them.
			return lit, len(lit.Elts) != st.NumFields()
		}
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Engine" {
			return lit, false
		}
	}
	return lit, true
}

// checkKeyConstruction anchors every engine-less AttemptKey literal in
// body. A literal bound to a plain identifier is tracked through the
// lattice: the key may be mutated (flags, budget) but any use —
// passing it, returning it, copying it, reading a field — before an
// unconditional `k.Engine = ...` is reported. A literal that is not
// bound to an identifier has no later chance to set Engine and is
// reported immediately.
func checkKeyConstruction(pass *analysis.Pass, body *ast.BlockStmt) {
	anchored := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return false // nested literals get their own walk
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Rhs {
					lit, missing := isAttemptKeyLit(pass.Info, n.Rhs[i])
					if lit == nil || !missing {
						continue
					}
					id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
					if !ok || id.Name == "_" {
						pass.Reportf(lit.Pos(), "AttemptKey constructed without Engine; engine-less keys let one engine's result satisfy another's lookup")
						continue
					}
					if obj := pass.Info.ObjectOf(id); obj != nil {
						anchored[obj] = true
					}
				}
			}
			return true
		case *ast.CompositeLit:
			// Literals not caught above (arguments, returns, struct
			// fields, slice elements) cannot gain an Engine afterwards.
			if inner, missing := isAttemptKeyLit(pass.Info, n); inner != nil && missing && !isAssignedRHS(body, n) {
				pass.Reportf(n.Pos(), "AttemptKey constructed without Engine; engine-less keys let one engine's result satisfy another's lookup")
				_ = inner
			}
		}
		return true
	})
	for obj := range anchored {
		trackKey(pass, body, obj)
	}
}

// isAssignedRHS reports whether lit is directly the RHS of a 1:1
// assignment in body (then checkKeyConstruction anchors it instead of
// reporting it inline).
func isAssignedRHS(body *ast.BlockStmt, lit *ast.CompositeLit) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for _, r := range as.Rhs {
				if ast.Unparen(r) == lit {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// trackKey runs the lattice for one anchored key variable. The state
// machine reuses the release lattice with inverted reading: "released"
// means "constructed with Engine unset"; assigning k.Engine is the
// kill that makes the key safe; any use while unset is reported.
func trackKey(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) {
	name := obj.Name()
	lc := &pathcheck.LifeChecker{
		Classify: func(n ast.Node) pathcheck.Effect {
			var eff pathcheck.Effect
			switch s := n.(type) {
			case *ast.AssignStmt:
				for i, l := range s.Lhs {
					l = ast.Unparen(l)
					if sel, ok := l.(*ast.SelectorExpr); ok {
						base, isID := ast.Unparen(sel.X).(*ast.Ident)
						if isID && pass.Info.ObjectOf(base) == obj {
							if sel.Sel.Name == "Engine" {
								eff.Kill = true // the settle
							}
							// Writes to other fields (Flags, Budget)
							// mutate the key in place: neutral.
							continue
						}
					}
					if id, ok := l.(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
						eff.Kill = true
						if len(s.Lhs) == len(s.Rhs) {
							if _, missing := isAttemptKeyLit(pass.Info, s.Rhs[i]); missing {
								eff.Release = true // re-anchored engine-less
							}
						}
					}
				}
				for i, r := range s.Rhs {
					// The anchored literal itself mentions nothing; a
					// copy from k while unset propagates the bug.
					if lit, _ := isAttemptKeyLit(pass.Info, r); lit != nil && len(s.Lhs) == len(s.Rhs) {
						if id, ok := ast.Unparen(s.Lhs[i]).(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
							continue
						}
					}
					if mentionsObj(pass.Info, obj, r) {
						eff.Use = true
					}
				}
			case *ast.DeclStmt:
				if declaresObj(pass.Info, obj, s) {
					eff.Kill = true
				}
			case ast.Node:
				if mentionsObj(pass.Info, obj, s) {
					eff.Use = true
				}
			}
			return eff
		},
	}
	for _, v := range pathcheck.CheckLife(lc, body) {
		if v.Code == pathcheck.UseAfterRelease {
			pass.Reportf(v.Pos, "AttemptKey %s may be used before Engine is set; set k.Engine before the key leaves this function", name)
		}
	}
}

func mentionsObj(info *types.Info, obj types.Object, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

func declaresObj(info *types.Info, obj types.Object, s *ast.DeclStmt) bool {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return false
	}
	for _, spec := range gd.Specs {
		if vs, ok := spec.(*ast.ValueSpec); ok {
			for _, name := range vs.Names {
				if info.Defs[name] == obj {
					return true
				}
			}
		}
	}
	return false
}

// --- rule 2: Complete callers can Abandon ---

// memoTypes are the receiver type names whose Complete/Abandon calls
// carry the memo protocol.
var memoTypes = []string{"SubproblemMemo", "Memo"}

func isMemoMethod(info *types.Info, call *ast.CallExpr, method string) bool {
	fn := analysis.Callee(info, call)
	for _, tn := range memoTypes {
		if analysis.IsMethodOn(fn, corePath, tn, method) {
			return true
		}
	}
	return false
}

// checkCompleteGuard requires every function that calls Complete on a
// memo to call Abandon on some path. solveAttempt is the shape: a
// cancelled attempt is Abandoned so waiters retry, and only finished
// results Complete.
func checkCompleteGuard(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Recv != nil {
		// Methods on the memo types themselves implement the protocol;
		// the rule targets their callers.
		if id := receiverTypeName(fd); id != "" {
			for _, tn := range memoTypes {
				if id == tn {
					return
				}
			}
		}
	}
	var completes []*ast.CallExpr
	hasAbandon := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if isMemoMethod(pass.Info, call, "Complete") {
				completes = append(completes, call)
			}
			if isMemoMethod(pass.Info, call, "Abandon") {
				hasAbandon = true
			}
		}
		return true
	})
	if hasAbandon {
		return
	}
	for _, call := range completes {
		pass.Reportf(call.Pos(), "memo Complete without an Abandon path; a cancelled attempt has no way out of the protocol")
	}
}

func receiverTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
