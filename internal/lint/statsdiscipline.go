package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// StatsDiscipline verifies the iosim.Stats ownership contract that keeps
// parallel executors worker-invariant: a Stats value is single-owner and
// mutated only through the package's own methods (Read, BlockFetched, Add,
// ...), with cross-goroutine totals folded in with Add under the owner's
// lock. Outside internal/iosim the analyzer flags every direct field write,
// increment, whole-struct store through a *Stats, and address-of-field —
// including fields promoted through a struct that embeds Stats, such as
// obs.StageCounters; everywhere —
// including iosim itself — it flags sync/atomic calls aimed at a plain
// Stats field, because one atomic access mixed with the package's plain
// writes is a data race by construction.
var StatsDiscipline = &Analyzer{
	Name: "statsdiscipline",
	Doc:  "iosim.Stats is mutated only via its own API; no atomic/plain mixing",
	Run:  runStatsDiscipline,
}

func runStatsDiscipline(p *Package) []Diagnostic {
	var diags []Diagnostic
	inIosim := p.Tail() == "iosim"
	report := func(n ast.Node, msg string) {
		diags = append(diags, Diagnostic{
			Pos:      p.Fset.Position(n.Pos()),
			Analyzer: "statsdiscipline",
			Message:  msg,
		})
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if inIosim {
					return true
				}
				for _, lhs := range n.Lhs {
					if sel, ok := unparen(lhs).(*ast.SelectorExpr); ok {
						if name, ok := statsField(p, sel); ok {
							report(lhs, fmt.Sprintf("direct write to iosim.Stats field %s outside internal/iosim: use the Stats methods (or Add) so worker-invariance holds", name))
						}
					}
					if star, ok := unparen(lhs).(*ast.StarExpr); ok && isStatsPointerDeref(p, star) {
						report(lhs, "whole-struct write through a *iosim.Stats outside internal/iosim: use Reset or Add")
					}
				}
			case *ast.IncDecStmt:
				if inIosim {
					return true
				}
				if sel, ok := unparen(n.X).(*ast.SelectorExpr); ok {
					if name, ok := statsField(p, sel); ok {
						report(n, fmt.Sprintf("direct increment of iosim.Stats field %s outside internal/iosim: use the Stats methods", name))
					}
				}
			case *ast.CallExpr:
				// Outside iosim the address-of rule below already covers
				// atomic calls on Stats fields; this arm catches mixing
				// inside the package itself.
				if !inIosim {
					return true
				}
				if fn := calleeFunc(p, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
					for _, arg := range n.Args {
						if u, ok := unparen(arg).(*ast.UnaryExpr); ok && u.Op.String() == "&" {
							if sel, ok := unparen(u.X).(*ast.SelectorExpr); ok {
								if name, ok := statsField(p, sel); ok {
									report(arg, fmt.Sprintf("sync/atomic access to iosim.Stats field %s: Stats fields are plain by contract (single owner); fold shared totals with Add under a lock", name))
								}
							}
						}
					}
				}
			case *ast.UnaryExpr:
				if inIosim {
					return true
				}
				if n.Op.String() == "&" {
					if sel, ok := unparen(n.X).(*ast.SelectorExpr); ok {
						if name, ok := statsField(p, sel); ok {
							report(n, fmt.Sprintf("address of iosim.Stats field %s taken outside internal/iosim: the field could then be written outside the Stats API", name))
						}
					}
				}
			}
			return true
		})
	}
	return diags
}

// statsField reports whether sel selects a field of iosim.Stats, directly
// or promoted through embedded fields, returning the field name. The
// selection's index path is walked to the struct that declares the
// selected field; that struct must be Stats.
func statsField(p *Package, sel *ast.SelectorExpr) (string, bool) {
	selection := p.Info.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return "", false
	}
	t := selection.Recv()
	path := selection.Index()
	for _, i := range path[:len(path)-1] {
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return "", false
		}
		t = st.Field(i).Type()
	}
	if isIosimStats(t) {
		return sel.Sel.Name, true
	}
	return "", false
}

// isStatsPointerDeref reports whether *expr dereferences a *iosim.Stats.
func isStatsPointerDeref(p *Package, star *ast.StarExpr) bool {
	tv, ok := p.Info.Types[star.X]
	if !ok {
		return false
	}
	ptr, ok := tv.Type.Underlying().(*types.Pointer)
	return ok && isIosimStats(ptr.Elem())
}

// isIosimStats matches the iosim.Stats named type (possibly behind a
// pointer), keyed by package tail so fixtures exercise the analyzer.
func isIosimStats(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Stats" || obj.Pkg() == nil {
		return false
	}
	return pathTail(obj.Pkg().Path()) == "iosim"
}

// calleeFunc resolves a call's static callee, if it is a plain function or
// method.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := p.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

func unparen(e ast.Expr) ast.Expr {
	for {
		paren, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = paren.X
	}
}

func pathTail(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
