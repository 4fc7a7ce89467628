package lint

import (
	"go/ast"
	"go/types"
)

// MapOrderAnalyzer flags `for range` over a map inside any function
// reachable (through same-package references) from a byte-determinism
// root — a function annotated //nob:deterministic.  The repository's
// deterministic-output surfaces (the network routing entry points, the
// trace codecs, the /metrics renderers and the Chrome trace export)
// carry the annotation, because their output is cache
// keys and golden-compared artifacts: one map-ordered iteration there
// is a phantom nondeterminism of exactly the kind the old simulator
// shipped.
//
// Two shapes are exempt without a directive, because map order cannot
// leak through them:
//
//   - the collect-keys idiom, `for k := range m { ks = append(ks, k) }`,
//     whose product is sorted before use (the analyzer checks the shape,
//     not the later sort — pair it with sort.Strings or slices.Sort);
//   - `for range m { ... }` with neither key nor value bound: the body
//     runs len(m) identical times.
//
// Anything else needs `//nolint:maporder // reason`.
var MapOrderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc:  "map iteration in code reachable from a //nob:deterministic root must collect-and-sort keys",
	Run:  runMapOrder,
}

func runMapOrder(p *Pass) {
	decls := funcDecls(p)
	// Roots: annotated declarations.
	roots := map[*types.Func]bool{}
	for obj, fn := range decls {
		if FuncAnnotated(fn, "deterministic") {
			roots[obj] = true
		}
	}
	if len(roots) == 0 {
		return
	}
	// Reachability over same-package references, remembering one root
	// per reached function for the diagnostic.
	via := map[*types.Func]*types.Func{}
	var queue []*types.Func
	for r := range roots {
		via[r] = r
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		fn, ok := decls[cur]
		if !ok {
			continue
		}
		for _, callee := range samePkgRefs(p, fn) {
			if _, seen := via[callee]; !seen {
				via[callee] = via[cur]
				queue = append(queue, callee)
			}
		}
	}
	for obj, root := range via {
		fn, ok := decls[obj]
		if !ok {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if mapRangeIsBenign(p, rng) {
				return true
			}
			p.Reportf(rng.Pos(),
				"range over map in %s, reachable from deterministic-output root %s; collect keys and sort them first",
				obj.Name(), root.Name())
			return true
		})
	}
}

// mapRangeIsBenign recognizes the two order-insensitive map-range
// shapes described in the analyzer doc.
func mapRangeIsBenign(p *Pass, rng *ast.RangeStmt) bool {
	keyID, keyBound := boundIdent(rng.Key)
	_, valBound := boundIdent(rng.Value)
	if !keyBound && !valBound {
		// for range m {}: the body cannot observe the order.
		return true
	}
	if valBound || !keyBound || len(rng.Body.List) != 1 {
		return false
	}
	// Exactly `ks = append(ks, k)` (the key alone, no derived values).
	asg, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fun, ok := call.Fun.(*ast.Ident)
	if !ok || fun.Name != "append" {
		return false
	}
	if b, ok := p.Info.Uses[fun].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	if !ok || keyID == nil {
		return false
	}
	return p.Info.Uses[arg] == p.Info.Defs[keyID]
}

// boundIdent resolves a range clause slot to its identifier, reporting
// whether the slot binds a usable name (i.e. is present and not "_").
func boundIdent(e ast.Expr) (*ast.Ident, bool) {
	if e == nil {
		return nil, false
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil, true // destructuring into a selector/index: bound
	}
	if id.Name == "_" {
		return nil, false
	}
	return id, true
}
