package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SinkOwnAnalyzer enforces the lending rule of TraceSink.WriteStep: a
// run lends each StepRec to its sink and recycles the record's pair
// chunks as soon as WriteStep returns, so a WriteStep that takes a
// core.StepRec must not keep the record, its Pairs or its Degree.  In
// such a WriteStep it reports a value that carries any of them when it
// is
//
//   - assigned to a field, an index, a pointer target or a package
//     variable, an append into one included;
//   - sent on a channel;
//   - referred to by a go statement, as an argument or a capture.
//
// Passing the record or its parts to calls and reading them, into
// locals too, stay allowed: a local that receives one is tracked as
// carrying it.  Scalar fields (Label, Messages) and the results of calls
// (slices.Clone(rec.Degree), rec.Pairs.Pairs()) are copies and carry
// nothing, which is how a sink that keeps a record copies it.
var SinkOwnAnalyzer = &Analyzer{
	Name: "sinkown",
	Doc:  "a WriteStep taking a core.StepRec must not store the lent record, its Pairs or its Degree",
	Run:  runSinkOwn,
}

func runSinkOwn(p *Pass) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Name.Name != "WriteStep" {
				continue
			}
			if rec := lentParam(p, fn); rec != nil {
				checkLent(p, fn, rec)
			}
		}
	}
}

// lentParam returns the record parameter of a WriteStep whose one
// parameter is a core.StepRec, or nil.
func lentParam(p *Pass, fn *ast.FuncDecl) types.Object {
	params := fn.Type.Params.List
	if len(params) != 1 || len(params[0].Names) != 1 {
		return nil
	}
	obj := p.Info.Defs[params[0].Names[0]]
	if obj == nil || !isNamedType(types.Unalias(obj.Type()), "netoblivious/internal/core", "StepRec") {
		return nil
	}
	return obj
}

// checkLent walks one WriteStep body in source order.  lent holds the
// record parameter and every local assigned a value that carries it.
func checkLent(p *Pass, fn *ast.FuncDecl, rec types.Object) {
	lent := map[types.Object]bool{rec: true}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true // a multi-value call: its results are fresh
			}
			for i, lhs := range n.Lhs {
				if !carries(p, lent, n.Rhs[i]) {
					continue
				}
				if obj, local := localVar(p, lhs); local {
					if obj != nil {
						lent[obj] = true
					}
					continue
				}
				p.Reportf(lhs.Pos(), "WriteStep stores %s in %s, but the record is lent only until WriteStep returns: copy what you keep",
					types.ExprString(n.Rhs[i]), types.ExprString(lhs))
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) && carries(p, lent, n.Values[i]) {
					if obj := p.Info.Defs[name]; obj != nil {
						lent[obj] = true
					}
				}
			}
		case *ast.SendStmt:
			if carries(p, lent, n.Value) {
				p.Reportf(n.Value.Pos(), "WriteStep sends %s on a channel, but the record is lent only until WriteStep returns: copy what you keep",
					types.ExprString(n.Value))
			}
		case *ast.GoStmt:
			if refersTo(p, lent, n.Call) {
				p.Reportf(n.Pos(), "go statement in WriteStep refers to the lent record %s, which the run recycles when WriteStep returns",
					rec.Name())
				return false
			}
		}
		return true
	})
}

// localVar reports whether an assignment target is a variable declared
// inside the function (the blank identifier included, with a nil
// object), or a field of such a struct variable: storing there keeps
// nothing past the call.  It returns that variable, which from then on
// carries the stored value.
func localVar(p *Pass, lhs ast.Expr) (types.Object, bool) {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return nil, true
		}
		obj := p.Info.ObjectOf(e)
		v, ok := obj.(*types.Var)
		if !ok || v.Parent() == nil || v.Parent() == p.Pkg.Scope() {
			return nil, false
		}
		return obj, true
	case *ast.SelectorExpr:
		t := p.TypeOf(e.X)
		if t == nil {
			return nil, false
		}
		if _, isStruct := t.Underlying().(*types.Struct); !isStruct {
			return nil, false // a field reached through a pointer
		}
		return localVar(p, e.X)
	}
	return nil, false
}

// carries reports whether evaluating e yields a value that holds a
// lent record or one of its reference parts.
func carries(p *Pass, lent map[types.Object]bool, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return lent[p.Info.ObjectOf(e)]
	case *ast.SelectorExpr:
		return carriesPart(p, lent, e.X, e)
	case *ast.IndexExpr:
		return carriesPart(p, lent, e.X, e)
	case *ast.StarExpr:
		return carriesPart(p, lent, e.X, e)
	case *ast.SliceExpr:
		return carries(p, lent, e.X)
	case *ast.UnaryExpr:
		return e.Op == token.AND && carries(p, lent, e.X)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if carries(p, lent, elt) {
				return true
			}
		}
		return false
	case *ast.FuncLit:
		return refersTo(p, lent, e.Body)
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, builtin := p.Info.ObjectOf(id).(*types.Builtin); builtin {
				for _, arg := range e.Args {
					if carries(p, lent, arg) {
						return true
					}
				}
			}
		}
		return false // any other call's result is its own
	}
	return false
}

// carriesPart reports whether part, a field, element or pointer target
// of whole, carries a lent value: it does when whole does, unless it is
// a scalar, which the reader holds as its own copy.
func carriesPart(p *Pass, lent map[types.Object]bool, whole, part ast.Expr) bool {
	if !carries(p, lent, whole) {
		return false
	}
	t := p.TypeOf(part)
	if t == nil {
		return true
	}
	_, basic := t.Underlying().(*types.Basic)
	return !basic
}

// refersTo reports whether n mentions a lent variable anywhere.
func refersTo(p *Pass, lent map[types.Object]bool, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && lent[p.Info.ObjectOf(id)] {
			found = true
		}
		return !found
	})
	return found
}
