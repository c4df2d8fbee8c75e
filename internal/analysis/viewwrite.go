package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
)

// ViewWrite guards the shared-view rule of DESIGN.md §10: a failure
// detector view is read-only and shared — a detector hands the same
// slice to every read for as long as the view is unchanged (fd package
// doc). So outside package fd nothing may write through a view obtained
// from an ATheta or APStar call in the same function:
//
//   - no element or field assignment (v[i] = p, v[i].Number++);
//   - no copy into it (copy(v, src), copy(v[k:], src));
//   - no in-place reordering or removal (slices.Sort*, slices.Reverse,
//     slices.Delete and the like, fd.Normalize, any sort.* call given
//     it);
//   - no append onto a reslice of it (append(v[:0], …)).
//
// A local variable holds a view when its last assignment before the
// write, in source order, is such a call, a reslice of one, or another
// view variable. A view the function built itself — make, a literal,
// Clone(), append onto nil — is its own to write, and so is a variable
// reassigned to one. The tracking is textual and local: it follows no
// loop back-edge, parameter, field or pointer, so it catches the
// ordinary mistake (sorting or patching the view just read), not every
// alias.
var ViewWrite = &Analyzer{
	Name: "viewwrite",
	Doc:  "nothing outside package fd writes through a detector view from ATheta/APStar (views are shared)",
	Run:  runViewWrite,
}

// inPlaceSlices lists the slices functions that write their first
// argument's elements in place.
var inPlaceSlices = map[string]bool{
	"Sort": true, "SortFunc": true, "SortStableFunc": true, "Reverse": true,
	"Delete": true, "DeleteFunc": true, "Compact": true, "CompactFunc": true,
	"Replace": true, "Insert": true,
}

func runViewWrite(pass *Pass) error {
	if pass.PkgBase() == "fd" {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkViewWrites(pass, fn.Body)
			}
		}
	}
	return nil
}

// assignment is one value a local variable takes: rhs, evaluated before
// at (nil when the value comes from a tuple).
type assignment struct {
	at  token.Pos
	rhs ast.Expr
}

// viewScope answers "is this expression a detector view here" for one
// function body.
type viewScope struct {
	pass    *Pass
	assigns map[types.Object][]assignment
}

func checkViewWrites(pass *Pass, body *ast.BlockStmt) {
	s := &viewScope{pass: pass, assigns: make(map[types.Object][]assignment)}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Lhs) == len(n.Rhs) {
					rhs = n.Rhs[i]
				}
				s.record(lhs, rhs, n.End())
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				var rhs ast.Expr
				if len(n.Names) == len(n.Values) {
					rhs = n.Values[i]
				}
				s.record(name, rhs, n.End())
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					s.checkElemWrite(lhs)
				}
			}
		case *ast.IncDecStmt:
			s.checkElemWrite(n.X)
		case *ast.CallExpr:
			s.checkCall(n)
		}
		return true
	})
}

// record notes that the variable lhs names (if it is one) takes rhs's
// value at position at.
func (s *viewScope) record(lhs, rhs ast.Expr, at token.Pos) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := s.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = s.pass.TypesInfo.Uses[id]
	}
	if v, ok := obj.(*types.Var); ok && !v.IsField() {
		s.assigns[v] = append(s.assigns[v], assignment{at: at, rhs: rhs})
	}
}

// isView reports whether e, evaluated at position at, is a detector
// view obtained from ATheta/APStar in this function, or a reslice of
// one.
func (s *viewScope) isView(e ast.Expr, at token.Pos) bool {
	e = ast.Unparen(e)
	for {
		sl, ok := e.(*ast.SliceExpr)
		if !ok {
			break
		}
		e = ast.Unparen(sl.X)
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		return s.isViewCall(e)
	case *ast.Ident:
		obj := s.pass.TypesInfo.Uses[e]
		var last *assignment
		for i, a := range s.assigns[obj] {
			if a.at < at && (last == nil || a.at > last.at) {
				last = &s.assigns[obj][i]
			}
		}
		return last != nil && last.rhs != nil && s.isView(last.rhs, last.at)
	}
	return false
}

// isViewCall reports whether call is an ATheta or APStar call that
// yields an fd.View.
func (s *viewScope) isViewCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "ATheta" && sel.Sel.Name != "APStar") {
		return false
	}
	return isFDView(s.pass.TypesInfo.TypeOf(call))
}

// isFDView reports whether t is the View type of a package named fd.
func isFDView(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "View" && obj.Pkg() != nil && path.Base(obj.Pkg().Path()) == "fd"
}

// checkElemWrite reports lhs if it is an element of a view, or a field
// of one.
func (s *viewScope) checkElemWrite(lhs ast.Expr) {
	e := ast.Unparen(lhs)
	for {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			break
		}
		e = ast.Unparen(sel.X)
	}
	if ix, ok := e.(*ast.IndexExpr); ok && s.isView(ix.X, lhs.Pos()) {
		s.pass.Reportf(lhs.Pos(), "write into a detector view: views from ATheta/APStar are shared and read-only; Clone it first")
	}
}

// checkCall reports copy into a view, append onto a reslice of one, and
// library calls that reorder or remove a view's elements in place.
func (s *viewScope) checkCall(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	dst := ast.Unparen(call.Args[0])
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, builtin := s.pass.TypesInfo.Uses[fun].(*types.Builtin); !builtin {
			return
		}
		switch fun.Name {
		case "copy":
			if s.isView(dst, call.Pos()) {
				s.pass.Reportf(call.Pos(), "copy into a detector view: views from ATheta/APStar are shared and read-only; Clone it first")
			}
		case "append":
			if sl, ok := dst.(*ast.SliceExpr); ok && s.isView(sl.X, call.Pos()) {
				s.pass.Reportf(call.Pos(), "append onto a reslice of a detector view writes into its shared array; append onto a Clone")
			}
		}
	case *ast.SelectorExpr:
		pn, ok := pkgNameOf(s.pass.TypesInfo, fun.X)
		if !ok {
			return
		}
		pkg := pn.Imported().Path()
		inPlace := pkg == "sort" ||
			(pkg == "slices" && inPlaceSlices[fun.Sel.Name]) ||
			(path.Base(pkg) == "fd" && fun.Sel.Name == "Normalize")
		if !inPlace {
			return
		}
		// sort.Sort(byLabel(v)) hands the view over through a conversion.
		if conv, ok := dst.(*ast.CallExpr); ok && len(conv.Args) == 1 {
			if tv, ok := s.pass.TypesInfo.Types[conv.Fun]; ok && tv.IsType() {
				dst = ast.Unparen(conv.Args[0])
			}
		}
		if s.isView(dst, call.Pos()) {
			s.pass.Reportf(call.Pos(), "%s.%s writes a detector view in place: views from ATheta/APStar are shared and read-only; Clone it first", pn.Name(), fun.Sel.Name)
		}
	}
}
