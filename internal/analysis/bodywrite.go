package analysis

import (
	"go/ast"
	"go/types"
	"path"
)

// BodyWrite guards the shared-bytes rule of DESIGN.md §3: a
// wire.Message's Body is never a private copy — a decoded message
// borrows it from the received frame, which other receivers may share,
// and a built one aliases its MsgID's immutable string bytes, which key
// the algorithms' message table and may sit in read-only memory. So
// outside package wire nothing may write through a Body:
//
//   - no index assignment (m.Body[i] = x, m.Body[i]++, m.Body[i] ^= x);
//   - no copy into it (copy(m.Body, src), copy(m.Body[k:], src));
//   - no append onto a reslice of it (append(m.Body[:0], …)): that
//     writes in place whenever the reslice is shorter than the body.
//
// append(m.Body, …) is fine — every Body has its capacity clipped, so it
// reallocates. A writer copies first (bytes.Clone, Message.ID).
var BodyWrite = &Analyzer{
	Name: "bodywrite",
	Doc:  "nothing outside package wire writes through a wire.Message's Body (its bytes are shared)",
	Run:  runBodyWrite,
}

func runBodyWrite(pass *Pass) error {
	if pass.PkgBase() == "wire" {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkBodyIndexWrite(pass, lhs)
				}
			case *ast.IncDecStmt:
				checkBodyIndexWrite(pass, n.X)
			case *ast.CallExpr:
				checkBodyCall(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkBodyIndexWrite reports lhs if it is an element of a Body.
func checkBodyIndexWrite(pass *Pass, lhs ast.Expr) {
	if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMessageBody(pass, ix.X) {
		pass.Reportf(lhs.Pos(), "write into a wire.Message's Body: its bytes are shared with the frame or the MsgID; copy it first")
	}
}

// checkBodyCall reports copy into a Body and append onto a reslice of one.
func checkBodyCall(pass *Pass, call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return
	}
	if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); !builtin {
		return
	}
	dst := ast.Unparen(call.Args[0])
	switch id.Name {
	case "copy":
		if isMessageBody(pass, dst) {
			pass.Reportf(call.Pos(), "copy into a wire.Message's Body: its bytes are shared with the frame or the MsgID; copy it first")
		}
	case "append":
		if s, ok := dst.(*ast.SliceExpr); ok && isMessageBody(pass, s.X) {
			pass.Reportf(call.Pos(), "append onto a reslice of a wire.Message's Body writes into shared bytes; append onto a copy")
		}
	}
}

// isMessageBody reports whether e is the Body field of a wire.Message,
// or a reslice of it.
func isMessageBody(pass *Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	for {
		s, ok := e.(*ast.SliceExpr)
		if !ok {
			break
		}
		e = ast.Unparen(s.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Body" {
		return false
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return false
	}
	// Compare field objects rather than receiver types, so a Body
	// promoted through an embedded wire.Message counts too.
	field := selection.Obj()
	if field.Pkg() == nil || path.Base(field.Pkg().Path()) != "wire" {
		return false
	}
	msg, ok := field.Pkg().Scope().Lookup("Message").(*types.TypeName)
	if !ok {
		return false
	}
	st, ok := msg.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == field {
			return true
		}
	}
	return false
}
