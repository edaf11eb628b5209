package ast

import (
	"encoding/binary"
	"io"
	"math"

	"mira/internal/token"
)

// HashNode writes a canonical binary encoding of n — structure, values,
// AND source positions — to w, which is typically a hash.Hash. It is the
// basis of the function-content keys used by the incremental pipeline.
//
// Positions are deliberately part of the encoding: Mira's models are
// position-sensitive. Site multiplicities attach to (line, col) pairs,
// the DWARF-style line table keys instructions by position, and loop
// variables are mangled with their declaration line (the "y_16"
// convention from the paper's Fig. 5). Two functions whose token spelling
// matches but whose layout differs therefore produce different models,
// and must produce different hashes.
//
// Every syntactic field participates, including annotations (their raw
// payload fully determines the parsed form) — an encoding that skipped
// any model-relevant field would alias distinct functions to one cache
// key and serve a wrong cached model.
func HashNode(w io.Writer, n Node) {
	// The encoding is built in one buffer and written once: a hash.Hash
	// behind an interface would otherwise see one call, and one escaping
	// scratch slice, per field.
	var h hasher
	h.node(n)
	w.Write(h.buf)
}

type hasher struct {
	buf []byte
}

func (h *hasher) tag(t byte) { h.buf = append(h.buf, t) }

func (h *hasher) bool(v bool) {
	if v {
		h.tag(1)
	} else {
		h.tag(0)
	}
}

func (h *hasher) int(v int64) { h.buf = binary.AppendVarint(h.buf, v) }

func (h *hasher) uint(v uint64) { h.buf = binary.AppendUvarint(h.buf, v) }

func (h *hasher) str(s string) {
	h.uint(uint64(len(s)))
	h.buf = append(h.buf, s...)
}

func (h *hasher) pos(p token.Pos) {
	h.int(int64(p.Line))
	h.int(int64(p.Col))
}

func (h *hasher) typ(t Type) {
	h.int(int64(t.Kind))
	h.int(int64(t.Ptr))
	h.str(t.ClassName)
}

func (h *hasher) annot(a *Annotation) {
	if a == nil {
		h.tag(0)
		return
	}
	h.tag(1)
	h.pos(a.Pos)
	// Raw is the full payload the parsed fields derive from; hashing it
	// covers every key/value including future additions.
	h.str(a.Raw)
}

// node writes one node (and its subtree). A nil node writes a distinct
// marker so optional children cannot alias shifted siblings.
func (h *hasher) node(n Node) {
	if n == nil || isNilNode(n) {
		h.tag(0)
		return
	}
	switch x := n.(type) {
	case *File:
		h.tag(1)
		h.uint(uint64(len(x.Decls)))
		for _, d := range x.Decls {
			h.node(d)
		}
	case *ClassDecl:
		h.tag(2)
		h.pos(x.ClassPos)
		h.str(x.Name)
		h.uint(uint64(len(x.Fields)))
		for _, f := range x.Fields {
			h.node(f)
		}
		h.uint(uint64(len(x.Methods)))
		for _, m := range x.Methods {
			h.node(m)
		}
	case *FuncDecl:
		h.tag(3)
		h.pos(x.FuncPos)
		h.str(x.Name)
		h.str(x.ClassName)
		h.typ(x.RetType)
		h.bool(x.IsExtern)
		h.bool(x.IsOperator)
		h.uint(uint64(len(x.Params)))
		for _, p := range x.Params {
			h.node(p)
		}
		h.node(x.Body)
	case *Param:
		h.tag(4)
		h.pos(x.ParamPos)
		h.str(x.Name)
		h.typ(x.Type)
		h.bool(x.IsArray)
	case *VarDecl:
		h.tag(5)
		h.pos(x.DeclPos)
		h.typ(x.Type)
		h.bool(x.IsConst)
		h.annot(x.Annot)
		h.uint(uint64(len(x.Names)))
		for _, d := range x.Names {
			h.node(d)
		}
	case *Declarator:
		h.tag(6)
		h.pos(x.NamePos)
		h.str(x.Name)
		h.uint(uint64(len(x.Dims)))
		for _, dim := range x.Dims {
			h.node(dim)
		}
		h.node(x.Init)
	case *BlockStmt:
		h.tag(7)
		h.pos(x.BracePos)
		h.annot(x.Annot)
		h.uint(uint64(len(x.Stmts)))
		for _, s := range x.Stmts {
			h.node(s)
		}
	case *ExprStmt:
		h.tag(8)
		h.annot(x.Annot)
		h.node(x.X)
	case *EmptyStmt:
		h.tag(9)
		h.pos(x.SemiPos)
	case *IfStmt:
		h.tag(10)
		h.pos(x.IfPos)
		h.annot(x.Annot)
		h.node(x.Cond)
		h.node(x.Then)
		h.node(x.Else)
	case *ForStmt:
		h.tag(11)
		h.pos(x.ForPos)
		h.annot(x.Annot)
		h.node(x.Init)
		h.node(x.Cond)
		h.node(x.Post)
		h.node(x.Body)
	case *WhileStmt:
		h.tag(12)
		h.pos(x.WhilePos)
		h.annot(x.Annot)
		h.node(x.Cond)
		h.node(x.Body)
	case *ReturnStmt:
		h.tag(13)
		h.pos(x.ReturnPos)
		h.node(x.X)
	case *BreakStmt:
		h.tag(14)
		h.pos(x.BreakPos)
	case *ContinueStmt:
		h.tag(15)
		h.pos(x.ContinuePos)
	case *Ident:
		h.tag(16)
		h.pos(x.NamePos)
		h.str(x.Name)
	case *IntLit:
		h.tag(17)
		h.pos(x.LitPos)
		h.int(x.Value)
	case *FloatLit:
		h.tag(18)
		h.pos(x.LitPos)
		h.buf = binary.LittleEndian.AppendUint64(h.buf, math.Float64bits(x.Value))
	case *BoolLit:
		h.tag(19)
		h.pos(x.LitPos)
		h.bool(x.Value)
	case *StringLit:
		h.tag(20)
		h.pos(x.LitPos)
		h.str(x.Value)
	case *BinaryExpr:
		h.tag(21)
		h.int(int64(x.Op))
		h.node(x.X)
		h.node(x.Y)
	case *UnaryExpr:
		h.tag(22)
		h.pos(x.OpPos)
		h.int(int64(x.Op))
		h.bool(x.Postfix)
		h.node(x.X)
	case *AssignExpr:
		h.tag(23)
		h.int(int64(x.Op))
		h.node(x.LHS)
		h.node(x.RHS)
	case *CallExpr:
		h.tag(24)
		h.node(x.Fun)
		h.uint(uint64(len(x.Args)))
		for _, a := range x.Args {
			h.node(a)
		}
	case *IndexExpr:
		h.tag(25)
		h.node(x.X)
		h.node(x.Index)
	case *MemberExpr:
		h.tag(26)
		h.str(x.Sel)
		h.bool(x.Arrow)
		h.node(x.X)
	case *ParenExpr:
		h.tag(27)
		h.pos(x.ParenPos)
		h.node(x.X)
	case *CondExpr:
		h.tag(28)
		h.node(x.Cond)
		h.node(x.Then)
		h.node(x.Else)
	default:
		// Unknown future node kinds must not silently alias: emit a
		// distinct tag plus the node's name and position.
		h.tag(255)
		h.str(n.nodeName())
		h.pos(n.Pos())
	}
}

// isNilNode reports whether n is a typed nil inside a non-nil interface
// (e.g. a nil *BlockStmt stored in a Stmt field).
func isNilNode(n Node) bool {
	switch x := n.(type) {
	case *File:
		return x == nil
	case *ClassDecl:
		return x == nil
	case *FuncDecl:
		return x == nil
	case *Param:
		return x == nil
	case *VarDecl:
		return x == nil
	case *Declarator:
		return x == nil
	case *BlockStmt:
		return x == nil
	case *ExprStmt:
		return x == nil
	case *EmptyStmt:
		return x == nil
	case *IfStmt:
		return x == nil
	case *ForStmt:
		return x == nil
	case *WhileStmt:
		return x == nil
	case *ReturnStmt:
		return x == nil
	case *BreakStmt:
		return x == nil
	case *ContinueStmt:
		return x == nil
	case *Ident:
		return x == nil
	case *IntLit:
		return x == nil
	case *FloatLit:
		return x == nil
	case *BoolLit:
		return x == nil
	case *StringLit:
		return x == nil
	case *BinaryExpr:
		return x == nil
	case *UnaryExpr:
		return x == nil
	case *AssignExpr:
		return x == nil
	case *CallExpr:
		return x == nil
	case *IndexExpr:
		return x == nil
	case *MemberExpr:
		return x == nil
	case *ParenExpr:
		return x == nil
	case *CondExpr:
		return x == nil
	}
	return false
}
