// Package ast defines the MiniC source abstract syntax tree.
//
// The tree mirrors the role of ROSE's source AST in the paper (Fig. 2): it
// preserves high-level structure — classes, functions, loop SCoPs, branch
// conditions, variable names — together with exact source positions, which
// the bridge (internal/bridge) later uses to associate compiled instructions
// with statements. User annotations (paper Sec. III-C4) are parsed from
// "#pragma @Annotation {...}" directives and attached to the following
// statement.
package ast

import (
	"bytes"
	"strconv"
	"strings"

	"mira/internal/token"
)

// Node is implemented by every AST node.
type Node interface {
	Pos() token.Pos
	nodeName() string
}

// ---------------------------------------------------------------------------
// Types

// BasicKind enumerates MiniC scalar types.
type BasicKind int

// Basic type kinds.
const (
	Invalid BasicKind = iota
	Void
	Int    // 64-bit signed (int and long are both modeled as 64-bit)
	Double // 64-bit float (float is widened to double)
	Bool
	Class // user-defined class type; Type.ClassName holds the name
)

func (k BasicKind) String() string {
	switch k {
	case Void:
		return "void"
	case Int:
		return "int"
	case Double:
		return "double"
	case Bool:
		return "bool"
	case Class:
		return "class"
	}
	return "invalid"
}

// Type is a MiniC type: a basic kind plus pointer depth.
type Type struct {
	Kind      BasicKind
	Ptr       int    // pointer indirection level
	ClassName string // set when Kind == Class
}

func (t Type) String() string {
	base := t.Kind.String()
	if t.Kind == Class {
		base = t.ClassName
	}
	return base + strings.Repeat("*", t.Ptr)
}

// IsNumeric reports whether the type is a scalar number.
func (t Type) IsNumeric() bool {
	return t.Ptr == 0 && (t.Kind == Int || t.Kind == Double || t.Kind == Bool)
}

// IsPointer reports whether the type has pointer indirection.
func (t Type) IsPointer() bool { return t.Ptr > 0 }

// Elem returns the pointee type.
func (t Type) Elem() Type {
	if t.Ptr == 0 {
		return Type{Kind: Invalid}
	}
	e := t
	e.Ptr--
	return e
}

// TypeOf constructors for common cases.
var (
	TypeInt    = Type{Kind: Int}
	TypeDouble = Type{Kind: Double}
	TypeBool   = Type{Kind: Bool}
	TypeVoid   = Type{Kind: Void}
)

// ---------------------------------------------------------------------------
// Declarations

// File is a parsed translation unit.
type File struct {
	Name    string // file name used in diagnostics and the line table
	Decls   []Decl
	FilePos token.Pos
}

func (f *File) Pos() token.Pos { return f.FilePos }
func (*File) nodeName() string { return "File" }

// Decl is a top-level declaration.
type Decl interface {
	Node
	declNode()
}

// ClassDecl declares a class with fields and methods.
type ClassDecl struct {
	Name     string
	Fields   []*VarDecl
	Methods  []*FuncDecl
	ClassPos token.Pos
}

func (d *ClassDecl) Pos() token.Pos { return d.ClassPos }
func (*ClassDecl) nodeName() string { return "ClassDecl" }
func (*ClassDecl) declNode()        {}

// Param is a function parameter.
type Param struct {
	Name     string
	Type     Type
	IsArray  bool // declared with [] suffix: decays to pointer
	ParamPos token.Pos
}

func (p *Param) Pos() token.Pos { return p.ParamPos }
func (*Param) nodeName() string { return "Param" }

// FuncDecl declares a function or a class method.
type FuncDecl struct {
	Name       string // "operator()" for call operators
	ClassName  string // non-empty for methods
	RetType    Type
	Params     []*Param
	Body       *BlockStmt // nil for extern declarations
	IsExtern   bool       // extern library function: body invisible to static analysis
	IsOperator bool
	FuncPos    token.Pos
}

func (d *FuncDecl) Pos() token.Pos { return d.FuncPos }
func (*FuncDecl) nodeName() string { return "FuncDecl" }
func (*FuncDecl) declNode()        {}

// QualifiedName returns the model-facing function name, e.g. "A::foo".
func (d *FuncDecl) QualifiedName() string {
	if d.ClassName != "" {
		return d.ClassName + "::" + d.Name
	}
	return d.Name
}

// Declarator is one declared name within a VarDecl.
type Declarator struct {
	Name    string
	Dims    []Expr // array dimensions, outermost first; empty for scalars
	Init    Expr   // optional initializer
	NamePos token.Pos
}

func (d *Declarator) Pos() token.Pos { return d.NamePos }
func (*Declarator) nodeName() string { return "Declarator" }

// VarDecl declares one or more variables. It appears both at top level
// (globals) and as a statement (locals).
type VarDecl struct {
	Type    Type
	IsConst bool
	Names   []*Declarator
	Annot   *Annotation
	DeclPos token.Pos
}

func (d *VarDecl) Pos() token.Pos { return d.DeclPos }
func (*VarDecl) nodeName() string { return "VarDecl" }
func (*VarDecl) declNode()        {}
func (*VarDecl) stmtNode()        {}

// ---------------------------------------------------------------------------
// Statements

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// BlockStmt is a brace-delimited statement list.
type BlockStmt struct {
	Stmts    []Stmt
	Annot    *Annotation
	BracePos token.Pos
}

func (s *BlockStmt) Pos() token.Pos { return s.BracePos }
func (*BlockStmt) nodeName() string { return "BlockStmt" }
func (*BlockStmt) stmtNode()        {}

// ExprStmt is an expression used as a statement.
type ExprStmt struct {
	X     Expr
	Annot *Annotation
}

func (s *ExprStmt) Pos() token.Pos { return s.X.Pos() }
func (*ExprStmt) nodeName() string { return "ExprStmt" }
func (*ExprStmt) stmtNode()        {}

// EmptyStmt is a lone semicolon.
type EmptyStmt struct {
	SemiPos token.Pos
}

func (s *EmptyStmt) Pos() token.Pos { return s.SemiPos }
func (*EmptyStmt) nodeName() string { return "EmptyStmt" }
func (*EmptyStmt) stmtNode()        {}

// IfStmt is a branch. Annot carries a user annotation attached via #pragma.
type IfStmt struct {
	Cond  Expr
	Then  Stmt
	Else  Stmt // may be nil
	Annot *Annotation
	IfPos token.Pos
}

func (s *IfStmt) Pos() token.Pos { return s.IfPos }
func (*IfStmt) nodeName() string { return "IfStmt" }
func (*IfStmt) stmtNode()        {}

// ForStmt is a C-style for loop. Init may be a VarDecl or ExprStmt; Cond and
// Post may be nil. The SCoP (static control part) that the polyhedral model
// consumes is exactly (Init, Cond, Post).
type ForStmt struct {
	Init   Stmt // may be nil or *EmptyStmt
	Cond   Expr // may be nil
	Post   Expr // may be nil
	Body   Stmt
	Annot  *Annotation
	ForPos token.Pos
}

func (s *ForStmt) Pos() token.Pos { return s.ForPos }
func (*ForStmt) nodeName() string { return "ForStmt" }
func (*ForStmt) stmtNode()        {}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond     Expr
	Body     Stmt
	Annot    *Annotation
	WhilePos token.Pos
}

func (s *WhileStmt) Pos() token.Pos { return s.WhilePos }
func (*WhileStmt) nodeName() string { return "WhileStmt" }
func (*WhileStmt) stmtNode()        {}

// ReturnStmt returns from a function.
type ReturnStmt struct {
	X         Expr // may be nil
	ReturnPos token.Pos
}

func (s *ReturnStmt) Pos() token.Pos { return s.ReturnPos }
func (*ReturnStmt) nodeName() string { return "ReturnStmt" }
func (*ReturnStmt) stmtNode()        {}

// BreakStmt exits the innermost loop.
type BreakStmt struct {
	BreakPos token.Pos
}

func (s *BreakStmt) Pos() token.Pos { return s.BreakPos }
func (*BreakStmt) nodeName() string { return "BreakStmt" }
func (*BreakStmt) stmtNode()        {}

// ContinueStmt continues the innermost loop.
type ContinueStmt struct {
	ContinuePos token.Pos
}

func (s *ContinueStmt) Pos() token.Pos { return s.ContinuePos }
func (*ContinueStmt) nodeName() string { return "ContinueStmt" }
func (*ContinueStmt) stmtNode()        {}

// ---------------------------------------------------------------------------
// Expressions

// Expr is an expression node.
type Expr interface {
	Node
	exprNode()
}

// Ident is a name reference.
type Ident struct {
	Name    string
	NamePos token.Pos
}

func (e *Ident) Pos() token.Pos { return e.NamePos }
func (*Ident) nodeName() string { return "Ident" }
func (*Ident) exprNode()        {}

// IntLit is an integer literal.
type IntLit struct {
	Value  int64
	LitPos token.Pos
}

func (e *IntLit) Pos() token.Pos { return e.LitPos }
func (*IntLit) nodeName() string { return "IntLit" }
func (*IntLit) exprNode()        {}

// FloatLit is a floating-point literal.
type FloatLit struct {
	Value  float64
	LitPos token.Pos
}

func (e *FloatLit) Pos() token.Pos { return e.LitPos }
func (*FloatLit) nodeName() string { return "FloatLit" }
func (*FloatLit) exprNode()        {}

// BoolLit is true/false.
type BoolLit struct {
	Value  bool
	LitPos token.Pos
}

func (e *BoolLit) Pos() token.Pos { return e.LitPos }
func (*BoolLit) nodeName() string { return "BoolLit" }
func (*BoolLit) exprNode()        {}

// StringLit is a string literal (used only as printf-style call arguments).
type StringLit struct {
	Value  string
	LitPos token.Pos
}

func (e *StringLit) Pos() token.Pos { return e.LitPos }
func (*StringLit) nodeName() string { return "StringLit" }
func (*StringLit) exprNode()        {}

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	Op   token.Kind
	X, Y Expr
}

func (e *BinaryExpr) Pos() token.Pos { return e.X.Pos() }
func (*BinaryExpr) nodeName() string { return "BinaryExpr" }
func (*BinaryExpr) exprNode()        {}

// UnaryExpr is a prefix or postfix unary operation. For INC/DEC, Postfix
// distinguishes i++ from ++i.
type UnaryExpr struct {
	Op      token.Kind
	X       Expr
	Postfix bool
	OpPos   token.Pos
}

func (e *UnaryExpr) Pos() token.Pos {
	if e.Postfix {
		return e.X.Pos()
	}
	return e.OpPos
}
func (*UnaryExpr) nodeName() string { return "UnaryExpr" }
func (*UnaryExpr) exprNode()        {}

// AssignExpr is an assignment, possibly compound (+=, -=, *=, /=).
type AssignExpr struct {
	Op  token.Kind
	LHS Expr
	RHS Expr
}

func (e *AssignExpr) Pos() token.Pos { return e.LHS.Pos() }
func (*AssignExpr) nodeName() string { return "AssignExpr" }
func (*AssignExpr) exprNode()        {}

// CallExpr is a function, method, or operator() call. Fun is an *Ident for
// free functions, a *MemberExpr for o.method(...) calls, or an arbitrary
// expression of class type for operator() application like A(i, j).
type CallExpr struct {
	Fun  Expr
	Args []Expr
}

func (e *CallExpr) Pos() token.Pos { return e.Fun.Pos() }
func (*CallExpr) nodeName() string { return "CallExpr" }
func (*CallExpr) exprNode()        {}

// IndexExpr is a subscript x[i].
type IndexExpr struct {
	X     Expr
	Index Expr
}

func (e *IndexExpr) Pos() token.Pos { return e.X.Pos() }
func (*IndexExpr) nodeName() string { return "IndexExpr" }
func (*IndexExpr) exprNode()        {}

// MemberExpr is a field or method selection x.sel (or x->sel).
type MemberExpr struct {
	X     Expr
	Sel   string
	Arrow bool
}

func (e *MemberExpr) Pos() token.Pos { return e.X.Pos() }
func (*MemberExpr) nodeName() string { return "MemberExpr" }
func (*MemberExpr) exprNode()        {}

// ParenExpr is a parenthesized expression.
type ParenExpr struct {
	X        Expr
	ParenPos token.Pos
}

func (e *ParenExpr) Pos() token.Pos { return e.ParenPos }
func (*ParenExpr) nodeName() string { return "ParenExpr" }
func (*ParenExpr) exprNode()        {}

// CondExpr is the ternary operator cond ? a : b.
type CondExpr struct {
	Cond, Then, Else Expr
}

func (e *CondExpr) Pos() token.Pos { return e.Cond.Pos() }
func (*CondExpr) nodeName() string { return "CondExpr" }
func (*CondExpr) exprNode()        {}

// ---------------------------------------------------------------------------
// Traversal

// Walk calls fn for node and, if fn returns true, recursively for each
// child. Nil children are skipped.
func Walk(n Node, fn func(Node) bool) {
	if n == nil || !fn(n) {
		return
	}
	switch x := n.(type) {
	case *File:
		for _, d := range x.Decls {
			Walk(d, fn)
		}
	case *ClassDecl:
		for _, f := range x.Fields {
			Walk(f, fn)
		}
		for _, m := range x.Methods {
			Walk(m, fn)
		}
	case *FuncDecl:
		for _, p := range x.Params {
			Walk(p, fn)
		}
		if x.Body != nil {
			Walk(x.Body, fn)
		}
	case *VarDecl:
		for _, d := range x.Names {
			Walk(d, fn)
		}
	case *Declarator:
		for _, dim := range x.Dims {
			Walk(dim, fn)
		}
		if x.Init != nil {
			Walk(x.Init, fn)
		}
	case *BlockStmt:
		for _, s := range x.Stmts {
			Walk(s, fn)
		}
	case *ExprStmt:
		Walk(x.X, fn)
	case *IfStmt:
		Walk(x.Cond, fn)
		Walk(x.Then, fn)
		if x.Else != nil {
			Walk(x.Else, fn)
		}
	case *ForStmt:
		if x.Init != nil {
			Walk(x.Init, fn)
		}
		if x.Cond != nil {
			Walk(x.Cond, fn)
		}
		if x.Post != nil {
			Walk(x.Post, fn)
		}
		Walk(x.Body, fn)
	case *WhileStmt:
		Walk(x.Cond, fn)
		Walk(x.Body, fn)
	case *ReturnStmt:
		if x.X != nil {
			Walk(x.X, fn)
		}
	case *BinaryExpr:
		Walk(x.X, fn)
		Walk(x.Y, fn)
	case *UnaryExpr:
		Walk(x.X, fn)
	case *AssignExpr:
		Walk(x.LHS, fn)
		Walk(x.RHS, fn)
	case *CallExpr:
		Walk(x.Fun, fn)
		for _, a := range x.Args {
			Walk(a, fn)
		}
	case *IndexExpr:
		Walk(x.X, fn)
		Walk(x.Index, fn)
	case *MemberExpr:
		Walk(x.X, fn)
	case *ParenExpr:
		Walk(x.X, fn)
	case *CondExpr:
		Walk(x.Cond, fn)
		Walk(x.Then, fn)
		Walk(x.Else, fn)
	}
}

// Funcs returns every function declaration in the file, including class
// methods, in source order.
func (f *File) Funcs() []*FuncDecl {
	var out []*FuncDecl
	for _, d := range f.Decls {
		switch x := d.(type) {
		case *FuncDecl:
			out = append(out, x)
		case *ClassDecl:
			out = append(out, x.Methods...)
		}
	}
	return out
}

// LookupFunc finds a function by qualified name.
func (f *File) LookupFunc(qname string) *FuncDecl {
	for _, fd := range f.Funcs() {
		if fd.QualifiedName() == qname {
			return fd
		}
	}
	return nil
}

// LookupClass finds a class declaration by name.
func (f *File) LookupClass(name string) *ClassDecl {
	for _, d := range f.Decls {
		if c, ok := d.(*ClassDecl); ok && c.Name == name {
			return c
		}
	}
	return nil
}

// ExprString renders an expression as compact source text, used in
// diagnostics, in the generated model's comments, and as the compiler's
// structural key for common subexpressions.
func ExprString(e Expr) string { return string(appendExpr(make([]byte, 0, 64), e)) }

// appendExpr appends the ExprString rendering of e to dst.
func appendExpr(dst []byte, e Expr) []byte {
	switch x := e.(type) {
	case nil:
		return dst
	case *Ident:
		return append(dst, x.Name...)
	case *IntLit:
		return strconv.AppendInt(dst, x.Value, 10)
	case *FloatLit:
		// Keep float literals textually distinct from equal-valued integer
		// literals: ExprString doubles as a structural key (e.g. the
		// compiler's LICM cache), where "2" and "2.0" must not collide.
		n := len(dst)
		dst = strconv.AppendFloat(dst, x.Value, 'g', -1, 64)
		if bytes.IndexAny(dst[n:], ".eE") < 0 {
			dst = append(dst, ".0"...)
		}
		return dst
	case *BoolLit:
		return strconv.AppendBool(dst, x.Value)
	case *StringLit:
		return strconv.AppendQuote(dst, x.Value)
	case *BinaryExpr:
		return appendInfix(dst, x.X, x.Op, x.Y)
	case *UnaryExpr:
		if x.Postfix {
			return append(appendExpr(dst, x.X), x.Op.String()...)
		}
		return appendExpr(append(dst, x.Op.String()...), x.X)
	case *AssignExpr:
		return appendInfix(dst, x.LHS, x.Op, x.RHS)
	case *CallExpr:
		dst = append(appendExpr(dst, x.Fun), '(')
		for i, a := range x.Args {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendExpr(dst, a)
		}
		return append(dst, ')')
	case *IndexExpr:
		dst = append(appendExpr(dst, x.X), '[')
		return append(appendExpr(dst, x.Index), ']')
	case *MemberExpr:
		dst = appendExpr(dst, x.X)
		if x.Arrow {
			dst = append(dst, "->"...)
		} else {
			dst = append(dst, '.')
		}
		return append(dst, x.Sel...)
	case *ParenExpr:
		return append(appendExpr(append(dst, '('), x.X), ')')
	case *CondExpr:
		dst = append(appendExpr(dst, x.Cond), " ? "...)
		dst = append(appendExpr(dst, x.Then), " : "...)
		return appendExpr(dst, x.Else)
	}
	return append(dst, '?')
}

// appendInfix appends "x op y".
func appendInfix(dst []byte, x Expr, op token.Kind, y Expr) []byte {
	dst = append(appendExpr(dst, x), ' ')
	dst = append(append(dst, op.String()...), ' ')
	return appendExpr(dst, y)
}
