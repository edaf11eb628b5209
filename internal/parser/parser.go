// Package parser implements the recursive-descent MiniC parser.
//
// Together with internal/lexer it forms Mira's Input Processor front half
// (paper Sec. III-A1): source text in, source AST out, with user
// annotations attached to the statements they precede.
package parser

import (
	"fmt"
	"strconv"

	"mira/internal/ast"
	"mira/internal/lexer"
	"mira/internal/token"
)

// Error is a parse error with position information.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

type parser struct {
	toks    []token.Token
	i       int
	file    *ast.File
	classes map[string]bool // class names seen so far, for type lookahead
}

// ParseFile parses MiniC source text into a File.
func ParseFile(name, src string) (*ast.File, error) {
	lx := lexer.New(src)
	toks := lx.All()
	if errs := lx.Errors(); len(errs) > 0 {
		return nil, errs[0]
	}
	p := &parser{toks: toks, classes: map[string]bool{}}
	p.file = &ast.File{Name: name, FilePos: token.Pos{Line: 1, Col: 1}}
	var perr error
	func() {
		defer func() {
			if r := recover(); r != nil {
				if e, ok := r.(*Error); ok {
					perr = e
					return
				}
				panic(r)
			}
		}()
		p.parseProgram()
	}()
	if perr != nil {
		return nil, perr
	}
	return p.file, nil
}

func (p *parser) errf(pos token.Pos, format string, args ...any) {
	panic(&Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (p *parser) cur() token.Token { return p.toks[p.i] }
func (p *parser) peek() token.Token {
	if p.i+1 < len(p.toks) {
		return p.toks[p.i+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) next() token.Token {
	t := p.toks[p.i]
	if t.Kind != token.EOF {
		p.i++
	}
	return t
}

func (p *parser) accept(k token.Kind) bool {
	if p.cur().Kind == k {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k token.Kind) token.Token {
	t := p.cur()
	if t.Kind != k {
		p.errf(t.Pos, "expected %s, found %s", k, t)
	}
	return p.next()
}

// ---------------------------------------------------------------------------
// Declarations

func (p *parser) parseProgram() {
	for p.cur().Kind != token.EOF {
		switch p.cur().Kind {
		case token.PRAGMA:
			// Top-level pragmas (include guards, omp, ...) are ignored.
			p.next()
		case token.KWCLASS, token.KWSTRUCT:
			p.file.Decls = append(p.file.Decls, p.parseClass())
		case token.KWEXTERN:
			p.file.Decls = append(p.file.Decls, p.parseExtern())
		default:
			p.file.Decls = append(p.file.Decls, p.parseFuncOrVar(""))
		}
	}
}

func (p *parser) parseExtern() ast.Decl {
	kw := p.expect(token.KWEXTERN)
	ret := p.parseType()
	name := p.expect(token.IDENT)
	fd := &ast.FuncDecl{
		Name:     name.Lit,
		RetType:  ret,
		IsExtern: true,
		FuncPos:  kw.Pos,
	}
	p.expect(token.LPAREN)
	fd.Params = p.parseParams()
	p.expect(token.RPAREN)
	p.expect(token.SEMI)
	return fd
}

func (p *parser) parseClass() *ast.ClassDecl {
	kw := p.next() // class or struct
	name := p.expect(token.IDENT)
	cd := &ast.ClassDecl{Name: name.Lit, ClassPos: kw.Pos}
	p.classes[name.Lit] = true
	p.expect(token.LBRACE)
	for p.cur().Kind != token.RBRACE && p.cur().Kind != token.EOF {
		switch p.cur().Kind {
		case token.KWPUBLIC, token.KWPRIVATE:
			p.next()
			p.expect(token.COLON)
		default:
			d := p.parseFuncOrVar(name.Lit)
			switch x := d.(type) {
			case *ast.FuncDecl:
				cd.Methods = append(cd.Methods, x)
			case *ast.VarDecl:
				cd.Fields = append(cd.Fields, x)
			}
		}
	}
	p.expect(token.RBRACE)
	p.accept(token.SEMI)
	return cd
}

// parseFuncOrVar parses either a function/method definition or a variable
// declaration; className is non-empty when parsing inside a class body.
func (p *parser) parseFuncOrVar(className string) ast.Decl {
	isConst := p.accept(token.KWCONST)
	p.accept(token.KWSTATIC)
	if !isConst {
		isConst = p.accept(token.KWCONST)
	}
	start := p.cur().Pos
	typ := p.parseType()

	// operator() method.
	if p.cur().Kind == token.KWOPERATOR {
		op := p.next()
		p.expect(token.LPAREN)
		p.expect(token.RPAREN)
		fd := &ast.FuncDecl{
			Name:       "operator()",
			ClassName:  className,
			RetType:    typ,
			IsOperator: true,
			FuncPos:    op.Pos,
		}
		p.expect(token.LPAREN)
		fd.Params = p.parseParams()
		p.expect(token.RPAREN)
		p.accept(token.KWCONST)
		fd.Body = p.parseBlock()
		return fd
	}

	name := p.expect(token.IDENT)

	// Out-of-class method definition: Type Class::name(...).
	if p.cur().Kind == token.SCOPE {
		p.next()
		className = name.Lit
		if !p.classes[className] {
			p.errf(name.Pos, "undefined class %q in qualified name", className)
		}
		name = p.expect(token.IDENT)
	}

	if p.cur().Kind == token.LPAREN {
		fd := &ast.FuncDecl{
			Name:      name.Lit,
			ClassName: className,
			RetType:   typ,
			FuncPos:   start,
		}
		p.expect(token.LPAREN)
		fd.Params = p.parseParams()
		p.expect(token.RPAREN)
		p.accept(token.KWCONST)
		if p.accept(token.SEMI) {
			// Forward declaration; treat as extern-like prototype only if no
			// definition follows. The sema layer resolves duplicates.
			return fd
		}
		fd.Body = p.parseBlock()
		return fd
	}

	// Variable declaration.
	vd := &ast.VarDecl{Type: typ, IsConst: isConst, DeclPos: start}
	vd.Names = append(vd.Names, p.parseDeclarator(name))
	for p.accept(token.COMMA) {
		n := p.expect(token.IDENT)
		vd.Names = append(vd.Names, p.parseDeclarator(n))
	}
	p.expect(token.SEMI)
	return vd
}

func (p *parser) parseDeclarator(name token.Token) *ast.Declarator {
	d := &ast.Declarator{Name: name.Lit, NamePos: name.Pos}
	for p.cur().Kind == token.LBRACKET {
		p.next()
		d.Dims = append(d.Dims, p.parseExpr())
		p.expect(token.RBRACKET)
	}
	if p.accept(token.ASSIGN) {
		d.Init = p.parseAssignExpr()
	}
	return d
}

func (p *parser) parseParams() []*ast.Param {
	var params []*ast.Param
	if p.cur().Kind == token.RPAREN {
		return params
	}
	if p.cur().Kind == token.KWVOID && p.peek().Kind == token.RPAREN {
		p.next()
		return params
	}
	for {
		p.accept(token.KWCONST)
		typ := p.parseType()
		// Reference parameters (T &x) are treated as pointers.
		if p.accept(token.AMP) {
			typ.Ptr++
		}
		name := p.expect(token.IDENT)
		prm := &ast.Param{Name: name.Lit, Type: typ, ParamPos: name.Pos}
		for p.cur().Kind == token.LBRACKET {
			p.next()
			// Parameter array dimensions decay to pointers; sizes ignored.
			if p.cur().Kind != token.RBRACKET {
				p.parseExpr()
			}
			p.expect(token.RBRACKET)
			prm.IsArray = true
			prm.Type.Ptr++
		}
		params = append(params, prm)
		if !p.accept(token.COMMA) {
			return params
		}
	}
}

func (p *parser) parseType() ast.Type {
	t := p.cur()
	var typ ast.Type
	switch t.Kind {
	case token.KWUNSIGNED:
		p.next()
		if p.cur().Kind == token.KWINT || p.cur().Kind == token.KWLONG {
			p.next()
		}
		typ = ast.TypeInt
	case token.KWINT, token.KWLONG, token.KWCHAR:
		p.next()
		// "long long", "long int" collapse.
		for p.cur().Kind == token.KWLONG || p.cur().Kind == token.KWINT {
			p.next()
		}
		typ = ast.TypeInt
	case token.KWDOUBLE, token.KWFLOAT:
		p.next()
		typ = ast.TypeDouble
	case token.KWBOOL:
		p.next()
		typ = ast.TypeBool
	case token.KWVOID:
		p.next()
		typ = ast.TypeVoid
	case token.IDENT:
		if !p.classes[t.Lit] {
			p.errf(t.Pos, "unknown type %q", t.Lit)
		}
		p.next()
		typ = ast.Type{Kind: ast.Class, ClassName: t.Lit}
	default:
		p.errf(t.Pos, "expected type, found %s", t)
	}
	for p.accept(token.STAR) {
		typ.Ptr++
	}
	return typ
}

// startsType reports whether the token stream at the current position looks
// like the start of a declaration.
func (p *parser) startsType() bool {
	t := p.cur()
	if t.Kind.IsType() || t.Kind == token.KWCONST || t.Kind == token.KWSTATIC {
		return true
	}
	if t.Kind == token.IDENT && p.classes[t.Lit] {
		// "A a;" or "A *a;" — identifier followed by identifier or star.
		n := p.peek().Kind
		return n == token.IDENT || n == token.STAR
	}
	return false
}

// ---------------------------------------------------------------------------
// Statements

func (p *parser) parseBlock() *ast.BlockStmt {
	lb := p.expect(token.LBRACE)
	blk := &ast.BlockStmt{BracePos: lb.Pos}
	for p.cur().Kind != token.RBRACE && p.cur().Kind != token.EOF {
		blk.Stmts = append(blk.Stmts, p.parseStmt())
	}
	p.expect(token.RBRACE)
	return blk
}

func (p *parser) parseStmt() ast.Stmt {
	// A pragma annotates the statement that follows it.
	if p.cur().Kind == token.PRAGMA {
		t := p.next()
		if !ast.IsAnnotationPragma(t.Lit) {
			// Non-annotation pragmas (omp, once, ...) are ignored.
			return p.parseStmt()
		}
		ann, err := ast.ParseAnnotation(t.Lit, t.Pos)
		if err != nil {
			p.errf(t.Pos, "bad annotation: %v", err)
		}
		st := p.parseStmt()
		attachAnnotation(st, ann, p)
		return st
	}

	switch p.cur().Kind {
	case token.LBRACE:
		return p.parseBlock()
	case token.SEMI:
		t := p.next()
		return &ast.EmptyStmt{SemiPos: t.Pos}
	case token.KWIF:
		return p.parseIf()
	case token.KWFOR:
		return p.parseFor()
	case token.KWWHILE:
		return p.parseWhile()
	case token.KWDO:
		p.errf(p.cur().Pos, "do-while loops are not supported; rewrite as while")
	case token.KWRETURN:
		t := p.next()
		rs := &ast.ReturnStmt{ReturnPos: t.Pos}
		if p.cur().Kind != token.SEMI {
			rs.X = p.parseExpr()
		}
		p.expect(token.SEMI)
		return rs
	case token.KWBREAK:
		t := p.next()
		p.expect(token.SEMI)
		return &ast.BreakStmt{BreakPos: t.Pos}
	case token.KWCONTINUE:
		t := p.next()
		p.expect(token.SEMI)
		return &ast.ContinueStmt{ContinuePos: t.Pos}
	}
	if p.startsType() {
		d := p.parseFuncOrVar("")
		vd, ok := d.(*ast.VarDecl)
		if !ok {
			p.errf(d.Pos(), "nested function declarations are not supported")
		}
		return vd
	}
	x := p.parseExpr()
	p.expect(token.SEMI)
	return &ast.ExprStmt{X: x}
}

func attachAnnotation(st ast.Stmt, ann *ast.Annotation, p *parser) {
	switch s := st.(type) {
	case *ast.ForStmt:
		s.Annot = ann
	case *ast.WhileStmt:
		s.Annot = ann
	case *ast.IfStmt:
		s.Annot = ann
	case *ast.ExprStmt:
		s.Annot = ann
	case *ast.BlockStmt:
		s.Annot = ann
	case *ast.VarDecl:
		s.Annot = ann
	default:
		p.errf(ann.Pos, "annotation cannot attach to %T", st)
	}
}

func (p *parser) parseIf() ast.Stmt {
	kw := p.expect(token.KWIF)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	s := &ast.IfStmt{Cond: cond, IfPos: kw.Pos}
	s.Then = p.parseStmt()
	if p.accept(token.KWELSE) {
		s.Else = p.parseStmt()
	}
	return s
}

func (p *parser) parseFor() ast.Stmt {
	kw := p.expect(token.KWFOR)
	p.expect(token.LPAREN)
	s := &ast.ForStmt{ForPos: kw.Pos}
	if !p.accept(token.SEMI) {
		if p.startsType() {
			d := p.parseFuncOrVar("")
			vd, ok := d.(*ast.VarDecl)
			if !ok {
				p.errf(d.Pos(), "bad for-init declaration")
			}
			s.Init = vd
		} else {
			x := p.parseExpr()
			p.expect(token.SEMI)
			s.Init = &ast.ExprStmt{X: x}
		}
	}
	if p.cur().Kind != token.SEMI {
		s.Cond = p.parseExpr()
	}
	p.expect(token.SEMI)
	if p.cur().Kind != token.RPAREN {
		s.Post = p.parseExpr()
	}
	p.expect(token.RPAREN)
	s.Body = p.parseStmt()
	return s
}

func (p *parser) parseWhile() ast.Stmt {
	kw := p.expect(token.KWWHILE)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	s := &ast.WhileStmt{Cond: cond, WhilePos: kw.Pos}
	s.Body = p.parseStmt()
	return s
}

// ---------------------------------------------------------------------------
// Expressions

func (p *parser) parseExpr() ast.Expr { return p.parseAssignExpr() }

func (p *parser) parseAssignExpr() ast.Expr {
	lhs := p.parseTernary()
	if p.cur().Kind.IsAssignOp() {
		op := p.next()
		rhs := p.parseAssignExpr()
		return &ast.AssignExpr{Op: op.Kind, LHS: lhs, RHS: rhs}
	}
	return lhs
}

func (p *parser) parseTernary() ast.Expr {
	cond := p.parseOr()
	if p.accept(token.QUESTION) {
		then := p.parseExpr()
		p.expect(token.COLON)
		els := p.parseTernary()
		return &ast.CondExpr{Cond: cond, Then: then, Else: els}
	}
	return cond
}

func (p *parser) parseOr() ast.Expr {
	x := p.parseAnd()
	for p.cur().Kind == token.OROR {
		p.next()
		y := p.parseAnd()
		x = &ast.BinaryExpr{Op: token.OROR, X: x, Y: y}
	}
	return x
}

func (p *parser) parseAnd() ast.Expr {
	x := p.parseEquality()
	for p.cur().Kind == token.ANDAND {
		p.next()
		y := p.parseEquality()
		x = &ast.BinaryExpr{Op: token.ANDAND, X: x, Y: y}
	}
	return x
}

func (p *parser) parseEquality() ast.Expr {
	x := p.parseRelational()
	for p.cur().Kind == token.EQ || p.cur().Kind == token.NEQ {
		op := p.next()
		y := p.parseRelational()
		x = &ast.BinaryExpr{Op: op.Kind, X: x, Y: y}
	}
	return x
}

func (p *parser) parseRelational() ast.Expr {
	x := p.parseAdditive()
	for {
		k := p.cur().Kind
		if k != token.LT && k != token.GT && k != token.LEQ && k != token.GEQ {
			return x
		}
		op := p.next()
		y := p.parseAdditive()
		x = &ast.BinaryExpr{Op: op.Kind, X: x, Y: y}
	}
}

func (p *parser) parseAdditive() ast.Expr {
	x := p.parseMultiplicative()
	for p.cur().Kind == token.PLUS || p.cur().Kind == token.MINUS {
		op := p.next()
		y := p.parseMultiplicative()
		x = &ast.BinaryExpr{Op: op.Kind, X: x, Y: y}
	}
	return x
}

func (p *parser) parseMultiplicative() ast.Expr {
	x := p.parseUnary()
	for p.cur().Kind == token.STAR || p.cur().Kind == token.SLASH || p.cur().Kind == token.PERCENT {
		op := p.next()
		y := p.parseUnary()
		x = &ast.BinaryExpr{Op: op.Kind, X: x, Y: y}
	}
	return x
}

func (p *parser) parseUnary() ast.Expr {
	switch p.cur().Kind {
	case token.MINUS, token.PLUS, token.NOT, token.INC, token.DEC, token.AMP, token.STAR:
		op := p.next()
		x := p.parseUnary()
		if op.Kind == token.PLUS {
			return x
		}
		return &ast.UnaryExpr{Op: op.Kind, X: x, OpPos: op.Pos}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() ast.Expr {
	x := p.parsePrimary()
	for {
		switch p.cur().Kind {
		case token.LPAREN:
			p.next()
			call := &ast.CallExpr{Fun: x}
			if p.cur().Kind != token.RPAREN {
				call.Args = append(call.Args, p.parseAssignExpr())
				for p.accept(token.COMMA) {
					call.Args = append(call.Args, p.parseAssignExpr())
				}
			}
			p.expect(token.RPAREN)
			x = call
		case token.LBRACKET:
			p.next()
			idx := p.parseExpr()
			p.expect(token.RBRACKET)
			x = &ast.IndexExpr{X: x, Index: idx}
		case token.DOT:
			p.next()
			sel := p.expect(token.IDENT)
			x = &ast.MemberExpr{X: x, Sel: sel.Lit}
		case token.ARROW:
			p.next()
			sel := p.expect(token.IDENT)
			x = &ast.MemberExpr{X: x, Sel: sel.Lit, Arrow: true}
		case token.INC, token.DEC:
			op := p.next()
			x = &ast.UnaryExpr{Op: op.Kind, X: x, Postfix: true, OpPos: op.Pos}
		default:
			return x
		}
	}
}

func (p *parser) parsePrimary() ast.Expr {
	t := p.cur()
	switch t.Kind {
	case token.IDENT:
		p.next()
		return &ast.Ident{Name: t.Lit, NamePos: t.Pos}
	case token.INTLIT:
		p.next()
		// The lexer hands over decimal digits only (suffixes dropped), so a
		// leading zero is decimal too: 007 is 7.
		v, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil {
			p.errf(t.Pos, "bad integer literal %q", t.Lit)
		}
		return &ast.IntLit{Value: v, LitPos: t.Pos}
	case token.FLOATLIT:
		p.next()
		v, err := strconv.ParseFloat(t.Lit, 64)
		if err != nil {
			p.errf(t.Pos, "bad float literal %q", t.Lit)
		}
		return &ast.FloatLit{Value: v, LitPos: t.Pos}
	case token.KWTRUE:
		p.next()
		return &ast.BoolLit{Value: true, LitPos: t.Pos}
	case token.KWFALSE:
		p.next()
		return &ast.BoolLit{Value: false, LitPos: t.Pos}
	case token.STRINGLIT:
		p.next()
		return &ast.StringLit{Value: t.Lit, LitPos: t.Pos}
	case token.CHARLIT:
		p.next()
		v := int64(0)
		if len(t.Lit) > 0 {
			v = int64(t.Lit[0])
		}
		return &ast.IntLit{Value: v, LitPos: t.Pos}
	case token.LPAREN:
		p.next()
		x := p.parseExpr()
		p.expect(token.RPAREN)
		return &ast.ParenExpr{X: x, ParenPos: t.Pos}
	}
	p.errf(t.Pos, "unexpected token %s in expression", t)
	return nil
}
