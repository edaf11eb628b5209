package parser

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"mira/internal/ast"
	"mira/internal/lexer"
	"mira/internal/token"
)

func parse(t *testing.T, src string) *ast.File {
	t.Helper()
	f, err := ParseFile("test.c", src)
	if err != nil {
		t.Fatalf("parse error: %v", err)
	}
	return f
}

func TestParseSimpleFunction(t *testing.T) {
	f := parse(t, `
int add(int a, int b) {
	return a + b;
}
`)
	funcs := f.Funcs()
	if len(funcs) != 1 {
		t.Fatalf("got %d funcs", len(funcs))
	}
	fd := funcs[0]
	if fd.Name != "add" || len(fd.Params) != 2 {
		t.Errorf("decl = %s with %d params", fd.Name, len(fd.Params))
	}
	if fd.RetType != ast.TypeInt {
		t.Errorf("ret type = %v", fd.RetType)
	}
	if len(fd.Body.Stmts) != 1 {
		t.Fatalf("body stmts = %d", len(fd.Body.Stmts))
	}
	if _, ok := fd.Body.Stmts[0].(*ast.ReturnStmt); !ok {
		t.Errorf("stmt = %T, want ReturnStmt", fd.Body.Stmts[0])
	}
}

func TestParseBasicLoop(t *testing.T) {
	// The paper's Listing 1.
	f := parse(t, `
void kernel() {
	int i;
	double s;
	for (i = 0; i < 10; i++)
	{
		s = s + 1.0;
	}
}
`)
	fd := f.Funcs()[0]
	var loop *ast.ForStmt
	ast.Walk(fd, func(n ast.Node) bool {
		if l, ok := n.(*ast.ForStmt); ok {
			loop = l
		}
		return true
	})
	if loop == nil {
		t.Fatal("no for loop found")
	}
	if loop.Init == nil || loop.Cond == nil || loop.Post == nil {
		t.Fatal("incomplete SCoP")
	}
	cond, ok := loop.Cond.(*ast.BinaryExpr)
	if !ok || ast.ExprString(cond) != "i < 10" {
		t.Errorf("cond = %q", ast.ExprString(loop.Cond))
	}
	post, ok := loop.Post.(*ast.UnaryExpr)
	if !ok || !post.Postfix {
		t.Errorf("post = %#v", loop.Post)
	}
}

func TestParseNestedDependentLoop(t *testing.T) {
	// The paper's Listing 2: inner bound depends on outer index.
	f := parse(t, `
void kernel() {
	int i; int j; double s;
	for(i = 1; i <= 4; i++)
		for(j = i + 1; j <= 6; j++)
		{
			s = s + 1.0;
		}
}
`)
	var loops []*ast.ForStmt
	ast.Walk(f, func(n ast.Node) bool {
		if l, ok := n.(*ast.ForStmt); ok {
			loops = append(loops, l)
		}
		return true
	})
	if len(loops) != 2 {
		t.Fatalf("got %d loops", len(loops))
	}
	inner := loops[1]
	initStmt, ok := inner.Init.(*ast.ExprStmt)
	if !ok {
		t.Fatalf("inner init = %T", inner.Init)
	}
	if got := ast.ExprString(initStmt.X); got != "j = i + 1" {
		t.Errorf("inner init = %q", got)
	}
}

func TestParseClassWithMethodAndOperator(t *testing.T) {
	// Fig. 5(a)-style class plus an operator() like miniFE's matvec.
	f := parse(t, `
class A {
public:
	int n;
	void foo(double x[], double y[]) {
		n = 0;
	}
	double operator()(int i) {
		return 1.0;
	}
};
int main() {
	A a;
	double p[10];
	double q[10];
	a.foo(p, q);
	a(3);
	return 0;
}
`)
	cd := f.LookupClass("A")
	if cd == nil {
		t.Fatal("class A not found")
	}
	if len(cd.Fields) != 1 || len(cd.Methods) != 2 {
		t.Fatalf("fields=%d methods=%d", len(cd.Fields), len(cd.Methods))
	}
	if cd.Methods[1].Name != "operator()" || !cd.Methods[1].IsOperator {
		t.Errorf("method[1] = %+v", cd.Methods[1])
	}
	if q := cd.Methods[0].QualifiedName(); q != "A::foo" {
		t.Errorf("qualified name = %q", q)
	}
	if f.LookupFunc("A::operator()") == nil {
		t.Error("LookupFunc(A::operator()) failed")
	}
}

func TestParseOutOfClassMethod(t *testing.T) {
	f := parse(t, `
class V {
public:
	int n;
	double get(int i);
};
double V::get(int i) {
	return 0.0;
}
`)
	fd := f.LookupFunc("V::get")
	if fd == nil {
		t.Fatal("V::get not found")
	}
	// Both the prototype and the definition produce decls; the definition
	// has a body.
	var withBody int
	for _, fn := range f.Funcs() {
		if fn.QualifiedName() == "V::get" && fn.Body != nil {
			withBody++
		}
	}
	if withBody != 1 {
		t.Errorf("definitions with body = %d, want 1", withBody)
	}
}

func TestParseExtern(t *testing.T) {
	f := parse(t, `extern double sqrt(double x);`)
	fd := f.Funcs()[0]
	if !fd.IsExtern || fd.Body != nil {
		t.Errorf("extern decl = %+v", fd)
	}
}

func TestParseAnnotationAttachment(t *testing.T) {
	// The paper's Listing 6.
	f := parse(t, `
int foo(int i) { return i; }
void kernel(int a[]) {
	int i; int j;
	for(i = 1; i <= 4; i++)
		for(j = a[i]; j <= a[i+6]; j++)
		{
			#pragma @Annotation {lp_init:x,lp_cond:y}
			if(foo(i) > 10)
			{
				#pragma @Annotation {skip:yes}
				i = i + 0;
			}
		}
}
`)
	var ifs []*ast.IfStmt
	ast.Walk(f, func(n ast.Node) bool {
		if s, ok := n.(*ast.IfStmt); ok {
			ifs = append(ifs, s)
		}
		return true
	})
	if len(ifs) != 1 {
		t.Fatalf("got %d if stmts", len(ifs))
	}
	if ifs[0].Annot == nil || ifs[0].Annot.LoopInit == nil {
		t.Fatal("annotation not attached to if")
	}
	blk, ok := ifs[0].Then.(*ast.BlockStmt)
	if !ok {
		t.Fatalf("then = %T", ifs[0].Then)
	}
	es, ok := blk.Stmts[0].(*ast.ExprStmt)
	if !ok || es.Annot == nil || !es.Annot.Skip {
		t.Errorf("skip annotation not attached: %#v", blk.Stmts[0])
	}
}

func TestParseArrayDecls(t *testing.T) {
	f := parse(t, `
const int N = 100;
double a[N];
void k(int n) {
	double b[n];
	double c[3][4];
	b[0] = a[1] + c[1][2];
}
`)
	var decls []*ast.VarDecl
	ast.Walk(f, func(n ast.Node) bool {
		if d, ok := n.(*ast.VarDecl); ok {
			decls = append(decls, d)
		}
		return true
	})
	if len(decls) != 4 {
		t.Fatalf("got %d var decls", len(decls))
	}
	// c has two dims.
	var cDecl *ast.Declarator
	for _, d := range decls {
		for _, dd := range d.Names {
			if dd.Name == "c" {
				cDecl = dd
			}
		}
	}
	if cDecl == nil || len(cDecl.Dims) != 2 {
		t.Fatalf("c dims = %v", cDecl)
	}
}

func TestParsePrecedence(t *testing.T) {
	f := parse(t, `int k() { return 1 + 2 * 3 - 4 % 2; }`)
	ret := f.Funcs()[0].Body.Stmts[0].(*ast.ReturnStmt)
	if got := ast.ExprString(ret.X); got != "1 + 2 * 3 - 4 % 2" {
		t.Errorf("expr = %q", got)
	}
	// Check shape: ((1 + (2*3)) - (4%2))
	top, ok := ret.X.(*ast.BinaryExpr)
	if !ok || top.Op.String() != "-" {
		t.Fatalf("top = %#v", ret.X)
	}
	left, ok := top.X.(*ast.BinaryExpr)
	if !ok || left.Op.String() != "+" {
		t.Fatalf("left = %#v", top.X)
	}
}

func TestParseTernaryAndLogical(t *testing.T) {
	f := parse(t, `int k(int a, int b) { return a > 0 && b < 3 ? a : b; }`)
	ret := f.Funcs()[0].Body.Stmts[0].(*ast.ReturnStmt)
	if _, ok := ret.X.(*ast.CondExpr); !ok {
		t.Errorf("expr = %T, want CondExpr", ret.X)
	}
}

func TestParseWhileBreakContinue(t *testing.T) {
	f := parse(t, `
void k(int n) {
	int i;
	i = 0;
	while (i < n) {
		if (i == 3) { break; }
		if (i == 1) { continue; }
		i++;
	}
}
`)
	var haveBreak, haveContinue, haveWhile bool
	ast.Walk(f, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.BreakStmt:
			haveBreak = true
		case *ast.ContinueStmt:
			haveContinue = true
		case *ast.WhileStmt:
			haveWhile = true
		}
		return true
	})
	if !haveBreak || !haveContinue || !haveWhile {
		t.Errorf("break=%t continue=%t while=%t", haveBreak, haveContinue, haveWhile)
	}
}

func TestParseForWithDecl(t *testing.T) {
	f := parse(t, `void k() { for (int i = 0; i < 4; i++) { } }`)
	var loop *ast.ForStmt
	ast.Walk(f, func(n ast.Node) bool {
		if l, ok := n.(*ast.ForStmt); ok {
			loop = l
		}
		return true
	})
	if loop == nil {
		t.Fatal("no loop")
	}
	if _, ok := loop.Init.(*ast.VarDecl); !ok {
		t.Errorf("init = %T, want VarDecl", loop.Init)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"int f( {",
		"void f() { return; ",
		"void f() { x = ; }",
		"void f() { do { } while(1); }",
		"unknown_type f() {}",
		"void f() { #pragma @Annotation {bogus:1}\nx = 1; }",
		"class C { void m() {} }; void f() { C::x y; }",
	}
	for _, src := range cases {
		if _, err := ParseFile("bad.c", src); err == nil {
			t.Errorf("ParseFile(%q) succeeded, want error", src)
		}
	}
}

func TestParsePositionsForSCoP(t *testing.T) {
	src := "void k() {\n\tint i;\n\tfor (i = 0; i < 8; i++) { i = i; }\n}\n"
	f := parse(t, src)
	var loop *ast.ForStmt
	ast.Walk(f, func(n ast.Node) bool {
		if l, ok := n.(*ast.ForStmt); ok {
			loop = l
		}
		return true
	})
	if loop.ForPos.Line != 3 {
		t.Errorf("for line = %d", loop.ForPos.Line)
	}
	// init, cond, post share line 3 but have distinct columns.
	initPos := loop.Init.Pos()
	condPos := loop.Cond.Pos()
	postPos := loop.Post.Pos()
	if initPos.Line != 3 || condPos.Line != 3 || postPos.Line != 3 {
		t.Fatalf("SCoP lines: %v %v %v", initPos, condPos, postPos)
	}
	if !(initPos.Before(condPos) && condPos.Before(postPos)) {
		t.Errorf("SCoP columns not ordered: %v %v %v", initPos, condPos, postPos)
	}
}

func TestDotOutput(t *testing.T) {
	f := parse(t, `void k() { int i; for (i = 0; i < 3; i++) { i = i; } }`)
	dot := ast.Dot(f)
	for _, want := range []string{"SgForStatement", "SgPlusPlusOp", "SgAssignOp", "digraph"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
}

func TestReferenceParams(t *testing.T) {
	f := parse(t, `void k(double &x, const double &y) { x = y; }`)
	fd := f.Funcs()[0]
	if !fd.Params[0].Type.IsPointer() || !fd.Params[1].Type.IsPointer() {
		t.Errorf("reference params not pointerized: %v %v",
			fd.Params[0].Type, fd.Params[1].Type)
	}
}

// sscanfLiteral is how literals were converted before strconv, kept as
// the reference: a literal's value, and whether it is rejected, must not
// change.
func sscanfLiteral(kind token.Kind, lit string) (ast.Expr, error) {
	if kind == token.INTLIT {
		var v int64
		_, err := fmt.Sscanf(lit, "%d", &v)
		return &ast.IntLit{Value: v}, err
	}
	var v float64
	_, err := fmt.Sscanf(lit, "%g", &v)
	return &ast.FloatLit{Value: v}, err
}

func TestParseNumericLiterals(t *testing.T) {
	for _, lit := range []string{
		"0", "7", "007", "42", "9223372036854775807",
		"2.0", "1e21", "1e-05", "1E5", "123456789.0", "0.1", "1.", ".5", "2.5e+3",
		"1e-400", "1.00100", "3f", "3.5f",
	} {
		src := "double f() { return " + lit + "; }"
		lx := lexer.New(src)
		toks := lx.All()
		kind := toks[6].Kind // double f ( ) { return LIT
		f, err := ParseFile("lit.c", src)
		if err != nil {
			t.Errorf("%s: %v", lit, err)
			continue
		}
		got := f.Funcs()[0].Body.Stmts[0].(*ast.ReturnStmt).X
		want, werr := sscanfLiteral(kind, toks[6].Lit)
		if werr != nil {
			t.Errorf("%s: reference rejects it (%v) but the parser accepts it", lit, werr)
			continue
		}
		switch w := want.(type) {
		case *ast.IntLit:
			if g, ok := got.(*ast.IntLit); !ok || g.Value != w.Value {
				t.Errorf("%s: parsed %#v, want IntLit %d", lit, got, w.Value)
			}
		case *ast.FloatLit:
			if g, ok := got.(*ast.FloatLit); !ok || math.Float64bits(g.Value) != math.Float64bits(w.Value) {
				t.Errorf("%s: parsed %#v, want FloatLit %v", lit, got, w.Value)
			}
		}
	}
	if v := parse(t, "int f() { return 007; }").Funcs()[0].Body.Stmts[0].(*ast.ReturnStmt).X.(*ast.IntLit).Value; v != 7 {
		t.Errorf("007 parsed to %d, want 7", v)
	}
}

func TestParseBadNumericLiterals(t *testing.T) {
	cases := []struct{ src, msg string }{
		{"int f() { return 9223372036854775808; }", `bad integer literal "9223372036854775808"`},
		{"double f() { return 1e999; }", `bad float literal "1e999"`},
		{"double f() {\n\tdouble x;\n\tx = 2.5 * 1.5e400;\n}", `bad float literal "1.5e400"`},
	}
	for _, c := range cases {
		lx := lexer.New(c.src)
		var lit token.Token
		for _, tk := range lx.All() {
			if tk.Kind == token.INTLIT || tk.Kind == token.FLOATLIT {
				lit = tk // the last literal is the bad one
			}
		}
		if _, err := sscanfLiteral(lit.Kind, lit.Lit); err == nil {
			t.Fatalf("%s: reference accepts %q", c.src, lit.Lit)
		}
		_, err := ParseFile("bad.c", c.src)
		var perr *Error
		if !errors.As(err, &perr) {
			t.Fatalf("%s: error %v, want a *parser.Error", c.src, err)
		}
		if perr.Pos != lit.Pos || perr.Msg != c.msg {
			t.Errorf("%s: error at %s %q, want at %s %q", c.src, perr.Pos, perr.Msg, lit.Pos, c.msg)
		}
	}
}
