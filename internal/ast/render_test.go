package ast_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mira/internal/ast"
	"mira/internal/benchprogs"
	"mira/internal/parser"
	"mira/internal/token"
)

// refExprString is the fmt-based renderer ExprString replaced, kept as
// the reference its output must match byte for byte: the rendering is a
// structural key (the compiler's LICM cache) and the text of model site
// descriptions, so any drift changes cached and emitted artifacts.
func refExprString(e ast.Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *ast.Ident:
		return x.Name
	case *ast.IntLit:
		return fmt.Sprintf("%d", x.Value)
	case *ast.FloatLit:
		s := fmt.Sprintf("%g", x.Value)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case *ast.BoolLit:
		return fmt.Sprintf("%t", x.Value)
	case *ast.StringLit:
		return fmt.Sprintf("%q", x.Value)
	case *ast.BinaryExpr:
		return fmt.Sprintf("%s %s %s", refExprString(x.X), x.Op, refExprString(x.Y))
	case *ast.UnaryExpr:
		if x.Postfix {
			return refExprString(x.X) + x.Op.String()
		}
		return x.Op.String() + refExprString(x.X)
	case *ast.AssignExpr:
		return fmt.Sprintf("%s %s %s", refExprString(x.LHS), x.Op, refExprString(x.RHS))
	case *ast.CallExpr:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = refExprString(a)
		}
		return fmt.Sprintf("%s(%s)", refExprString(x.Fun), strings.Join(args, ", "))
	case *ast.IndexExpr:
		return fmt.Sprintf("%s[%s]", refExprString(x.X), refExprString(x.Index))
	case *ast.MemberExpr:
		sep := "."
		if x.Arrow {
			sep = "->"
		}
		return refExprString(x.X) + sep + x.Sel
	case *ast.ParenExpr:
		return "(" + refExprString(x.X) + ")"
	case *ast.CondExpr:
		return fmt.Sprintf("%s ? %s : %s", refExprString(x.Cond), refExprString(x.Then), refExprString(x.Else))
	}
	return "?"
}

func id(name string) *ast.Ident       { return &ast.Ident{Name: name} }
func fl(v float64) *ast.FloatLit      { return &ast.FloatLit{Value: v} }
func il(v int64) *ast.IntLit          { return &ast.IntLit{Value: v} }
func str(s string) *ast.StringLit     { return &ast.StringLit{Value: s} }
func paren(x ast.Expr) *ast.ParenExpr { return &ast.ParenExpr{X: x} }
func bin(x ast.Expr, op token.Kind, y ast.Expr) *ast.BinaryExpr {
	return &ast.BinaryExpr{X: x, Op: op, Y: y}
}

func TestExprStringMatchesFmtReference(t *testing.T) {
	cases := []ast.Expr{
		nil,
		id("acc"),
		il(0), il(7), il(-42), il(math.MaxInt64), il(math.MinInt64),
		fl(2.0), fl(1e21), fl(1e-05), fl(123456789.0), fl(0.1), fl(0),
		fl(2.5), fl(100000), fl(1e6), fl(1.0001), fl(math.MaxFloat64),
		fl(math.SmallestNonzeroFloat64), fl(-3.75), fl(math.Inf(1)), fl(math.NaN()),
		&ast.BoolLit{Value: true}, &ast.BoolLit{Value: false},
		str(""), str("plain"), str("tab\there \"quoted\" back\\slash\n"),
		str("unicode é ∑ and \x00 \x7f"), str("%d %s %%"),
		bin(id("acc"), token.PLUS, fl(2.5)),
		bin(bin(id("a"), token.STAR, id("b")), token.MINUS, paren(bin(id("c"), token.SLASH, il(2)))),
		&ast.UnaryExpr{Op: token.MINUS, X: paren(bin(id("a"), token.PLUS, id("b")))},
		&ast.UnaryExpr{Op: token.NOT, X: id("done")},
		&ast.UnaryExpr{Op: token.INC, X: id("i"), Postfix: true},
		&ast.UnaryExpr{Op: token.DEC, X: id("i")},
		&ast.AssignExpr{LHS: &ast.IndexExpr{X: id("y"), Index: id("i")}, Op: token.PLUSEQ,
			RHS: bin(id("alpha"), token.STAR, &ast.IndexExpr{X: id("x"), Index: id("i")})},
		&ast.CallExpr{Fun: id("f")},
		&ast.CallExpr{Fun: id("printf"), Args: []ast.Expr{str("%d\n"), il(1), fl(0.5)}},
		&ast.CallExpr{Fun: &ast.MemberExpr{X: id("obj"), Sel: "dot", Arrow: true},
			Args: []ast.Expr{&ast.CallExpr{Fun: id("g"), Args: []ast.Expr{
				&ast.IndexExpr{X: &ast.IndexExpr{X: id("m"), Index: id("i")}, Index: bin(id("j"), token.PLUS, il(1))}}},
				&ast.MemberExpr{X: &ast.MemberExpr{X: id("a"), Sel: "b"}, Sel: "c"}}},
		&ast.CondExpr{Cond: bin(id("n"), token.LT, il(0)), Then: paren(&ast.CondExpr{
			Cond: id("p"), Then: fl(1e-05), Else: &ast.CallExpr{Fun: id("h")}}), Else: fl(123456789.0)},
		&ast.BinaryExpr{X: id("a"), Op: token.Kind(9999), Y: id("b")},
	}
	for i, e := range cases {
		if got, want := ast.ExprString(e), refExprString(e); got != want {
			t.Errorf("case %d: ExprString = %q, reference = %q", i, got, want)
		}
	}
}

// TestExprStringMatchesOnBenchmarks compares the renderers on every
// expression of the embedded benchmark programs.
func TestExprStringMatchesOnBenchmarks(t *testing.T) {
	srcs := map[string]string{
		"stream.c": benchprogs.Stream, "dgemm.c": benchprogs.Dgemm, "minife.c": benchprogs.MiniFE,
		"fig5.c": benchprogs.Fig5, "ablation.c": benchprogs.Ablation,
	}
	for name, src := range srcs {
		f, err := parser.ParseFile(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := 0
		ast.Walk(f, func(nd ast.Node) bool {
			if e, ok := nd.(ast.Expr); ok {
				n++
				if got, want := ast.ExprString(e), refExprString(e); got != want {
					t.Errorf("%s %s: ExprString = %q, reference = %q", name, e.Pos(), got, want)
				}
			}
			return true
		})
		if n == 0 {
			t.Errorf("%s: no expressions visited", name)
		}
	}
}
