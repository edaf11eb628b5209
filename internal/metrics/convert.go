package metrics

import (
	"fmt"
	"strconv"

	"mira/internal/ast"
	"mira/internal/expr"
	"mira/internal/polyhedra"
	"mira/internal/rational"
	"mira/internal/token"
)

// ErrNotStatic reports an expression or control structure that static
// analysis cannot resolve without a user annotation (the situations of
// paper Listings 3 and 6).
type ErrNotStatic struct {
	Pos    token.Pos
	Reason string
}

func (e *ErrNotStatic) Error() string {
	return fmt.Sprintf("%s: not statically analyzable: %s (add a #pragma @Annotation)", e.Pos, e.Reason)
}

// scope tracks name resolution during model generation: enclosing loop
// variables (renamed to be unique within the nest) and copy-propagated
// integer locals.
type scope struct {
	gen      *Generator
	fnParams map[string]bool   // numeric parameters of the current function
	loopVars map[string]string // source name -> unique nest name
	bindings map[string]expr.Expr
	invalid  map[string]bool // locals that lost their binding
	annot    map[string]bool // annotation parameters registered so far
	seq      int
}

func (s *scope) uniqueLoopVar(name string) string {
	s.seq++
	if _, taken := s.loopVars[name]; !taken && !s.fnParams[name] {
		return name
	}
	return name + "__" + strconv.Itoa(s.seq)
}

// convert translates a source expression into a symbolic expression over
// loop variables, function parameters, and constants.
func (s *scope) convert(e ast.Expr) (expr.Expr, error) {
	switch x := e.(type) {
	case *ast.IntLit:
		return expr.Const(x.Value), nil
	case *ast.BoolLit:
		if x.Value {
			return expr.Const(1), nil
		}
		return expr.Const(0), nil
	case *ast.ParenExpr:
		return s.convert(x.X)
	case *ast.Ident:
		if u, ok := s.loopVars[x.Name]; ok {
			return expr.P(u), nil
		}
		if v, ok := s.bindings[x.Name]; ok && !s.invalid[x.Name] {
			return v, nil
		}
		if s.invalid[x.Name] {
			return nil, &ErrNotStatic{Pos: x.Pos(), Reason: fmt.Sprintf("variable %q is reassigned in a loop", x.Name)}
		}
		if g, ok := s.gen.prog.Globals[x.Name]; ok {
			if g.IsConst && g.HasConst && g.Type.Kind != ast.Double {
				return expr.Const(g.ConstI), nil
			}
			// Non-const global scalar: a model parameter.
			if len(g.Dims) == 0 && g.Type.Ptr == 0 && g.Type.Kind == ast.Int {
				return expr.P(x.Name), nil
			}
			return nil, &ErrNotStatic{Pos: x.Pos(), Reason: fmt.Sprintf("global %q is not an integer scalar", x.Name)}
		}
		if s.fnParams[x.Name] {
			return expr.P(x.Name), nil
		}
		return nil, &ErrNotStatic{Pos: x.Pos(), Reason: fmt.Sprintf("value of %q is not statically known", x.Name)}
	case *ast.UnaryExpr:
		if x.Op == token.MINUS {
			v, err := s.convert(x.X)
			if err != nil {
				return nil, err
			}
			return expr.NewNeg(v), nil
		}
		return nil, &ErrNotStatic{Pos: x.Pos(), Reason: fmt.Sprintf("unary %s", x.Op)}
	case *ast.BinaryExpr:
		a, err := s.convert(x.X)
		if err != nil {
			return nil, err
		}
		b, err := s.convert(x.Y)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case token.PLUS:
			return expr.NewAdd(a, b), nil
		case token.MINUS:
			return expr.NewSub(a, b), nil
		case token.STAR:
			return expr.NewMul(a, b), nil
		case token.SLASH:
			c, ok := expr.ConstVal(b)
			if !ok || c.Sign() == 0 {
				return nil, &ErrNotStatic{Pos: x.Pos(), Reason: "division by a non-constant"}
			}
			return expr.NewFloorDiv(a, c), nil
		default:
			return nil, &ErrNotStatic{Pos: x.Pos(), Reason: fmt.Sprintf("operator %s", x.Op)}
		}
	case *ast.CallExpr:
		// min/max of statically known values stay analyzable; the paper's
		// Listing 3 shows how they can still break convexity, which the
		// polyhedral layer detects downstream.
		if id, ok := x.Fun.(*ast.Ident); ok && len(x.Args) == 2 {
			if id.Name == "min" || id.Name == "fmin" || id.Name == "max" || id.Name == "fmax" {
				a, err := s.convert(x.Args[0])
				if err != nil {
					return nil, err
				}
				b, err := s.convert(x.Args[1])
				if err != nil {
					return nil, err
				}
				if id.Name == "min" || id.Name == "fmin" {
					return expr.NewMin(a, b), nil
				}
				return expr.NewMax(a, b), nil
			}
		}
		return nil, &ErrNotStatic{Pos: x.Pos(), Reason: "loop bound depends on a function call return value"}
	case *ast.IndexExpr:
		return nil, &ErrNotStatic{Pos: x.Pos(), Reason: "loop bound depends on an array element"}
	}
	return nil, &ErrNotStatic{Pos: e.Pos(), Reason: fmt.Sprintf("expression %T", e)}
}

// annotValue converts an annotation value to an expression, registering
// parameter-valued annotations as model parameters.
func (s *scope) annotValue(v *ast.AnnotValue) expr.Expr {
	if v.IsParam {
		s.annot[v.Param] = true
		return expr.P(v.Param)
	}
	r, err := rational.FromFloat(v.Num)
	if err != nil {
		r = rational.Zero
	}
	return expr.ConstRat(r)
}

// scopInfo is an extracted static control part.
type scopInfo struct {
	srcVar string // source loop variable name ("" for annotated iter loops)
	loop   polyhedra.Loop
}

// extractSCoP derives the polyhedral loop from a for statement,
// considering annotations (paper Sec. III-C2, III-C4).
func (s *scope) extractSCoP(st *ast.ForStmt) (*scopInfo, error) {
	ann := st.Annot

	// lp_iter short-circuits everything: a rectangular [1..N] loop.
	if ann != nil && ann.LoopIter != nil {
		v := s.uniqueLoopVar("__iter")
		return &scopInfo{loop: polyhedra.Loop{
			Var: v, Lo: expr.Const(1), Hi: s.annotValue(ann.LoopIter), Step: 1,
		}}, nil
	}

	varName, initE, err := splitInit(st)
	if err != nil {
		return nil, err
	}
	stepVar, step, err := splitPost(st, varName)
	if err != nil {
		return nil, err
	}
	if stepVar != varName {
		return nil, &ErrNotStatic{Pos: st.Pos(), Reason: fmt.Sprintf("loop increments %q but initializes %q", stepVar, varName)}
	}

	// Initial value: annotation overrides a non-static init.
	var lo expr.Expr
	if ann != nil && ann.LoopInit != nil {
		lo = s.annotValue(ann.LoopInit)
	} else {
		lo, err = s.convert(initE)
		if err != nil {
			return nil, err
		}
	}

	// Condition bound.
	var boundE expr.Expr
	var condOp token.Kind
	if ann != nil && ann.LoopCond != nil {
		boundE = s.annotValue(ann.LoopCond)
		condOp = token.LEQ // annotation supplies an inclusive bound
		if step < 0 {
			condOp = token.GEQ
		}
	} else {
		if st.Cond == nil {
			return nil, &ErrNotStatic{Pos: st.Pos(), Reason: "loop has no condition"}
		}
		cmp, ok := st.Cond.(*ast.BinaryExpr)
		if !ok || !cmp.Op.IsCmpOp() {
			return nil, &ErrNotStatic{Pos: st.Cond.Pos(), Reason: "loop condition is not a comparison"}
		}
		lhsVar := identName(cmp.X) == varName
		rhsVar := identName(cmp.Y) == varName
		var raw ast.Expr
		condOp = cmp.Op
		switch {
		case lhsVar:
			raw = cmp.Y
		case rhsVar:
			raw = cmp.X
			condOp = flipCmp(cmp.Op)
		default:
			return nil, &ErrNotStatic{Pos: cmp.Pos(), Reason: fmt.Sprintf("loop condition does not test %q", varName)}
		}
		boundE, err = s.convert(raw)
		if err != nil {
			return nil, err
		}
	}
	if ann != nil && ann.LoopStep != nil {
		sv, okC := expr.ConstVal(s.annotValue(ann.LoopStep))
		iv, okI := sv.Int64()
		if !okC || !okI || iv == 0 {
			return nil, &ErrNotStatic{Pos: ann.Pos, Reason: "lp_step must be a nonzero integer constant"}
		}
		step = iv
	}

	// Normalize to an upward loop [Lo..Hi] with positive step.
	var loFinal, hiFinal expr.Expr
	switch {
	case step > 0:
		loFinal = lo
		switch condOp {
		case token.LT:
			hiFinal = expr.NewSub(boundE, expr.Const(1))
		case token.LEQ:
			hiFinal = boundE
		case token.NEQ:
			hiFinal = expr.NewSub(boundE, expr.Const(1))
		default:
			return nil, &ErrNotStatic{Pos: st.Pos(), Reason: fmt.Sprintf("upward loop with %s condition", condOp)}
		}
	case step < 0:
		hiFinal = lo
		switch condOp {
		case token.GT:
			loFinal = expr.NewAdd(boundE, expr.Const(1))
		case token.GEQ:
			loFinal = boundE
		case token.NEQ:
			loFinal = expr.NewAdd(boundE, expr.Const(1))
		default:
			return nil, &ErrNotStatic{Pos: st.Pos(), Reason: fmt.Sprintf("downward loop with %s condition", condOp)}
		}
		step = -step
	}

	u := s.uniqueLoopVar(varName)
	return &scopInfo{
		srcVar: varName,
		loop:   polyhedra.Loop{Var: u, Lo: loFinal, Hi: hiFinal, Step: step},
	}, nil
}

func identName(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func flipCmp(op token.Kind) token.Kind {
	switch op {
	case token.LT:
		return token.GT
	case token.GT:
		return token.LT
	case token.LEQ:
		return token.GEQ
	case token.GEQ:
		return token.LEQ
	}
	return op
}

// splitInit extracts (variable, initial-value expression) from a for init.
func splitInit(st *ast.ForStmt) (string, ast.Expr, error) {
	switch init := st.Init.(type) {
	case *ast.ExprStmt:
		asg, ok := init.X.(*ast.AssignExpr)
		if !ok || asg.Op != token.ASSIGN {
			return "", nil, &ErrNotStatic{Pos: init.Pos(), Reason: "loop init is not a simple assignment"}
		}
		name := identName(asg.LHS)
		if name == "" {
			return "", nil, &ErrNotStatic{Pos: init.Pos(), Reason: "loop init target is not a variable"}
		}
		return name, asg.RHS, nil
	case *ast.VarDecl:
		if len(init.Names) != 1 || init.Names[0].Init == nil {
			return "", nil, &ErrNotStatic{Pos: init.Pos(), Reason: "loop init declaration must declare one initialized variable"}
		}
		return init.Names[0].Name, init.Names[0].Init, nil
	case nil:
		return "", nil, &ErrNotStatic{Pos: st.Pos(), Reason: "loop has no init clause"}
	}
	return "", nil, &ErrNotStatic{Pos: st.Pos(), Reason: "unsupported loop init"}
}

// splitPost extracts (variable, signed constant step) from a for post.
func splitPost(st *ast.ForStmt, wantVar string) (string, int64, error) {
	post := st.Post
	if post == nil {
		return "", 0, &ErrNotStatic{Pos: st.Pos(), Reason: "loop has no increment clause"}
	}
	switch x := post.(type) {
	case *ast.UnaryExpr:
		name := identName(x.X)
		switch x.Op {
		case token.INC:
			return name, 1, nil
		case token.DEC:
			return name, -1, nil
		}
	case *ast.AssignExpr:
		name := identName(x.LHS)
		switch x.Op {
		case token.PLUSEQ, token.MINUSEQ:
			if c, ok := constLit(x.RHS); ok {
				if x.Op == token.MINUSEQ {
					c = -c
				}
				return name, c, nil
			}
		case token.ASSIGN:
			// i = i + c or i = i - c.
			if bin, ok := x.RHS.(*ast.BinaryExpr); ok && identName(bin.X) == name {
				if c, okc := constLit(bin.Y); okc {
					if bin.Op == token.PLUS {
						return name, c, nil
					}
					if bin.Op == token.MINUS {
						return name, -c, nil
					}
				}
			}
		}
	}
	return "", 0, &ErrNotStatic{Pos: post.Pos(), Reason: "loop increment is not a constant step"}
}

func constLit(e ast.Expr) (int64, bool) {
	if il, ok := e.(*ast.IntLit); ok {
		return il.Value, true
	}
	return 0, false
}

// guardSet is a parsed branch condition.
type guardSet struct {
	guards []polyhedra.Guard
	// negate means the parsed guards describe the FALSE branch (the
	// complement trick): e.g. "x != y" parses to the == guards negated.
	negate bool
}

// parseGuards converts an if condition into polyhedral guards.
func (s *scope) parseGuards(cond ast.Expr) (*guardSet, error) {
	switch x := cond.(type) {
	case *ast.ParenExpr:
		return s.parseGuards(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			inner, err := s.parseGuards(x.X)
			if err != nil {
				return nil, err
			}
			inner.negate = !inner.negate
			return inner, nil
		}
	case *ast.BinaryExpr:
		if x.Op == token.ANDAND {
			a, err := s.parseGuards(x.X)
			if err != nil {
				return nil, err
			}
			b, err := s.parseGuards(x.Y)
			if err != nil {
				return nil, err
			}
			if a.negate || b.negate {
				return nil, &ErrNotStatic{Pos: x.Pos(), Reason: "negated conjunct in a compound condition"}
			}
			return &guardSet{guards: append(a.guards, b.guards...)}, nil
		}
		if x.Op.IsCmpOp() {
			return s.parseComparison(x)
		}
	}
	return nil, &ErrNotStatic{Pos: cond.Pos(), Reason: "branch condition is not affine"}
}

func (s *scope) parseComparison(x *ast.BinaryExpr) (*guardSet, error) {
	// Modulo pattern: E % m == k / E % m != k.
	if modE, m, ok := modPattern(x.X); ok && (x.Op == token.EQ || x.Op == token.NEQ) {
		k, okK := constLit(x.Y)
		if !okK {
			return nil, &ErrNotStatic{Pos: x.Pos(), Reason: "modulo comparison with non-constant residue"}
		}
		e, err := s.convert(modE)
		if err != nil {
			return nil, err
		}
		kind := polyhedra.ModEq
		if x.Op == token.NEQ {
			kind = polyhedra.ModNeq
		}
		rem := ((k % m) + m) % m
		return &guardSet{guards: []polyhedra.Guard{{Kind: kind, E: e, Mod: m, Rem: rem}}}, nil
	}

	a, err := s.convert(x.X)
	if err != nil {
		return nil, err
	}
	b, err := s.convert(x.Y)
	if err != nil {
		return nil, err
	}
	ge := func(e expr.Expr) polyhedra.Guard {
		return polyhedra.Guard{Kind: polyhedra.AffineGE, E: e}
	}
	switch x.Op {
	case token.LT: // a < b  <=>  b - a - 1 >= 0
		return &guardSet{guards: []polyhedra.Guard{ge(expr.NewSub(expr.NewSub(b, a), expr.Const(1)))}}, nil
	case token.LEQ:
		return &guardSet{guards: []polyhedra.Guard{ge(expr.NewSub(b, a))}}, nil
	case token.GT:
		return &guardSet{guards: []polyhedra.Guard{ge(expr.NewSub(expr.NewSub(a, b), expr.Const(1)))}}, nil
	case token.GEQ:
		return &guardSet{guards: []polyhedra.Guard{ge(expr.NewSub(a, b))}}, nil
	case token.EQ:
		return &guardSet{guards: []polyhedra.Guard{ge(expr.NewSub(a, b)), ge(expr.NewSub(b, a))}}, nil
	case token.NEQ:
		// != is the complement of ==.
		return &guardSet{
			guards: []polyhedra.Guard{ge(expr.NewSub(a, b)), ge(expr.NewSub(b, a))},
			negate: true,
		}, nil
	}
	return nil, &ErrNotStatic{Pos: x.Pos(), Reason: "unsupported comparison"}
}

// modPattern matches E % m.
func modPattern(e ast.Expr) (ast.Expr, int64, bool) {
	bin, ok := e.(*ast.BinaryExpr)
	if !ok || bin.Op != token.PERCENT {
		return nil, 0, false
	}
	m, okM := constLit(bin.Y)
	if !okM || m <= 0 {
		return nil, 0, false
	}
	return bin.X, m, true
}
