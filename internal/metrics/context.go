package metrics

import (
	"mira/internal/expr"
	"mira/internal/polyhedra"
	"mira/internal/rational"
)

// Context is a statement's execution-count context: a signed combination
// of polyhedral nests times a symbolic multiplier. Signed combinations
// express else-branches and != constraints exactly via the paper's
// complement rule (Count_true = Count_total − Count_false) while keeping
// every term inside the polyhedral framework, so nested loops below an
// else branch still count precisely.
//
// A Context is immutable once built, so its count is computed once: every
// constructor allocates a fresh memo cell, and copies of a Context share
// it. Statements in one block share their enclosing context, and each
// would otherwise re-run polyhedra.Count over the same nests. A Context
// stays inside the one funcWalker that built it, so the cell needs no
// lock.
type Context struct {
	mult  expr.Expr // multiplier applied to the whole combination
	terms []ctxTerm
	memo  *countMemo
}

// countMemo caches the outcome of a Context's first Count, error
// included, so a failing count fails the same way every time.
type countMemo struct {
	done bool
	expr expr.Expr
	err  error
}

type ctxTerm struct {
	sign int // +1 or -1
	nest polyhedra.Nest
}

// UnitContext is the top-of-function context (count 1).
func UnitContext() Context {
	return Context{mult: expr.Const(1), terms: []ctxTerm{{sign: 1}}, memo: new(countMemo)}
}

// WithLoop extends every term by a loop level.
func (c Context) WithLoop(l polyhedra.Loop) Context {
	out := Context{mult: c.mult, memo: new(countMemo)}
	for _, t := range c.terms {
		out.terms = append(out.terms, ctxTerm{sign: t.sign, nest: t.nest.WithLoop(l)})
	}
	return out
}

// WithGuards extends every term by guards (an if's then-branch).
func (c Context) WithGuards(gs []polyhedra.Guard) Context {
	out := Context{mult: c.mult, memo: new(countMemo)}
	for _, t := range c.terms {
		n := t.nest
		for _, g := range gs {
			n = n.WithGuard(g)
		}
		out.terms = append(out.terms, ctxTerm{sign: t.sign, nest: n})
	}
	return out
}

// Else returns the complement context of guards: ctx − (ctx ∧ guards).
func (c Context) Else(gs []polyhedra.Guard) Context {
	out := Context{mult: c.mult, memo: new(countMemo)}
	out.terms = append(out.terms, c.terms...)
	for _, t := range c.terms {
		n := t.nest
		for _, g := range gs {
			n = n.WithGuard(g)
		}
		out.terms = append(out.terms, ctxTerm{sign: -t.sign, nest: n})
	}
	return out
}

// Scale multiplies the context by a rational fraction (br_frac).
func (c Context) Scale(f rational.Rat) Context {
	return c.WithGuards([]polyhedra.Guard{{Kind: polyhedra.Scale, Frac: f}})
}

// Collapse folds the context into a plain multiplier. Used when an
// annotation (br_count, lp_iter on an unanalyzable loop) severs the
// dependence on enclosing loop variables.
func (c Context) Collapse() (Context, error) {
	count, err := c.Count()
	if err != nil {
		return Context{}, err
	}
	return Override(count), nil
}

// Override replaces the context count with an absolute expression
// (br_count annotations).
func Override(count expr.Expr) Context {
	return Context{mult: count, terms: []ctxTerm{{sign: 1}}, memo: new(countMemo)}
}

// Count returns the symbolic execution count, computing it on the first
// call only.
func (c Context) Count() (expr.Expr, error) {
	if !c.memo.done {
		c.memo.expr, c.memo.err = c.count()
		c.memo.done = true
	}
	return c.memo.expr, c.memo.err
}

func (c Context) count() (expr.Expr, error) {
	var total expr.Expr = expr.Const(0)
	for _, t := range c.terms {
		n, err := polyhedra.Count(t.nest)
		if err != nil {
			return nil, err
		}
		if t.sign < 0 {
			n = expr.NewNeg(n)
		}
		total = expr.NewAdd(total, n)
	}
	return expr.NewMul(c.mult, total), nil
}

// Loops returns the loop levels of the primary (first, positive) term —
// the chain inner SCoP resolution sees.
func (c Context) Loops() []*polyhedra.Loop {
	if len(c.terms) == 0 {
		return nil
	}
	return c.terms[0].nest.Loops()
}
