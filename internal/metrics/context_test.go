package metrics

import (
	"errors"
	"testing"

	"mira/internal/expr"
	"mira/internal/polyhedra"
)

func TestContextCountIsMemoized(t *testing.T) {
	ctx := UnitContext().WithLoop(polyhedra.Loop{Var: "i", Lo: expr.Const(0), Hi: expr.P("n"), Step: 1})
	first, err := ctx.Count()
	if err != nil {
		t.Fatal(err)
	}
	cp := ctx
	var again, viaCopy expr.Expr
	allocs := testing.AllocsPerRun(100, func() {
		again, _ = ctx.Count()
		viaCopy, _ = cp.Count()
	})
	if allocs != 0 {
		t.Errorf("repeated Count allocates %v times per run, want 0", allocs)
	}
	if !expr.Equal(again, first) || !expr.Equal(viaCopy, first) {
		t.Errorf("memoized counts %s, %s differ from the first %s", again, viaCopy, first)
	}
	if want := "(1 + n)"; first.String() != want {
		t.Errorf("count = %s, want %s", first, want)
	}
}

func TestDerivedContextsGetTheirOwnMemo(t *testing.T) {
	n := expr.P("n")
	ctx := UnitContext().WithLoop(polyhedra.Loop{Var: "i", Lo: expr.Const(1), Hi: n, Step: 1})
	if _, err := ctx.Count(); err != nil {
		t.Fatal(err)
	}
	guards := []polyhedra.Guard{{Kind: polyhedra.AffineGE, E: expr.NewSub(expr.P("i"), expr.Const(3))}}
	derived := map[string]Context{
		"WithLoop":   ctx.WithLoop(polyhedra.Loop{Var: "j", Lo: expr.Const(1), Hi: n, Step: 1}),
		"WithGuards": ctx.WithGuards(guards),
		"Else":       ctx.Else(guards),
	}
	parent, _ := ctx.Count()
	for name, d := range derived {
		if d.memo == ctx.memo {
			t.Errorf("%s shares its parent's memo cell", name)
		}
		got, err := d.Count()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fresh, err := d.count()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !expr.Equal(got, fresh) {
			t.Errorf("%s: Count = %s, recount = %s", name, got, fresh)
		}
		if expr.Equal(got, parent) {
			t.Errorf("%s: Count = %s, the parent's count", name, got)
		}
	}
	if again, _ := ctx.Count(); !expr.Equal(again, parent) {
		t.Errorf("parent count changed to %s after deriving, was %s", again, parent)
	}
}

func TestFailingCountFailsTheSameEveryTime(t *testing.T) {
	// min() in a lower bound is a union of polyhedra: not countable.
	ctx := UnitContext().WithLoop(polyhedra.Loop{
		Var: "i", Lo: expr.NewMin(expr.P("a"), expr.P("b")), Hi: expr.P("n"), Step: 1})
	_, err1 := ctx.Count()
	if !errors.Is(err1, polyhedra.ErrNonConvex) {
		t.Fatalf("Count error = %v, want ErrNonConvex", err1)
	}
	cp := ctx
	for i := 0; i < 3; i++ {
		for _, c := range []Context{ctx, cp} {
			if e, err := c.Count(); err != err1 || e != nil {
				t.Errorf("call %d: Count = %v, %v; want nil, the first error %v", i, e, err, err1)
			}
		}
	}
	if _, err := ctx.Collapse(); err != err1 {
		t.Errorf("Collapse error = %v, want the memoized %v", err, err1)
	}
}
