package expr

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mira/internal/rational"
)

// refString is the fmt-based rendering String had before the shared
// append renderer, kept as the reference: renderings are the like-term
// and sort keys of the smart constructors, so any drift would reorder
// terms and change every emitted model.
func refString(e Expr) string {
	switch x := e.(type) {
	case Num:
		return x.Val.String()
	case Param:
		return x.Name
	case Var:
		return x.Name
	case Add:
		parts := make([]string, len(x.Terms))
		for i, t := range x.Terms {
			parts[i] = refString(t)
		}
		return "(" + strings.Join(parts, " + ") + ")"
	case Mul:
		parts := make([]string, len(x.Factors))
		for i, f := range x.Factors {
			parts[i] = refString(f)
		}
		return strings.Join(parts, "*")
	case FloorDiv:
		return fmt.Sprintf("floor(%s / %s)", refString(x.X), x.D)
	case Min:
		return fmt.Sprintf("min(%s, %s)", refString(x.A), refString(x.B))
	case Max:
		return fmt.Sprintf("max(%s, %s)", refString(x.A), refString(x.B))
	case Sum:
		return fmt.Sprintf("sum(%s=%s..%s)[%s]", x.Var, refString(x.Lo), refString(x.Hi), refString(x.Body))
	}
	panic(fmt.Sprintf("refString: unexpected %T", e))
}

func renderCases() []Expr {
	n, m := P("n"), P("m")
	bigRat := rational.FromInt(1) // 2^160: past int64, so rendering takes the big path
	for i := 0; i < 4; i++ {
		bigRat = bigRat.Mul(rational.FromInt(1 << 40))
	}
	return []Expr{
		Const(0), Const(-7), ConstRat(rational.FromFrac(-3, 4)), ConstRat(rational.FromFrac(10, 4)),
		ConstRat(bigRat), ConstRat(bigRat.Div(rational.FromInt(3))), ConstRat(bigRat.Neg().Add(rational.FromFrac(1, 7))),
		Num{}, // the zero value renders as 0
		n, V("i"),
		Add{Terms: []Expr{Const(1), n, Mul{Factors: []Expr{Const(-2), m, n}}}},
		Mul{Factors: []Expr{ConstRat(rational.FromFrac(1, 2)), Add{Terms: []Expr{n, Const(1)}}, m}},
		FloorDiv{X: NewAdd(n, Const(-1)), D: rational.FromInt(4)},
		FloorDiv{X: n, D: rational.FromFrac(3, 2)}, // fractional divisor
		FloorDiv{X: NewMul(n, m), D: rational.FromFrac(-7, 3)},
		Min{A: n, B: Const(5)},
		Max{A: Const(0), B: NewAdd(n, Const(-3))},
		Sum{Var: "i", Lo: Const(0), Hi: Min{A: n, B: m}, Body: Max{A: V("i"), B: FloorDiv{X: m, D: rational.FromFrac(5, 2)}}},
		Sum{Var: "j", Lo: Max{A: Const(1), B: n}, Hi: NewAdd(m, Const(-1)),
			Body: Sum{Var: "k", Lo: V("j"), Hi: m, Body: Min{A: V("k"), B: Mul{Factors: []Expr{Const(3), V("j")}}}}},
		NewAdd(NewMul(n, m), Trips(Const(0), n, 3), NewSum("i", Const(0), n, NewMax(V("i"), m))),
	}
}

func TestRenderingMatchesFmtReference(t *testing.T) {
	for i, e := range renderCases() {
		if got, want := e.String(), refString(e); got != want {
			t.Errorf("case %d: String = %q, reference = %q", i, got, want)
		}
		if got, want := string(appendSortKey([]byte("prefix"), e)), "prefix"+refSortKey(e); got != want {
			t.Errorf("case %d: sort key = %q, reference = %q", i, got, want)
		}
	}
}

// refSortKey is the comparator key sortExprs used to rebuild on every
// comparison.
func refSortKey(e Expr) string {
	if _, ok := e.(Num); ok {
		return "0"
	}
	return "1" + refString(e)
}

// TestSortExprsMatchesReference checks the keyed sort against the old
// comparator sort on random slices with duplicates and several
// constants, whose relative order a stable sort must keep.
func TestSortExprsMatchesReference(t *testing.T) {
	pool := renderCases()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		es := make([]Expr, rng.Intn(12))
		for i := range es {
			es[i] = pool[rng.Intn(len(pool))]
		}
		want := append([]Expr(nil), es...)
		sort.SliceStable(want, func(i, j int) bool { return refSortKey(want[i]) < refSortKey(want[j]) })
		sortExprs(es)
		for i := range es {
			if got, w := refString(es[i]), refString(want[i]); got != w {
				t.Fatalf("trial %d: position %d = %s, reference %s", trial, i, got, w)
			}
		}
	}
}
