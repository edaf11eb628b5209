package model

import (
	"errors"
	"math"
	"math/big"
	"sort"
	"strings"
	"testing"

	"mira/internal/expr"
	"mira/internal/ir"
	"mira/internal/rational"
)

// buildModel constructs a small two-function model by hand:
//
//	inner(m): loop of m ADDSD
//	outer(n): calls inner(n*2) five times
func buildModel() *Model {
	inner := &Func{
		Name:   "inner",
		Params: []string{"m"},
		Sites: []*Site{
			{
				Line: 2, Col: 1, Desc: "s = s + 1.0",
				Ops:  []ir.OpN{{Op: ir.ADDSD, N: 1}},
				Mult: expr.P("m"),
			},
		},
	}
	outer := &Func{
		Name:   "outer",
		Params: []string{"n"},
		Sites: []*Site{
			{
				Line: 10, Col: 1, Desc: "prologue",
				Ops:  []ir.OpN{{Op: ir.PUSH, N: 1}, {Op: ir.POP, N: 1}},
				Mult: expr.Const(1),
			},
		},
		Calls: []*Call{
			{
				Callee: "inner", Line: 12,
				Mult:     expr.Const(5),
				Args:     map[string]expr.Expr{"m": expr.NewMul(expr.Const(2), expr.P("n"))},
				ArgOrder: []string{"m"},
			},
		},
	}
	lib := &Func{Name: "sqrt", Params: []string{"x"}, Extern: true}
	return &Model{
		SourceName: "hand.c",
		Order:      []string{"inner", "outer", "sqrt"},
		Funcs:      map[string]*Func{"inner": inner, "outer": outer, "sqrt": lib},
	}
}

func catVec(c ir.Category, n int64) [ir.NumCategories]int64 {
	var v [ir.NumCategories]int64
	v[c] = n
	return v
}

func TestEvaluateInclusive(t *testing.T) {
	m := buildModel()
	env := expr.EnvFromInts(map[string]int64{"n": 10})
	met, err := m.Evaluate("outer", env)
	if err != nil {
		t.Fatal(err)
	}
	// 5 calls x (2*10) ADDSD = 100 FPI plus 2 prologue instructions.
	if met.FPI() != 100 {
		t.Errorf("FPI = %d, want 100", met.FPI())
	}
	if met.Instrs != 102 {
		t.Errorf("instrs = %d, want 102", met.Instrs)
	}
}

func TestEvaluateExclusive(t *testing.T) {
	m := buildModel()
	env := expr.EnvFromInts(map[string]int64{"n": 10})
	met, err := m.EvaluateExclusive("outer", env)
	if err != nil {
		t.Fatal(err)
	}
	if met.FPI() != 0 || met.Instrs != 2 {
		t.Errorf("exclusive = %+v", met)
	}
}

func TestEvaluateOpcodes(t *testing.T) {
	m := buildModel()
	env := expr.EnvFromInts(map[string]int64{"n": 3})
	ops, err := m.EvaluateOpcodes("outer", env)
	if err != nil {
		t.Fatal(err)
	}
	if ops[ir.ADDSD] != 30 || ops[ir.PUSH] != 1 {
		t.Errorf("ops = %v", ops)
	}
}

func TestExternIsZero(t *testing.T) {
	m := buildModel()
	met, err := m.Evaluate("sqrt", nil)
	if err != nil {
		t.Fatal(err)
	}
	if met.Instrs != 0 {
		t.Errorf("extern metrics = %+v", met)
	}
}

func TestMissingFunction(t *testing.T) {
	m := buildModel()
	if _, err := m.Evaluate("ghost", nil); err == nil {
		t.Error("missing function accepted")
	}
}

func TestUnboundParameterError(t *testing.T) {
	m := buildModel()
	_, err := m.Evaluate("outer", nil) // n unbound
	if err == nil || !strings.Contains(err.Error(), "n") {
		t.Errorf("err = %v", err)
	}
}

func TestFreeParams(t *testing.T) {
	m := buildModel()
	ps := m.Funcs["outer"].FreeParams()
	if len(ps) != 1 || ps[0] != "n" {
		t.Errorf("free params = %v", ps)
	}
}

// TestMetricsFold pins the one derivation of Metrics from an opcode
// vector: categories by Op.Cat, flops by Op.Flops, instructions by sum.
func TestMetricsFold(t *testing.T) {
	var v ir.OpVec
	v[ir.ADDSD] = 3
	v[ir.ADDPD] = 2 // packed: two flops each
	v[ir.PUSH] = 5
	m, err := metricsOf("f", &v)
	if err != nil {
		t.Fatal(err)
	}
	want := Metrics{Flops: 3 + 2*2, Instrs: 10}
	want.ByCategory[ir.CatSSEArith] = 5
	want.ByCategory[ir.CatIntData] = 5
	if m != want {
		t.Errorf("fold = %+v, want %+v", m, want)
	}
}

// TestMetricsFoldOverflow: opcode counts that each fit but whose
// category, flop or instruction total leaves int64 are ErrOverflow.
func TestMetricsFoldOverflow(t *testing.T) {
	for name, set := range map[string]func(*ir.OpVec){
		"category":    func(v *ir.OpVec) { v[ir.ADDSD], v[ir.MULSD] = math.MaxInt64, 1 },
		"flops":       func(v *ir.OpVec) { v[ir.ADDPD] = math.MaxInt64/2 + 1 },
		"instrs":      func(v *ir.OpVec) { v[ir.ADDSD], v[ir.PUSH] = math.MaxInt64, 1 },
		"negative":    func(v *ir.OpVec) { v[ir.ADDSD], v[ir.MULSD] = math.MinInt64, -1 },
		"accumulated": func(v *ir.OpVec) { v[ir.PUSH], v[ir.POP], v[ir.MOVRR] = math.MaxInt64/2, math.MaxInt64/2, 2 },
	} {
		var v ir.OpVec
		set(&v)
		if _, err := metricsOf("f", &v); !errors.Is(err, ErrOverflow) {
			t.Errorf("%s: fold err = %v, want ErrOverflow", name, err)
		}
	}
}

// TestNegativeMultiplicityOverflowAgreement pins the case where the
// former twin walkers disagreed: with a negative multiplicity, the ADDSD
// total leaves int64 while every running SSE-arithmetic category sum
// stays in range, so the category walker succeeded where the opcode
// walker reported ErrOverflow. One vector, one answer: every view fails.
func TestNegativeMultiplicityOverflowAgreement(t *testing.T) {
	site := func(line int, op ir.Op, mult int64) *Site {
		return &Site{Line: line, Ops: []ir.OpN{{Op: op, N: 1}}, Mult: expr.NewMul(expr.Const(mult), expr.P("n"))}
	}
	f := &Func{Name: "f", Params: []string{"n"}, Sites: []*Site{
		site(1, ir.ADDSD, math.MaxInt64), // ADDSD = category = MaxInt64
		site(2, ir.MULSD, -1),            // category MaxInt64-1
		site(3, ir.ADDSD, 1),             // category MaxInt64; ADDSD overflows
	}}
	m := &Model{Order: []string{"f"}, Funcs: map[string]*Func{"f": f}}
	env := expr.EnvFromInts(map[string]int64{"n": 1})
	cm, err := m.Compile("f")
	if err != nil {
		t.Fatal(err)
	}
	_, errEval := m.Evaluate("f", env)
	_, errExcl := m.EvaluateExclusive("f", env)
	_, errOps := m.EvaluateOpcodes("f", env)
	_, errCEval := cm.Eval(env)
	_, errCOps := cm.EvalOps(env)
	for path, err := range map[string]error{
		"Evaluate": errEval, "EvaluateExclusive": errExcl, "EvaluateOpcodes": errOps,
		"CompiledModel.Eval": errCEval, "CompiledModel.EvalOps": errCOps,
	} {
		if !errors.Is(err, ErrOverflow) {
			t.Errorf("%s: err = %v, want ErrOverflow", path, err)
		}
	}
	evalBoth(t, m, "f", env)
}

// TestMulCheckedBoundaries pins mulChecked around its 32-bit fast path
// and the int64 limits against exact big-integer products.
func TestMulCheckedBoundaries(t *testing.T) {
	vals := []int64{0, 1, -1, 2, -2, 3, 1<<31 - 1, 1 << 31, -1 << 31, -1<<31 - 1, 1<<32 + 5,
		math.MaxInt64 / 3, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for _, a := range vals {
		for _, b := range vals {
			want := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
			got, ok := mulChecked(a, b)
			if fits := want.IsInt64(); ok != fits || (ok && got != want.Int64()) {
				t.Errorf("mulChecked(%d, %d) = %d, %t; want %s, %t", a, b, got, ok, want, fits)
			}
		}
	}
}

func TestCategoryTable(t *testing.T) {
	met := Metrics{}
	met.ByCategory[ir.CatSSEArith] = 5
	met.ByCategory[ir.CatIntData] = 50
	rows := CategoryTable(met)
	if len(rows) != 2 || rows[0].Count != 50 {
		t.Errorf("rows = %+v", rows)
	}
}

// TestCategoryTableTieOrder is the golden order for tied counts: rows
// with equal counts sort by category name, so the rendered table is
// byte-identical on every run (unstable sort.Slice used to shuffle
// them).
func TestCategoryTableTieOrder(t *testing.T) {
	met := Metrics{}
	met.ByCategory[ir.CatSSEArith] = 7
	met.ByCategory[ir.CatIntData] = 7
	met.ByCategory[ir.CatIntArith] = 7
	met.ByCategory[ir.CatIntControl] = 9
	want := []string{
		ir.CatIntControl.String(), // 9 first
		// The three tied at 7, alphabetically:
		ir.CatIntArith.String(),
		ir.CatIntData.String(),
		ir.CatSSEArith.String(),
	}
	sort.Strings(want[1:])
	for run := 0; run < 20; run++ {
		rows := CategoryTable(met)
		if len(rows) != 4 {
			t.Fatalf("rows = %+v", rows)
		}
		for i, w := range want {
			if rows[i].Category != w {
				t.Fatalf("run %d: row %d = %q, want %q (tied rows must sort by name)",
					run, i, rows[i].Category, w)
			}
		}
	}
}

func TestMangledParam(t *testing.T) {
	if got := MangledParam("y", 16); got != "y_16" {
		t.Errorf("MangledParam = %q, want y_16 (the paper's convention)", got)
	}
}

func TestPythonEmission(t *testing.T) {
	m := buildModel()
	py := m.EmitPython()
	for _, want := range []string{
		"def handle_function_call(caller, callee, count):",
		"def inner_1(m):",
		"def outer_1(n):",
		"def sqrt_1(x):",
		"external library function",
		"handle_function_call(metrics, inner_1(2*n), 5)",
		"SSE2 packed arithmetic instruction",
	} {
		if !strings.Contains(py, want) {
			t.Errorf("python missing %q\n----\n%s", want, py)
		}
	}
}

func TestPyFuncNameConventions(t *testing.T) {
	cases := []struct {
		f    *Func
		want string
	}{
		{&Func{Name: "A::foo", Params: []string{"x", "y"}}, "A_foo_2"},
		{&Func{Name: "main"}, "main_0"},
		{&Func{Name: "MatVec::operator()", Params: []string{"n", "A", "x", "y"}}, "MatVec_operator_call_4"},
	}
	for _, c := range cases {
		if got := PyFuncName(c.f); got != c.want {
			t.Errorf("PyFuncName(%s) = %q, want %q", c.f.Name, got, c.want)
		}
	}
}

// opsTotal sums a per-opcode count map — the instruction total the
// opcode walker implies.
func opsTotal(ops map[ir.Op]int64) int64 {
	var n int64
	for _, c := range ops {
		n += c
	}
	return n
}

// fracModel builds a model whose multiplicities are fractional (the
// br_frac shape): a site executed n/4 times and a callee invoked 5/2
// times. Both walkers must round these identically.
func fracModel() *Model {
	leaf := &Func{
		Name: "leaf",
		Sites: []*Site{
			{
				Line: 2, Col: 1, Desc: "body",
				Ops:  []ir.OpN{{Op: ir.ADDSD, N: 1}},
				Mult: expr.Const(7),
			},
		},
	}
	top := &Func{
		Name:   "top",
		Params: []string{"n"},
		Sites: []*Site{
			{
				Line: 10, Col: 1, Desc: "guarded",
				Ops: []ir.OpN{{Op: ir.MULSD, N: 1}},
				// n/4 executions: fractional for n not divisible by 4.
				Mult: expr.NewMul(expr.ConstRat(rational.FromFrac(1, 4)), expr.P("n")),
			},
		},
		Calls: []*Call{
			{
				Callee: "leaf", Line: 12,
				// 5/2 invocations: rounds to 3, truncates to 2.
				Mult: expr.ConstRat(rational.FromFrac(5, 2)),
				Args: map[string]expr.Expr{},
			},
		},
	}
	return &Model{
		SourceName: "frac.c",
		Order:      []string{"leaf", "top"},
		Funcs:      map[string]*Func{"leaf": leaf, "top": top},
	}
}

// TestFractionalMultiplicityAgreement is the regression test for the
// rounding divergence: evalOpcodes used to truncate fractional
// multiplicities where eval rounded to nearest, so Table II totals
// disagreed with Evaluate on br_frac-annotated programs.
func TestFractionalMultiplicityAgreement(t *testing.T) {
	m := fracModel()
	for _, n := range []int64{1, 2, 3, 5, 6, 7, 101, 102, 103} {
		env := expr.EnvFromInts(map[string]int64{"n": n})
		met, err := m.Evaluate("top", env)
		if err != nil {
			t.Fatalf("n=%d: Evaluate: %v", n, err)
		}
		ops, err := m.EvaluateOpcodes("top", env)
		if err != nil {
			t.Fatalf("n=%d: EvaluateOpcodes: %v", n, err)
		}
		if got := opsTotal(ops); got != met.Instrs {
			t.Errorf("n=%d: opcode total %d != Evaluate instrs %d", n, got, met.Instrs)
		}
	}
	// Spot-check the rounding direction: n=2 gives site mult 1/2 -> 1
	// (round to nearest, ties up) and call mult 5/2 -> 3 calls of 7.
	env := expr.EnvFromInts(map[string]int64{"n": 2})
	met, err := m.Evaluate("top", env)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(1 + 3*7); met.Instrs != want {
		t.Errorf("Instrs = %d, want %d", met.Instrs, want)
	}
	ops, err := m.EvaluateOpcodes("top", env)
	if err != nil {
		t.Fatal(err)
	}
	if ops[ir.ADDSD] != 21 || ops[ir.MULSD] != 1 {
		t.Errorf("ops = %v, want ADDSD=21 MULSD=1", ops)
	}
}

// bindModel builds a caller whose argument expression is not computable
// (it references an unbound name) while the caller's own scope binds the
// callee's parameter name — the shape where evalOpcodes used to leak the
// stale caller binding into the callee instead of applying the
// mangled-name fallback.
func bindModel() *Model {
	callee := &Func{
		Name:   "callee",
		Params: []string{"m"},
		Sites: []*Site{
			{
				Line: 2, Col: 1, Desc: "body",
				Ops:  []ir.OpN{{Op: ir.ADDSD, N: 1}},
				Mult: expr.P("m"),
			},
		},
	}
	caller := &Func{
		Name:   "caller",
		Params: []string{"m"}, // same name as the callee's parameter
		Calls: []*Call{
			{
				Callee: "callee", Line: 12,
				Mult:     expr.Const(1),
				Args:     map[string]expr.Expr{"m": expr.P("q")}, // q never bound
				ArgOrder: []string{"m"},
			},
		},
	}
	return &Model{
		SourceName: "bind.c",
		Order:      []string{"callee", "caller"},
		Funcs:      map[string]*Func{"callee": callee, "caller": caller},
	}
}

// TestCallArgBindingAgreement is the regression test for the argument-
// binding divergence: with the mangled name bound, both walkers must use
// it (not the caller-scope value); without it, both must fail the same
// way rather than one walker silently reusing the caller's binding.
func TestCallArgBindingAgreement(t *testing.T) {
	m := bindModel()

	// Mangled name supplied: callee sees m_12=100, not the caller's m=5.
	env := expr.EnvFromInts(map[string]int64{"m": 5, "m_12": 100})
	met, err := m.Evaluate("caller", env)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if met.Instrs != 100 {
		t.Errorf("Evaluate instrs = %d, want 100 (mangled binding)", met.Instrs)
	}
	ops, err := m.EvaluateOpcodes("caller", env)
	if err != nil {
		t.Fatalf("EvaluateOpcodes: %v", err)
	}
	if ops[ir.ADDSD] != 100 {
		t.Errorf("EvaluateOpcodes ADDSD = %d, want 100 (stale caller-scope binding leaked?)", ops[ir.ADDSD])
	}

	// Mangled name absent: both walkers must report the uncomputable
	// argument, not fall back to the caller's m.
	env = expr.EnvFromInts(map[string]int64{"m": 5})
	if _, err := m.Evaluate("caller", env); err == nil || !strings.Contains(err.Error(), "m_12") {
		t.Errorf("Evaluate err = %v, want mangled-name diagnostic", err)
	}
	if _, err := m.EvaluateOpcodes("caller", env); err == nil || !strings.Contains(err.Error(), "m_12") {
		t.Errorf("EvaluateOpcodes err = %v, want mangled-name diagnostic", err)
	}
}

// TestCallDepthErrorAgreement pins the depth limit across all three
// evaluation paths: a call chain one level deeper than the limit fails
// the inclusive walker, the opcode walker, and the compiled path with
// byte-identical errors (the opcode walker used to word it differently).
func TestCallDepthErrorAgreement(t *testing.T) {
	m := &Model{Funcs: map[string]*Func{}}
	name := func(i int) string { return "f" + strings.Repeat("x", i) }
	for i := 0; i <= maxCallDepth+1; i++ {
		f := &Func{Name: name(i), Sites: []*Site{{
			Line: 1, Ops: []ir.OpN{{Op: ir.ADDSD, N: 1}}, Mult: expr.Const(1),
		}}}
		if i <= maxCallDepth {
			f.Calls = []*Call{{Callee: name(i + 1), Line: 2, Mult: expr.Const(1)}}
		}
		m.Funcs[f.Name] = f
		m.Order = append(m.Order, f.Name)
	}
	want := errCallDepth(name(maxCallDepth + 1)).Error()
	_, errEval := m.Evaluate(name(0), expr.Env{})
	_, errOps := m.EvaluateOpcodes(name(0), expr.Env{})
	_, errCompile := m.Compile(name(0))
	for path, err := range map[string]error{"Evaluate": errEval, "EvaluateOpcodes": errOps, "Compile": errCompile} {
		if err == nil || err.Error() != want {
			t.Errorf("%s at the depth limit: %v, want %q", path, err, want)
		}
	}
	// One level shallower, every path succeeds.
	delete(m.Funcs, name(maxCallDepth+1))
	m.Funcs[name(maxCallDepth)].Calls = nil
	evalBoth(t, m, name(0), expr.Env{})
}
