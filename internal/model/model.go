// Package model defines Mira's generated performance model: per-function
// metric programs over symbolic multiplicities (paper Sec. III-C, Fig. 5).
//
// A Func mirrors one source function. Each Site pairs the per-opcode
// counts of one source position (from the bridge) with a symbolic
// execution-count expression (from the polyhedral model). Each Call records
// a callee invocation with its multiplicity and argument bindings; calls
// combine caller and callee metrics exactly like the paper's
// handle_function_call helper.
//
// The model is dual-form: it evaluates directly in Go (used by the
// validation harness and benches), and it emits Python source matching the
// paper's artifact style (see python.go).
package model

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

	"mira/internal/expr"
	"mira/internal/ir"
	"mira/internal/rational"
)

// ErrOverflow is the typed error every evaluation path (the walker and
// the compiled pass) returns when an instruction count or multiplicity
// no longer fits in int64. At sweep-scale sizes (dgemm n^3 flops) raw
// accumulation silently wraps negative and poisons every cache built on
// top; check with errors.Is.
var ErrOverflow = errors.New("count overflows int64")

// addChecked returns a+b, reporting overflow instead of wrapping.
func addChecked(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// mulChecked returns a*b, reporting overflow instead of wrapping.
func mulChecked(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	// Fast path: both factors fit in 32 bits, so the product fits in 63.
	if uint64(a+1<<31) < 1<<32 && uint64(b+1<<31) < 1<<32 {
		return a * b, true
	}
	if a == math.MinInt64 || b == math.MinInt64 {
		// |MinInt64| is not representable; the only safe partner is 1.
		if a == 1 {
			return b, true
		}
		if b == 1 {
			return a, true
		}
		return 0, false
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

// Metrics is an evaluated instruction-count vector.
type Metrics struct {
	ByCategory [ir.NumCategories]int64
	Flops      int64
	Instrs     int64
}

// FPI returns the floating-point instruction count (PAPI_FP_INS analogue:
// the SSE2 packed/scalar arithmetic category).
func (m Metrics) FPI() int64 { return m.ByCategory[ir.CatSSEArith] }

// accumInto adds n*mult into *dst, reporting overflow instead of
// wrapping. The one accumulation primitive of the walker and the
// compiled pass — their overflow policies must never diverge.
func accumInto(dst *int64, n, mult int64) bool {
	p, ok := mulChecked(n, mult)
	if !ok {
		return false
	}
	s, ok := addChecked(*dst, p)
	if !ok {
		return false
	}
	*dst = s
	return true
}

// metricsOf folds an evaluated opcode vector into Metrics: each count
// into its category (Op.Cat), its flops (Op.Flops), and the instruction
// total. The one place categories are derived from opcodes, checked like
// every accumulation, so a total that leaves int64 is ErrOverflow.
func metricsOf(name string, v *ir.OpVec) (Metrics, error) {
	var m Metrics
	for op, n := range v {
		if n == 0 {
			continue
		}
		o := ir.Op(op)
		if !accumInto(&m.ByCategory[o.Cat()], n, 1) ||
			!accumInto(&m.Flops, n, int64(o.Flops())) ||
			!accumInto(&m.Instrs, n, 1) {
			return Metrics{}, fmt.Errorf("model: %s: %w", name, ErrOverflow)
		}
	}
	return m, nil
}

// opsOf returns an evaluated opcode vector's nonzero entries.
func opsOf(v *ir.OpVec) map[ir.Op]int64 {
	out := map[ir.Op]int64{}
	for op, n := range v {
		if n != 0 {
			out[ir.Op(op)] = n
		}
	}
	return out
}

// Site is the cost of one source position: the opcodes the bridge
// attributed to it and their symbolic execution count. Ops is the only
// count form — categories, flops and instruction totals are folds over
// it (see metricsOf) — sorted by opcode, every count positive.
type Site struct {
	Line, Col int
	Desc      string // source fragment or role, for readability
	Ops       []ir.OpN
	Mult      expr.Expr
}

// Call is one call site.
type Call struct {
	Callee    string
	Line, Col int
	Mult      expr.Expr
	// Args binds callee parameter names to caller-side expressions. A nil
	// entry means the argument could not be derived statically; its value
	// is looked up in the environment under MangledParam(name, line) — the
	// paper's "y_16" convention.
	Args map[string]expr.Expr
	// ArgOrder preserves the callee's declared parameter order.
	ArgOrder []string
}

// MangledParam names an unresolved call argument after the paper's
// convention: parameter name + call line.
func MangledParam(param string, line int) string {
	return param + "_" + strconv.Itoa(line)
}

// Func is the model of one source function.
type Func struct {
	Name   string
	Params []string // declared numeric parameters, in order
	Extern bool     // library function: no visible body (counts are zero)
	Sites  []*Site
	Calls  []*Call
	// AnnotParams lists annotation-introduced parameters.
	AnnotParams []string
}

// Model is the whole-program model.
type Model struct {
	SourceName string
	Order      []string
	Funcs      map[string]*Func
}

// Lookup returns a function model.
func (m *Model) Lookup(name string) (*Func, bool) {
	f, ok := m.Funcs[name]
	return f, ok
}

// FreeParams returns every parameter name the function's expressions
// reference, sorted — the values callers (or users) must supply.
func (f *Func) FreeParams() []string {
	set := map[string]bool{}
	for _, s := range f.Sites {
		for _, p := range expr.Params(s.Mult) {
			set[p] = true
		}
	}
	for _, c := range f.Calls {
		for _, p := range expr.Params(c.Mult) {
			set[p] = true
		}
		for _, a := range c.Args {
			if a != nil {
				for _, p := range expr.Params(a) {
					set[p] = true
				}
			}
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// roundMult converts an evaluated multiplicity to an integer count.
// Fractional multiplicities arise from br_frac annotations; the walker and
// the compiled pass must round identically — to nearest, ties up — or a
// sweep silently drifts from Evaluate.
// A multiplicity whose rounded value leaves int64 range is ErrOverflow
// (it used to silently become whatever big.Int.Int64 truncates to).
var oneHalf = rational.FromFrac(1, 2)

func roundMult(mult rational.Rat) (int64, error) {
	if mi, ok := mult.Int64(); ok {
		return mi, nil
	}
	mi, ok := mult.Add(oneHalf).Floor().Int64()
	if !ok {
		return 0, fmt.Errorf("multiplicity %s: %w", mult, ErrOverflow)
	}
	return mi, nil
}

// bindEnv builds the callee environment for one call from the caller's:
// inherit everything, then override with statically derived argument
// bindings. Arguments the analysis could not derive (nil expressions) and
// arguments whose expressions are not computable in this environment fall
// back to the mangled-name convention (paper's "y_16"); when the mangled
// name is also unbound, a nil argument deletes the parameter so the callee
// reports it unbound, while an uncomputable expression is a hard error.
// unresolved lists the mangled names the environment did not supply, for
// diagnostics on callee failure. The compiled pass mirrors these rules
// symbolically (compiler.inline) and defers to the walker, and so to this
// helper, whenever a point needs the runtime fallback.
func (c *Call) bindEnv(env expr.Env) (childEnv expr.Env, unresolved []string, err error) {
	childEnv = make(expr.Env, len(env)+len(c.Args))
	for k, v := range env {
		childEnv[k] = v
	}
	for param, argE := range c.Args {
		if argE == nil {
			mangled := MangledParam(param, c.Line)
			if v, ok := env[mangled]; ok {
				childEnv[param] = v
			} else {
				delete(childEnv, param)
				unresolved = append(unresolved, mangled)
			}
			continue
		}
		v, evalErr := expr.Eval(argE, env)
		if evalErr != nil {
			// Not computable in this environment; fall back to the
			// mangled-name convention.
			mangled := MangledParam(param, c.Line)
			if mv, ok := env[mangled]; ok {
				childEnv[param] = mv
				continue
			}
			return nil, nil, fmt.Errorf("argument %q of %s at line %d: %w (bind %q to supply it)",
				param, c.Callee, c.Line, evalErr, mangled)
		}
		childEnv[param] = v
	}
	// c.Args is a map: sort the hint so the same failing query produces
	// the same diagnostic bytes on every call (identical queries must be
	// byte-identical — they are cached and compared).
	sort.Strings(unresolved)
	return childEnv, unresolved, nil
}

// maxCallDepth bounds call recursion in every evaluation path: the walker
// and the compiled model (defensive; sema rejects recursive programs).
const maxCallDepth = 64

// errCallDepth is the depth-limit error of every evaluation path — one
// message, so the walker and the compiled model cannot drift apart.
func errCallDepth(name string) error {
	return fmt.Errorf("model: call depth exceeds %d at %q", maxCallDepth, name)
}

// Evaluate computes the inclusive metrics of function name under the given
// parameter environment. Callee environments inherit the caller's and are
// overridden by statically derived argument bindings; unresolved arguments
// are looked up under their mangled names.
func (m *Model) Evaluate(name string, env expr.Env) (Metrics, error) {
	return m.evaluate(name, env, false)
}

// EvaluateExclusive computes body-only metrics.
func (m *Model) EvaluateExclusive(name string, env expr.Env) (Metrics, error) {
	return m.evaluate(name, env, true)
}

func (m *Model) evaluate(name string, env expr.Env, exclusive bool) (Metrics, error) {
	var v ir.OpVec
	if err := m.eval(name, env, exclusive, 0, &v); err != nil {
		return Metrics{}, err
	}
	return metricsOf(name, &v)
}

// EvaluateOpcodes computes inclusive per-opcode counts of function name
// under env — the granularity the architecture description file's 64
// categories (and Table II / Fig. 6) consume. The map holds the nonzero
// counts only.
func (m *Model) EvaluateOpcodes(name string, env expr.Env) (map[ir.Op]int64, error) {
	var v ir.OpVec
	if err := m.eval(name, env, false, 0, &v); err != nil {
		return nil, err
	}
	return opsOf(&v), nil
}

// eval is the model's one recursive evaluation: it adds function name's
// per-opcode counts under env into acc — body only when exclusive. Each
// call's callee is evaluated into its own vector and scaled by the
// call's rounded multiplicity, so every level rounds and checks exactly
// as the compiled pass's chains do.
func (m *Model) eval(name string, env expr.Env, exclusive bool, depth int, acc *ir.OpVec) error {
	if depth > maxCallDepth {
		return errCallDepth(name)
	}
	f, ok := m.Funcs[name]
	if !ok {
		return fmt.Errorf("model: no function %q", name)
	}
	if f.Extern {
		return nil // invisible to static analysis (paper Sec. IV-D1)
	}
	for _, s := range f.Sites {
		mult, err := expr.Eval(s.Mult, env)
		if err != nil {
			return fmt.Errorf("model: %s line %d: %w", name, s.Line, err)
		}
		mi, err := roundMult(mult)
		if err != nil {
			return fmt.Errorf("model: %s line %d: %w", name, s.Line, err)
		}
		for _, o := range s.Ops {
			if !accumInto(&acc[o.Op], o.N, mi) {
				return fmt.Errorf("model: %s line %d: %w", name, s.Line, ErrOverflow)
			}
		}
	}
	if exclusive {
		return nil
	}
	for _, call := range f.Calls {
		mult, err := expr.Eval(call.Mult, env)
		if err != nil {
			return fmt.Errorf("model: %s call to %s at line %d: %w", name, call.Callee, call.Line, err)
		}
		mi, err := roundMult(mult)
		if err != nil {
			return fmt.Errorf("model: %s call to %s at line %d: %w", name, call.Callee, call.Line, err)
		}
		if mi == 0 {
			continue
		}
		childEnv, unresolved, err := call.bindEnv(env)
		if err != nil {
			return fmt.Errorf("model: %s: %w", name, err)
		}
		var sub ir.OpVec
		if err := m.eval(call.Callee, childEnv, false, depth+1, &sub); err != nil {
			if len(unresolved) > 0 {
				return fmt.Errorf("%w (call at line %d has statically unresolved arguments; "+
					"bind them in the environment as %v — the paper's y_16 convention)",
					err, call.Line, unresolved)
			}
			return err
		}
		for op, n := range sub {
			if n != 0 && !accumInto(&acc[op], n, mi) {
				return fmt.Errorf("model: %s call to %s at line %d: %w", name, call.Callee, call.Line, ErrOverflow)
			}
		}
	}
	return nil
}

// CategoryTable returns the evaluated metrics as sorted (category, count)
// rows — the shape of the paper's Table II.
func CategoryTable(met Metrics) []struct {
	Category string
	Count    int64
} {
	var rows []struct {
		Category string
		Count    int64
	}
	for c := 0; c < int(ir.NumCategories); c++ {
		if met.ByCategory[c] == 0 {
			continue
		}
		rows = append(rows, struct {
			Category string
			Count    int64
		}{ir.Category(c).String(), met.ByCategory[c]})
	}
	// Count-descending with a name tiebreak: tied rows must render in the
	// same order on every run (outputs are cached and byte-compared).
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].Category < rows[j].Category
	})
	return rows
}
