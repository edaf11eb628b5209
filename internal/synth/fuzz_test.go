package synth_test

import (
	"maps"
	"testing"

	"mira/internal/core"
	"mira/internal/expr"
	"mira/internal/ir"
	"mira/internal/model"
	"mira/internal/synth"
	"mira/internal/vm"
)

// FuzzThreeWayEvaluators generates a synthetic program from a fuzzed
// Table I-style profile and checks that the three evaluators agree
// exactly on every function: the model walker, the compiled model
// (closed-form sweep engine), and the VM actually executing the
// program. The walker/compiled pair must agree on every view — full
// Metrics, per-opcode counts, and the exclusive (body-only) Metrics —
// and the opcode view must fold to the same Metrics; the VM pins them
// to ground truth on inclusive instruction and FPI counts.
// This is the reconciliation invariant the PR 4 overflow and
// rounding-order bugs violated, run continuously over generated
// programs instead of the fixed benchprogs set (ROADMAP open item 3).
func FuzzThreeWayEvaluators(f *testing.F) {
	// Seeds: minimal shapes, a mid-size nest mix, and the two smallest
	// Table I survey rows (swim, mgrid). Larger rows are reachable by
	// the fuzzer but not paid for on every plain `go test` run.
	f.Add(1, 1, 1)
	f.Add(1, 4, 2)
	f.Add(3, 12, 9)
	f.Add(7, 40, 25)
	f.Add(6, 123, 123)
	f.Add(12, 369, 369)

	f.Fuzz(func(t *testing.T, loops, statements, inLoops int) {
		// Keep a single iteration cheap: profiles beyond these bounds
		// add VM time without adding new evaluator shapes.
		if loops < 1 || loops > 40 || statements < 1 || statements > 600 {
			t.Skip("out of budget")
		}
		if inLoops < loops || statements < inLoops {
			t.Skip("infeasible profile")
		}
		prof := synth.Profile{Name: "fuzz", Loops: loops, Statements: statements, InLoops: inLoops}
		src, err := synth.Generate(prof)
		if err != nil {
			t.Skip("generator rejected profile")
		}

		p, err := core.Analyze("fuzz.c", src, core.Options{})
		if err != nil {
			t.Fatalf("generated program failed analysis: %v\nprofile %+v", err, prof)
		}

		const n = 6
		env := expr.EnvFromInts(map[string]int64{"n": n})
		for _, fn := range p.Model.Order {
			met, err := p.Model.Evaluate(fn, env)
			if err != nil {
				t.Fatalf("%s: walker: %v", fn, err)
			}
			cm, err := p.Model.Compile(fn)
			if err != nil {
				t.Fatalf("%s: compile: %v", fn, err)
			}
			cmet, err := cm.Eval(env)
			if err != nil {
				t.Fatalf("%s: compiled eval: %v", fn, err)
			}
			if met != cmet {
				t.Errorf("%s: walker %+v != compiled %+v", fn, met, cmet)
			}
			ops, err := p.Model.EvaluateOpcodes(fn, env)
			if err != nil {
				t.Fatalf("%s: walker opcodes: %v", fn, err)
			}
			cops, err := cm.EvalOps(env)
			if err != nil {
				t.Fatalf("%s: compiled opcodes: %v", fn, err)
			}
			if !maps.Equal(ops, cops) {
				t.Errorf("%s: walker opcodes %v != compiled %v", fn, ops, cops)
			}
			if folded := foldOps(ops); folded != met {
				t.Errorf("%s: folded opcodes %+v != walker metrics %+v", fn, folded, met)
			}
			excl, err := p.Model.EvaluateExclusive(fn, env)
			if err != nil {
				t.Fatalf("%s: exclusive walker: %v", fn, err)
			}
			cmx, err := p.Model.CompileExclusive(fn)
			if err != nil {
				t.Fatalf("%s: exclusive compile: %v", fn, err)
			}
			if cexcl, err := cmx.Eval(env); err != nil || cexcl != excl {
				t.Errorf("%s: exclusive walker %+v != compiled %+v (err %v)", fn, excl, cexcl, err)
			}

			// Ground truth: actually run the function. A fresh machine
			// per function keeps inclusive stats unpolluted.
			m := p.NewMachine()
			if _, err := m.Run(fn, vm.Int(n)); err != nil {
				t.Fatalf("%s: vm run: %v", fn, err)
			}
			st, ok := m.FuncStatsByName(fn)
			if !ok {
				t.Fatalf("%s: no vm stats", fn)
			}
			if uint64(met.Instrs) != st.TotalInclusive() {
				t.Errorf("%s: static instrs %d != vm %d", fn, met.Instrs, st.TotalInclusive())
			}
			if uint64(met.FPI()) != st.FPIInclusive() {
				t.Errorf("%s: static FPI %d != vm %d", fn, met.FPI(), st.FPIInclusive())
			}
		}
	})
}

// foldOps derives Metrics from per-opcode counts independently of the
// model package: category by Op.Cat, flops by Op.Flops, one instruction
// per count.
func foldOps(ops map[ir.Op]int64) model.Metrics {
	var m model.Metrics
	for op, n := range ops {
		m.ByCategory[op.Cat()] += n
		m.Flops += n * int64(op.Flops())
		m.Instrs += n
	}
	return m
}
