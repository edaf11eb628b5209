package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"mira/internal/core"
	"mira/internal/engine"
	"mira/internal/expr"
	"mira/internal/model"
	"mira/internal/pbound"
	"mira/internal/report"
	"mira/internal/roofline"
)

// sweepTarget is one analyzed function the sweep-grid workload evaluates.
type sweepTarget struct {
	workload, fn string
	a            *engine.Analysis
	pb           *pbound.Report // an independent PBound report, for checks and traced calls
}

// grid draws a seeded grid over the target's parameters (256 points).
func (t *sweepTarget) grid(rng *rand.Rand) []engine.SweepAxis {
	vals := func(n int, lo, hi int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = lo + rng.Int63n(hi-lo)
		}
		return out
	}
	switch t.fn {
	case "cg_solve":
		return []engine.SweepAxis{{Name: "n", Values: vals(16, 1000, 1_000_000)},
			{Name: "max_iter", Values: vals(4, 10, 300)}, {Name: "nnz_row", Values: vals(4, 7, 28)}}
	case "dgemm":
		return []engine.SweepAxis{{Name: "n", Values: vals(256, 16, 2048)}}
	default:
		return []engine.SweepAxis{{Name: "n", Values: vals(256, 1000, 10_000_000)}}
	}
}

// env is the k-th single-cell query point: k enters every point, so no
// query environment ever repeats within a run.
func (t *sweepTarget) env(k int, off int64) map[string]int64 {
	n := off + int64(k)
	switch t.fn {
	case "cg_solve":
		return map[string]int64{"n": 1000 + 7*n, "max_iter": 10 + n%200, "nnz_row": 27}
	case "dgemm":
		return map[string]int64{"n": 16 + off%1000 + int64(k)}
	default:
		return map[string]int64{"n": 1000 + 13*n}
	}
}

var sweepKinds = []engine.QueryKind{engine.KindStatic, engine.KindCategories, engine.KindRoofline, engine.KindPBound}
var queryKinds = []engine.QueryKind{engine.KindStatic, engine.KindCategories, engine.KindPBound}

type sweepState struct {
	eng     *engine.Engine
	runner  *report.Runner
	targets []*sweepTarget
	archs   []string
	rng     *rand.Rand
	off     int64

	// Traced runs only: calls per replayed span name, and the sweeps'
	// engine wall time against their replayed evaluation time.
	evalCalls map[string]int
	sweepWall time.Duration
	sweepEval time.Duration
}

// sweepSetup analyzes the three programs and compiles their models, so
// the timed part does no front-end, compiler or store work.
func sweepSetup(ctx context.Context, cfg phaseCfg) (*sweepState, error) {
	st := &sweepState{eng: engine.New(engine.Options{Workers: cfg.workers}), rng: newRand(cfg.seed, "sweep-grid")}
	st.runner = report.NewRunner(st.eng)
	st.off = st.rng.Int63n(1000)
	for _, t := range [][2]string{{"minife", "cg_solve"}, {"stream", "stream"}, {"dgemm", "dgemm"}} {
		w, ok := report.LookupWorkload(t[0])
		if !ok {
			return nil, fmt.Errorf("no workload %s", t[0])
		}
		a, err := st.eng.AnalyzeCtx(ctx, w.File, w.Source)
		if err != nil {
			return nil, err
		}
		if _, err := a.Compiled(t[1], false); err != nil {
			return nil, err
		}
		pb, err := pbound.Analyze(a.Prog)
		if err != nil {
			return nil, err
		}
		st.targets = append(st.targets, &sweepTarget{workload: t[0], fn: t[1], a: a, pb: pb})
	}
	names := st.eng.Registry().Names()
	st.rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	st.archs = names[:4]
	return st, nil
}

// sweepSample is a sweep point or query result kept for the check.
type sweepSample struct {
	t    *sweepTarget
	kind engine.QueryKind
	env  map[string]int64
	arch string
	got  any
}

// check runs checkSample at once, outside the operation's timing, so no
// result outlives its operation and memory does not grow with the number
// of operations a run completes.
func (st *sweepState) check(out *phaseOut, s sweepSample) {
	out.attempted++
	if err := st.checkSample(s); err != nil {
		out.fail("check: %v", err)
	}
}

// checkSample recomputes a kept result through the model tree walker
// (or an independent PBound report) and compares.
func (st *sweepState) checkSample(s sweepSample) error {
	env := expr.EnvFromInts(s.env)
	var want any
	switch s.kind {
	case engine.KindStatic:
		m, err := s.t.a.Model.Evaluate(s.t.fn, env)
		if err != nil {
			return err
		}
		want = &m
	case engine.KindCategories:
		ops, err := s.t.a.Model.EvaluateOpcodes(s.t.fn, env)
		if err != nil {
			return err
		}
		want = core.BucketTableII(ops)
	case engine.KindRoofline:
		m, err := s.t.a.Model.Evaluate(s.t.fn, env)
		if err != nil {
			return err
		}
		d, err := st.eng.Registry().Lookup(s.arch)
		if err != nil {
			return err
		}
		if want, err = roofline.Analyze(s.t.fn, m, d); err != nil {
			return err
		}
	case engine.KindPBound:
		c, err := s.t.pb.EvalCounts(s.t.fn, env)
		if err != nil {
			return err
		}
		want = &c
	}
	if !reflect.DeepEqual(want, s.got) {
		return fmt.Errorf("%s %s at %v: got %+v, want %+v", s.t.fn, s.kind, s.env, s.got, want)
	}
	return nil
}

func pointValue(p *engine.SweepPoint) any {
	switch {
	case p.Metrics != nil:
		return p.Metrics
	case p.Categories != nil:
		return p.Categories
	case p.Roofline != nil:
		return p.Roofline
	default:
		return p.PBound
	}
}

func queryValue(r engine.QueryResult) any {
	switch {
	case r.Metrics != nil:
		return r.Metrics
	case r.Categories != nil:
		return r.Categories
	default:
		return r.PBound
	}
}

// queriesPerCycle single-cell queries follow each sweep, then a report.
const queriesPerCycle = 24

// sweepRun is what one pass of the timed loop measured.
type sweepRun struct {
	sweeps, queries, reports []opRec // work: points, -, rows
}

// loop runs the timed mix while more reports true; tr, when set,
// additionally replays each operation through the model, roofline,
// PBound and report layers directly, outside the operation's timing.
func (st *sweepState) loop(ctx context.Context, more func() bool, out *phaseOut, tr *tracer, q *int) *sweepRun {
	r := &sweepRun{}
	for c := 0; more(); c++ {
		t := st.targets[c%len(st.targets)]
		kind := sweepKinds[c/len(st.targets)%len(sweepKinds)]
		spec := engine.SweepSpec{Fn: t.fn, Kind: kind, Axes: t.grid(st.rng)}
		if kind == engine.KindRoofline {
			spec.Archs = st.archs
		}
		start := time.Now()
		res, err := t.a.Sweep(ctx, spec)
		wall := time.Since(start)
		out.attempted++
		if err != nil {
			out.fail("sweep %s %s: %v", t.fn, kind, err)
		} else {
			r.sweeps = append(r.sweeps, opRec{start: start, end: start.Add(wall), class: t.fn + "/" + kind.String(),
				work: float64(len(res.Points))})
			for i := range res.Points {
				if err := res.Points[i].Err; err != nil {
					out.fail("sweep %s %s point %v: %v", t.fn, kind, res.Points[i].Env, err)
				}
			}
			for range 4 {
				p := &res.Points[st.rng.Intn(len(res.Points))]
				st.check(out, sweepSample{t, kind, p.Env, p.Arch, pointValue(p)})
			}
			if tr != nil {
				st.replaySweep(tr, c, t, kind, res, wall)
			}
		}

		for range queriesPerCycle {
			t := st.targets[*q%len(st.targets)]
			kind := queryKinds[*q/len(st.targets)%len(queryKinds)]
			env := t.env(*q, st.off)
			*q++
			start := time.Now()
			res := t.a.RunOne(ctx, engine.Query{Fn: t.fn, Env: expr.EnvFromInts(env), Kind: kind})
			lat := time.Since(start)
			out.attempted++
			if res.Err != nil {
				out.fail("query %s %s: %v", t.fn, kind, res.Err)
				continue
			}
			r.queries = append(r.queries, opRec{start: start, end: start.Add(lat), class: t.fn + "/" + kind.String()})
			if *q%16 == 0 {
				st.check(out, sweepSample{t, kind, env, "", queryValue(res)})
			}
			if tr != nil {
				st.replayQuery(tr, c, t, kind, env)
			}
		}

		rows, dur, err := st.report(ctx, tr, c)
		out.attempted++
		if err != nil {
			out.fail("report: %v", err)
			continue
		}
		end := time.Now()
		r.reports = append(r.reports, opRec{start: end.Add(-dur), end: end, work: float64(rows)})
	}
	return r
}

// report builds and encodes one static report: a grid section over
// STREAM and a cross-architecture comparison of cg_solve.
func (st *sweepState) report(ctx context.Context, tr *tracer, op int) (int, time.Duration, error) {
	cg := st.targets[0]
	axis := st.targets[1].grid(st.rng)[0]
	axis.Values = axis.Values[:64]
	suite := report.Suite{Name: "bench", Sections: []report.Section{
		report.GridSection{Name: "stream_static", Workload: report.WorkloadRef{Name: "stream"}, Fn: "stream",
			Kind: engine.KindStatic, Axes: []engine.SweepAxis{axis}},
		report.CompareSection{Name: "cg_compare", Workload: report.WorkloadRef{Name: cg.workload}, Fn: cg.fn,
			Env: cg.env(st.rng.Intn(1000), st.off), Archs: st.archs},
	}}
	wantRows := len(axis.Values) + len(st.archs)

	start := time.Now()
	var rep *report.Report
	var err error
	run := func() { rep, err = st.runner.Run(ctx, suite) }
	if tr != nil {
		tr.do("report.Run", op, run)
	} else {
		run()
	}
	if err != nil {
		return 0, 0, err
	}
	var buf bytes.Buffer
	encode := func() {
		if err = rep.Encode(&buf, report.FormatJSON); err == nil {
			err = rep.Encode(&buf, report.FormatCSV)
		}
	}
	if tr != nil {
		tr.do("report.Encode", op, encode)
	} else {
		encode()
	}
	dur := time.Since(start)
	switch {
	case err != nil:
		return 0, 0, err
	case len(rep.Errs()) > 0:
		return 0, 0, fmt.Errorf("report rows failed: %v", rep.Errs()[0])
	case rep.Rows() != wantRows:
		return 0, 0, fmt.Errorf("report has %d rows, want %d", rep.Rows(), wantRows)
	}
	return rep.Rows(), dur, nil
}

// replaySweep evaluates every point of a finished sweep again through
// the compiled model and roofline directly, one span per layer call
// batch, and accumulates the sweep's wall time for the pool overhead.
func (st *sweepState) replaySweep(tr *tracer, op int, t *sweepTarget, kind engine.QueryKind, res *engine.SweepResult, wall time.Duration) {
	cm, _ := t.a.Compiled(t.fn, false)
	envs := make([]expr.Env, len(res.Points))
	for i := range res.Points {
		envs[i] = expr.EnvFromInts(res.Points[i].Env)
	}
	i0 := len(tr.spans)
	switch kind {
	case engine.KindStatic, engine.KindRoofline:
		mets := make([]model.Metrics, len(envs))
		tr.do("model.Eval", op, func() {
			for i, e := range envs {
				mets[i], _ = cm.Eval(e)
			}
		})
		if kind == engine.KindRoofline {
			tr.do("roofline.Analyze", op, func() {
				for i := range res.Points {
					d, _ := st.eng.Registry().Lookup(res.Points[i].Arch)
					_, _ = roofline.Analyze(t.fn, mets[i], d)
				}
			})
		}
	case engine.KindCategories:
		tr.do("model.EvalOps", op, func() {
			for _, e := range envs {
				_, _ = cm.EvalOps(e)
			}
		})
	case engine.KindPBound:
		tr.do("pbound.EvalCounts", op, func() {
			for _, e := range envs {
				_, _ = t.pb.EvalCounts(t.fn, e)
			}
		})
	}
	for _, s := range tr.spans[i0:] {
		st.evalCalls[s.Name] += len(res.Points)
		st.sweepEval += time.Duration(s.End - s.Start)
	}
	st.sweepWall += wall
}

// replayQuery walks the model (or the PBound report) for one query's
// point, the work a memo miss does.
func (st *sweepState) replayQuery(tr *tracer, op int, t *sweepTarget, kind engine.QueryKind, env map[string]int64) {
	e := expr.EnvFromInts(env)
	switch kind {
	case engine.KindStatic:
		tr.do("model.Evaluate", op, func() { _, _ = t.a.Model.Evaluate(t.fn, e) })
	case engine.KindCategories:
		tr.do("model.EvaluateOpcodes", op, func() { _, _ = t.a.Model.EvaluateOpcodes(t.fn, e) })
	case engine.KindPBound:
		tr.do("pbound.EvalCounts", op, func() { _, _ = t.pb.EvalCounts(t.fn, e) })
		st.evalCalls["pbound.EvalCounts"]++
	}
}

// sweepPhase is the untraced sweep-grid measurement.
type sweepPhase struct {
	st  *sweepState
	out *phaseOut
}

func startSweep(ctx context.Context, cfg phaseCfg) (phase, error) {
	st, setupS, err := timedSetup(func() (*sweepState, error) { return sweepSetup(ctx, cfg) })
	if err != nil {
		return nil, err
	}
	return &sweepPhase{st: st, out: newPhaseOut(setupS)}, nil
}

func tracedSweep(ctx context.Context, cfg phaseCfg) (*phaseOut, error) {
	st, setupS, err := timedSetup(func() (*sweepState, error) { return sweepSetup(ctx, cfg) })
	if err != nil {
		return nil, err
	}
	q := 0
	return sweepTraced(ctx, cfg, st, newPhaseOut(setupS), &q)
}

// sweepCycleRate is how many cycles of the timed mix (a sweep, its
// queries and a report) start per second: about two fifths of what a
// 2-core host sustains (a cycle takes 5-9 ms there). The evaluation memo
// grows with every never-repeating query.
const sweepCycleRate = 50

// measure runs the timed mix, paced at sweepCycleRate, for d. Sweeps are
// the primary operation, single-cell queries the secondary.
func (p *sweepPhase) measure(ctx context.Context, d time.Duration) {
	q := 0
	r := p.st.loop(ctx, paced(sweepCycleRate, d), p.out, nil, &q)
	p.out.primary.add(r.sweeps)
	p.out.secondary.add(r.queries)
	var points, rows float64
	var sweepTime, reportTime time.Duration
	for _, o := range r.sweeps {
		points += o.work
		sweepTime += o.end.Sub(o.start)
	}
	for _, o := range r.reports {
		rows += o.work
		reportTime += o.end.Sub(o.start)
	}
	p.out.note("sweep-grid: %d sweeps (%.0f points/s), %d queries, %.0f report rows (%.0f rows/s)",
		p.out.primary.count(), ratio(points, sweepTime.Seconds()), p.out.secondary.count(), rows, ratio(rows, reportTime.Seconds()))
}

func (p *sweepPhase) rss() float64 { return settledRSS() }

func (p *sweepPhase) finish(context.Context) *phaseOut { return p.out }

func (p *sweepPhase) stop() {}

func sweepTraced(ctx context.Context, cfg phaseCfg, st *sweepState, out *phaseOut, q *int) (*phaseOut, error) {
	tr := newTracer()
	st.evalCalls = map[string]int{}
	for i, t := range st.targets {
		tr.do("model.Compile", i, func() { _, _ = t.a.Model.Compile(t.fn) })
	}
	plain := st.loop(ctx, until(cfg.dur/2), out, nil, q)
	var h0, m0 int64
	for _, t := range st.targets {
		h, m := t.a.EvalStats()
		h0, m0 = h0+h, m0+m
	}
	traced := st.loop(ctx, until(cfg.dur/2), out, tr, q)
	var h1, m1 int64
	for _, t := range st.targets {
		h, m := t.a.EvalStats()
		h1, m1 = h1+h, m1+m
	}
	lt := tr.totals()
	perCall := func(name string, unit time.Duration) float64 {
		return ratio(float64(lt.self[name])/float64(unit), float64(st.evalCalls[name]))
	}
	perSpan := func(name string, unit time.Duration) float64 {
		return ratio(float64(lt.self[name])/float64(unit), float64(lt.calls[name]))
	}
	out.layer["model.compile_ms"] = perSpan("model.Compile", time.Millisecond)
	out.layer["model.eval_ns_per_point"] = perCall("model.Eval", time.Nanosecond)
	out.layer["model.eval_allocs_per_point"] = ratio(float64(lt.allocs["model.Eval"]), float64(st.evalCalls["model.Eval"]))
	out.layer["model.eval_ops_ns_per_point"] = perCall("model.EvalOps", time.Nanosecond)
	out.layer["roofline.analyze_ns"] = perCall("roofline.Analyze", time.Nanosecond)
	out.layer["model.walk_us"] = perSpan("model.Evaluate", time.Microsecond)
	out.layer["model.walk_opcodes_us"] = perSpan("model.EvaluateOpcodes", time.Microsecond)
	out.layer["pbound.counts_us"] = perCall("pbound.EvalCounts", time.Microsecond)
	out.layer["engine.sweep_overhead_share"] = 1 - ratio(float64(st.sweepEval), float64(st.sweepWall)*float64(cfg.workers))
	out.layer["engine.memo_hit_ratio"] = ratio(float64(h1-h0), float64(h1-h0+m1-m0))
	// The same evaluation memo serve-mix reports as its sharing.
	out.layer["engine.eval_memo_hit_ratio"] = out.layer["engine.memo_hit_ratio"]
	out.layer["report.run_ms"] = perSpan("report.Run", time.Millisecond)
	out.layer["report.encode_ms"] = perSpan("report.Encode", time.Millisecond)
	var rows float64
	for _, o := range traced.reports {
		rows += o.work
	}
	out.layer["report.rows"] = ratio(rows, float64(len(traced.reports)))
	plainLat, tracedLat := mean(latencies(plain.queries, time.Microsecond)), mean(latencies(traced.queries, time.Microsecond))
	out.layer["trace.overhead_share"] = ratio(tracedLat-plainLat, plainLat)
	out.note("sweep-grid traced: %d sweeps, %d queries", len(traced.sweeps), len(traced.queries))
	return out, tr.write(cfg.spanDir, "sweep-grid")
}
