// Benchmarks regenerating every table and figure of the paper's evaluation
// (Sec. IV). Each benchmark prints its regenerated artifact once (with the
// paper's reference values in the caption) and then times the part of the
// pipeline the experiment exercises. Custom metrics report the validation
// error percentages so `go test -bench` output records the reproduction
// quality alongside timing.
package mira_test

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mira"
	"mira/internal/arch"
	"mira/internal/benchprogs"
	"mira/internal/core"
	"mira/internal/engine"
	"mira/internal/experiments"
	"mira/internal/expr"
	"mira/internal/report"
	"mira/internal/synth"
)

// printOnce keys the regenerated artifacts so each prints exactly once
// even when -benchtime or -count reruns a benchmark function.
var printOnce sync.Map

func printArtifact(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n%s\n", text)
	}
}

// benchEng is the shared benchmark engine: experiments take the engine
// and context explicitly, and the suite benefits from one shared
// pipeline/evaluation cache exactly like the CLI does.
var benchEng = engine.New(engine.Options{})

func bctx() context.Context { return context.Background() }

// tablesText renders report tables in the paper's ASCII style for the
// printed artifacts.
func tablesText(tables ...report.Table) string {
	rep := report.Report{Tables: tables}
	return rep.Text()
}

// maxErrPct folds validation rows to their largest defined error.
func maxErrPct(rows []experiments.ValidationRow) float64 {
	maxErr := 0.0
	for _, r := range rows {
		if e, ok := r.ErrorPct(); ok && e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}

// BenchmarkTableI_LoopCoverage regenerates the loop-coverage survey
// (paper Table I: 77-100% across ten applications).
func BenchmarkTableI_LoopCoverage(b *testing.B) {
	rows, err := experiments.TableI(bctx(), benchEng)
	if err != nil {
		b.Fatal(err)
	}
	printArtifact("tableI", tablesText(experiments.TableITable(rows)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableI(bctx(), benchEng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII_CgSolveCategories regenerates the categorized
// instruction counts of cg_solve (paper Table II; integer data transfer
// dominates, SSE2 packed arithmetic carries the FPI).
func BenchmarkTableII_CgSolveCategories(b *testing.B) {
	s := experiments.MiniFESizes{NX: 30, NY: 30, NZ: 30, MaxIter: 20, NnzRowAnnotation: 25}
	rows, err := experiments.TableII(bctx(), benchEng, s)
	if err != nil {
		b.Fatal(err)
	}
	printArtifact("tableII", tablesText(experiments.TableIITable(rows))+
		"(paper Table II at this config: int data transfer 2.42E9, SSE2 arith 1.93E8, ...)\n")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableII(bctx(), benchEng, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6_InstructionDistribution regenerates the Fig. 6 pie data
// (category shares of cg_solve).
func BenchmarkFig6_InstructionDistribution(b *testing.B) {
	s := experiments.MiniFESizes{NX: 30, NY: 30, NZ: 30, MaxIter: 20, NnzRowAnnotation: 25}
	rows, err := experiments.TableII(bctx(), benchEng, s)
	if err != nil {
		b.Fatal(err)
	}
	var sse2Share float64
	for _, r := range rows {
		if r.Category == "SSE2 packed arithmetic instruction" {
			sse2Share = r.Fraction * 100
		}
	}
	printArtifact("fig6", fmt.Sprintf(
		"Fig. 6: SSE2 packed arithmetic share of cg_solve = %.1f%% (the separated pie slice)", sse2Share))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableII(bctx(), benchEng, s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sse2Share, "sse2-share-%")
}

// BenchmarkTableIII_StreamFPI regenerates the STREAM validation (paper
// Table III: error <= 0.47%; ours is exact because STREAM is fully affine
// and library-free). Dynamic runs use scaled sizes; the timed loop
// measures the static model evaluation, which is the paper's headline
// cost advantage.
func BenchmarkTableIII_StreamFPI(b *testing.B) {
	rows, err := experiments.TableIII(bctx(), benchEng, []int64{2_000_000, 5_000_000, 10_000_000})
	if err != nil {
		b.Fatal(err)
	}
	static100M, err := experiments.StreamStaticFPI(bctx(), benchEng, 100_000_000)
	if err != nil {
		b.Fatal(err)
	}
	printArtifact("tableIII",
		tablesText(experiments.ValidationTable("table_iii", "Table III: STREAM FPI (paper err: 0.19-0.47%)", rows))+
			fmt.Sprintf("static-only at paper size 100M: %.4g (paper: 2.050E10)\n", float64(static100M)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.StreamStaticFPI(bctx(), benchEng, 100_000_000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(maxErrPct(rows), "max-err-%")
}

// BenchmarkTableIV_DgemmFPI regenerates the DGEMM validation (paper Table
// IV: error <= 0.05%; ours exact).
func BenchmarkTableIV_DgemmFPI(b *testing.B) {
	rows, err := experiments.TableIV(bctx(), benchEng, []int64{64, 96, 128}, 4)
	if err != nil {
		b.Fatal(err)
	}
	static1024, err := experiments.DgemmStaticFPI(bctx(), benchEng, 1024, 30)
	if err != nil {
		b.Fatal(err)
	}
	printArtifact("tableIV",
		tablesText(experiments.ValidationTable("table_iv", "Table IV: DGEMM FPI (paper err: 0.0012-0.05%)", rows))+
			fmt.Sprintf("static-only at paper size 1024 (nrep=30): %.5g (paper: 6.4519E10)\n", float64(static1024)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DgemmStaticFPI(bctx(), benchEng, 1024, 30); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(maxErrPct(rows), "max-err-%")
}

// BenchmarkTableV_MiniFEFPI regenerates the miniFE per-function validation
// at the paper's exact grid sizes (30x30x30 and 35x40x45). The paper's
// error band is 0.011%-3.08%, growing with problem size because the
// static model undercounts data-dependent row lengths and invisible
// library bodies; the reproduction shows the same direction and growth.
func BenchmarkTableV_MiniFEFPI(b *testing.B) {
	sizes := []experiments.MiniFESizes{
		{NX: 30, NY: 30, NZ: 30, MaxIter: 20, NnzRowAnnotation: 25},
		{NX: 35, NY: 40, NZ: 45, MaxIter: 20, NnzRowAnnotation: 25},
	}
	rows, err := experiments.TableV(bctx(), benchEng, sizes)
	if err != nil {
		b.Fatal(err)
	}
	printArtifact("tableV",
		tablesText(experiments.ValidationTable("table_v", "Table V: miniFE FPI (paper err: 0.011-3.08%, growing with size)", rows)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MiniFEStatic(bctx(), benchEng, sizes[0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(maxErrPct(rows), "max-err-%")
}

// BenchmarkFig7_ValidationSeries regenerates the four validation panels.
func BenchmarkFig7_ValidationSeries(b *testing.B) {
	series, err := experiments.Fig7(bctx(), benchEng,
		[]int64{1_000_000, 2_000_000, 5_000_000},
		[]int64{48, 64, 96}, 4,
		[]experiments.MiniFESizes{
			{NX: 10, NY: 10, NZ: 10, MaxIter: 10, NnzRowAnnotation: 19},
			{NX: 12, NY: 14, NZ: 16, MaxIter: 10, NnzRowAnnotation: 22},
		},
	)
	if err != nil {
		b.Fatal(err)
	}
	printArtifact("fig7", tablesText(experiments.Fig7Tables(series)...))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range []int64{1_000_000, 2_000_000, 5_000_000} {
			if _, err := experiments.StreamStaticFPI(bctx(), benchEng, n); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPrediction_ArithmeticIntensity regenerates the Sec. IV-D2
// prediction (paper: instruction-based AI of cg_solve = 0.53).
func BenchmarkPrediction_ArithmeticIntensity(b *testing.B) {
	s := experiments.MiniFESizes{NX: 30, NY: 30, NZ: 30, MaxIter: 20, NnzRowAnnotation: 25}
	an, err := experiments.Prediction(bctx(), benchEng, s, arch.Arya())
	if err != nil {
		b.Fatal(err)
	}
	printArtifact("prediction",
		fmt.Sprintf("Prediction (paper: AI = 1.93E8/3.67E8 = 0.53):\n%s", an))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Prediction(bctx(), benchEng, s, arch.Arya()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(an.InstrAI, "instr-AI")
}

// BenchmarkAblation_PBoundVsMira quantifies the paper's claim that
// source-only analysis (PBound) misses compiler transformations: on the
// smoothing kernel, PBound overcounts FPI by >70% while the binary-aware
// model is exact.
func BenchmarkAblation_PBoundVsMira(b *testing.B) {
	rows, err := experiments.Ablation(bctx(), benchEng, []int64{1024, 4096, 16384})
	if err != nil {
		b.Fatal(err)
	}
	printArtifact("ablation", tablesText(experiments.AblationTable(rows)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablation(bctx(), benchEng, []int64{1024}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].PBoundErrPct, "pbound-err-%")
	b.ReportMetric(rows[len(rows)-1].MiraErrPct, "mira-err-%")
}

// BenchmarkFig5_PythonModelGeneration times end-to-end model generation
// for the paper's Fig. 5 class example, including Python emission.
func BenchmarkFig5_PythonModelGeneration(b *testing.B) {
	res, err := mira.Analyze("fig5.c", benchprogs.Fig5, mira.Options{})
	if err != nil {
		b.Fatal(err)
	}
	py := res.PythonModel()
	printArtifact("fig5", "Fig. 5 generated model (first lines):\n"+firstLines(py, 14))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mira.Analyze("fig5.c", benchprogs.Fig5, mira.Options{})
		if err != nil {
			b.Fatal(err)
		}
		_ = res.PythonModel()
	}
}

// BenchmarkStaticVsDynamicCost quantifies the paper's core pitch: the
// model evaluates in O(1) while measurement scales with the run. The
// custom metric reports the dynamic/static cost ratio at STREAM n=1M.
func BenchmarkStaticVsDynamicCost(b *testing.B) {
	n := int64(1_000_000)
	t0 := time.Now()
	if _, err := experiments.StreamDynamicFPI(bctx(), benchEng, n); err != nil {
		b.Fatal(err)
	}
	dynDur := time.Since(t0)
	t0 = time.Now()
	const staticReps = 100
	for i := 0; i < staticReps; i++ {
		if _, err := experiments.StreamStaticFPI(bctx(), benchEng, n); err != nil {
			b.Fatal(err)
		}
	}
	staticDur := time.Since(t0) / staticReps
	ratio := float64(dynDur) / float64(staticDur)
	printArtifact("cost", fmt.Sprintf(
		"Static-vs-dynamic cost at STREAM n=1M: dynamic %v/run, static %v/eval (ratio %.0fx)",
		dynDur, staticDur, ratio))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.StreamStaticFPI(bctx(), benchEng, n); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ratio, "dyn/static-x")
}

// BenchmarkEngineEval_ColdVsWarm quantifies the engine's memoized
// (function, env) evaluation layer on the hot path of the experiment
// suite: repeated queries of cg_solve's model at one size point. "cold"
// walks the model's call tree and polyhedral multiplicities every
// iteration (the raw pipeline); "warm" is the engine's memo hit.
func BenchmarkEngineEval_ColdVsWarm(b *testing.B) {
	a, err := experiments.MiniFEPipeline(bctx(), benchEng)
	if err != nil {
		b.Fatal(err)
	}
	s := experiments.MiniFESizes{NX: 30, NY: 30, NZ: 30, MaxIter: 20, NnzRowAnnotation: 25}
	env := s.MiniFEEnv()

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := a.Pipeline.StaticMetrics("cg_solve", env); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		if _, err := a.StaticMetrics("cg_solve", env); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.StaticMetrics("cg_solve", env); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// engineBatchJobs builds a batch of distinct programs: the four real
// workloads plus padded variants that force distinct content hashes, so
// every job costs a full parse-compile-decode pipeline on a cold cache.
func engineBatchJobs() []engine.Job {
	base := []engine.Job{
		{Name: "stream.c", Source: benchprogs.Stream},
		{Name: "dgemm.c", Source: benchprogs.Dgemm},
		{Name: "ablation.c", Source: benchprogs.Ablation},
		{Name: "fig5.c", Source: benchprogs.Fig5},
	}
	jobs := make([]engine.Job, 0, 3*len(base))
	for v := 0; v < 3; v++ {
		for _, j := range base {
			jobs = append(jobs, engine.Job{
				Name:   fmt.Sprintf("v%d-%s", v, j.Name),
				Source: fmt.Sprintf("%s\nint pad_variant_%d() { return %d; }\n", j.Source, v, v),
			})
		}
	}
	return jobs
}

// BenchmarkEngineBatch_SerialVsParallel measures the worker-pool batch
// API end to end on a cold cache: one worker (the old serial loop) vs
// GOMAXPROCS workers, plus the warm-cache path where every job is a
// content-hash hit.
func BenchmarkEngineBatch_SerialVsParallel(b *testing.B) {
	jobs := engineBatchJobs()
	run := func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			e := engine.New(engine.Options{Workers: workers})
			if err := engine.Errors(e.AnalyzeAll(context.Background(), jobs)); err != nil {
				b.Fatal(err)
			}
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4 // still exercises the pool shape on small machines
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run(fmt.Sprintf("parallel-%d", workers), func(b *testing.B) {
		run(b, workers)
	})
	b.Run("warm-cache", func(b *testing.B) {
		e := engine.New(engine.Options{})
		if err := engine.Errors(e.AnalyzeAll(context.Background(), jobs)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := engine.Errors(e.AnalyzeAll(context.Background(), jobs)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// sweepGridSizes builds the Fig. 7-style 10k-point size grid: STREAM
// array lengths from 1k upward, the x-axis of the paper's validation
// curves at sweep density.
func sweepGridSizes(n int) []int64 {
	sizes := make([]int64, n)
	for i := range sizes {
		sizes[i] = int64(1000 + 997*i)
	}
	return sizes
}

// BenchmarkSweep_CompiledVsTreeWalk is the tentpole measurement: a
// 10k-point Fig. 7-style STREAM size sweep, evaluated (a) the old way —
// one full model tree walk per point — and (b) through the compiled
// sweep engine, which partially evaluates the call tree once and then
// does a flat expression evaluation per point. Both sides run on ONE
// worker, so the speedup-x metric isolates the compilation win — the
// worker pool's fan-out (measured separately below) multiplies on top.
// The acceptance bar is 5x.
func BenchmarkSweep_CompiledVsTreeWalk(b *testing.B) {
	serial := engine.New(engine.Options{Workers: 1})
	a, err := serial.AnalyzeCtx(context.Background(), "stream.c", benchprogs.Stream)
	if err != nil {
		b.Fatal(err)
	}
	sizes := sweepGridSizes(10_000)
	spec := engine.SweepSpec{
		Fn:   "stream",
		Kind: engine.KindStatic,
		Axes: []engine.SweepAxis{{Name: "n", Values: sizes}},
	}

	// One checked pass both ways to prime the compilation cache, then
	// separately timed steady-state passes for the speedup artifact.
	walkOnce := func() {
		for _, n := range sizes {
			if _, err := a.Pipeline.StaticMetrics("stream", expr.EnvFromInts(map[string]int64{"n": n})); err != nil {
				b.Fatal(err)
			}
		}
	}
	sweepOnce := func(a *engine.Analysis) *engine.SweepResult {
		res, err := a.Sweep(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if errs := res.Errs(); len(errs) > 0 {
			b.Fatal(errs[0])
		}
		return res
	}
	// Priming pass: caches the one-time symbolic compilation and feeds
	// the correctness check below.
	walkOnce()
	res := sweepOnce(a)
	// The two paths must agree point for point before speed means anything.
	for i, n := range sizes[:100] {
		want, err := a.Pipeline.StaticMetrics("stream", expr.EnvFromInts(map[string]int64{"n": n}))
		if err != nil {
			b.Fatal(err)
		}
		if *res.Points[i].Metrics != want {
			b.Fatalf("n=%d: sweep %+v != tree walk %+v", n, *res.Points[i].Metrics, want)
		}
	}
	// Steady-state timing, after priming: the speedup must compare the
	// per-pass costs a real sweep user sees, not fold the one-time
	// symbolic compile of the first pass into the ratio. (Measured cold,
	// the headline number swings several x with harness noise while the
	// per-pass ratio stays put.)
	t0 := time.Now()
	walkOnce()
	walkDur := time.Since(t0)
	t0 = time.Now()
	sweepOnce(a)
	sweepDur := time.Since(t0)
	speedup := float64(walkDur) / float64(sweepDur)
	printArtifact("sweep", fmt.Sprintf(
		"Sweep engine at 10k-point STREAM grid, 1 worker: tree walk %v, compiled sweep %v (%.0fx)",
		walkDur, sweepDur, speedup))

	b.Run("treewalk-10k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			walkOnce()
		}
	})
	b.Run("compiled-sweep-10k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweepOnce(a)
		}
		b.ReportMetric(speedup, "speedup-x")
	})
	b.Run("compiled-sweep-10k-pool", func(b *testing.B) {
		pool := engine.New(engine.Options{})
		pa, err := pool.AnalyzeCtx(context.Background(), "stream.c", benchprogs.Stream)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			sweepOnce(pa)
		}
	})
}

// BenchmarkSweep_CompileOnce isolates the one-time symbolic compilation
// cost a sweep amortizes (miniFE's cg_solve, the deepest call tree in
// the suite).
func BenchmarkSweep_CompileOnce(b *testing.B) {
	a, err := experiments.MiniFEPipeline(bctx(), benchEng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Model.Compile("cg_solve"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalEdit measures the function-granular incremental
// path: edit ONE function of miniFE (the acceptance workload — classes,
// annotations, the deepest call tree in the suite) and re-analyze
// through a warm engine on 1 worker. Every iteration mutates a distinct
// statement inside `minife` only, so the engine recompiles and
// re-models exactly that function and serves the other five (plus the
// extern) from the function memo. The acceptance bar is 5x over a cold
// analysis of the same mutated source.
func BenchmarkIncrementalEdit(b *testing.B) {
	const marker = "return cg_solve(n, A, b, x, r, p, Ap, max_iter);"
	if strings.Count(benchprogs.MiniFE, marker) != 1 {
		b.Fatalf("mutation marker not unique in benchprogs.MiniFE")
	}
	// The mutation rides on the marker's own line, so no other
	// function's positions move — position-sensitive function keys for
	// everything but `minife` stay identical.
	mutate := func(i int) string {
		return strings.Replace(benchprogs.MiniFE, marker,
			fmt.Sprintf("i = %d; %s", i, marker), 1)
	}
	coldOnce := func(i int) time.Duration {
		e := engine.New(engine.Options{Workers: 1})
		t0 := time.Now()
		if _, err := e.AnalyzeCtx(context.Background(), "minife.c", mutate(i)); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	editOnce := func(e *engine.Engine, i int) time.Duration {
		t0 := time.Now()
		a, err := e.AnalyzeCtx(context.Background(), "minife.c", mutate(i))
		if err != nil {
			b.Fatal(err)
		}
		d := time.Since(t0)
		delta := a.Delta()
		if delta == nil || len(delta.Compiled) != 1 || delta.Compiled[0] != "minife" {
			b.Fatalf("expected exactly [minife] recompiled, got %+v", delta)
		}
		return d
	}

	// Best-of-three timed passes each way for the printed artifact and
	// the speedup-x metric (the sub-benchmarks below record the ns/op);
	// min is the standard one-shot noise reducer.
	warm := engine.New(engine.Options{Workers: 1})
	if _, err := warm.AnalyzeCtx(context.Background(), "minife.c", benchprogs.MiniFE); err != nil {
		b.Fatal(err)
	}
	coldDur, editDur := time.Duration(1<<62), time.Duration(1<<62)
	for i := 1; i <= 3; i++ {
		if d := coldOnce(-i); d < coldDur {
			coldDur = d
		}
		if d := editOnce(warm, -3-i); d < editDur {
			editDur = d
		}
	}
	speedup := float64(coldDur) / float64(editDur)
	printArtifact("incremental", fmt.Sprintf(
		"Incremental re-analysis after a one-function edit of miniFE, 1 worker: cold %v, incremental %v (%.1fx)",
		coldDur, editDur, speedup))

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			coldOnce(i)
		}
	})
	b.Run("edit", func(b *testing.B) {
		e := engine.New(engine.Options{Workers: 1})
		if _, err := e.AnalyzeCtx(context.Background(), "minife.c", benchprogs.MiniFE); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			editOnce(e, i)
		}
		b.ReportMetric(speedup, "speedup-x")
	})
}

// BenchmarkColdAnalyze is the cold pipeline's stage benchmark: one
// core.Analyze (parse, sema, function keys, compile, object round trip,
// metrics.Generate) of miniFE and of the Table I applu synthetic at its
// full profile, with nothing cached. Allocations are reported because
// much of the cold path's cost is allocation; they do not depend on the
// host, so a change in them is a change in the code.
func BenchmarkColdAnalyze(b *testing.B) {
	applu, err := synth.Generate(synth.TableIProfiles[0])
	if err != nil {
		b.Fatal(err)
	}
	for _, prog := range []struct{ name, src string }{
		{"minife", benchprogs.MiniFE},
		{"synth_applu", applu},
	} {
		b.Run(prog.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Analyze(prog.name+".c", prog.src, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPublicEngineAPI exercises the mira.Engine wrapper the way an
// external consumer would: batch-analyze, then query cached metrics.
func BenchmarkPublicEngineAPI(b *testing.B) {
	e, err := mira.NewEngine(0, mira.Options{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := e.AnalyzeCtx(context.Background(), "stream.c", benchprogs.Stream)
	if err != nil {
		b.Fatal(err)
	}
	env := expr.EnvFromInts(map[string]int64{"n": 1_000_000})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := res.RunOne(context.Background(), mira.Query{Fn: "stream", Env: env, Kind: mira.KindStatic}); r.Err != nil {
			b.Fatal(r.Err)
		}
	}
}

// BenchmarkReport_SuitePath measures the report subsystem end to end:
// a declarative grid suite (1k-point STREAM static sweep plus a
// roofline section) compiled to engine sweeps, assembled into a typed
// report, and JSON-encoded — the full POST /report service path minus
// HTTP. The whole-report row throughput is the custom metric.
func BenchmarkReport_SuitePath(b *testing.B) {
	e, err := mira.NewEngine(0, mira.Options{})
	if err != nil {
		b.Fatal(err)
	}
	suite := mira.Suite{
		Name: "bench_report",
		Sections: []mira.Section{
			mira.GridSection{
				Name:     "stream_scaling",
				Workload: mira.WorkloadRef{Name: "stream"},
				Fn:       "stream",
				Axes:     []mira.SweepAxis{{Name: "n", Values: sweepGridSizes(1000)}},
			},
			mira.GridSection{
				Name:     "stream_roofline",
				Workload: mira.WorkloadRef{Name: "stream"},
				Fn:       "stream",
				Kind:     mira.KindRoofline,
				Points:   []map[string]int64{{"n": 1_000_000}},
				Archs:    []string{"arya", "frankenstein"},
			},
		},
	}
	// One checked pass: every row present, no per-cell failures.
	rep, err := e.Report(context.Background(), suite)
	if err != nil {
		b.Fatal(err)
	}
	if rep.Rows() != 1002 {
		b.Fatalf("rows = %d, want 1002", rep.Rows())
	}
	if errs := rep.Errs(); len(errs) > 0 {
		b.Fatal(errs[0])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := e.Report(context.Background(), suite)
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.EncodeJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Rows()*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkCrossArchSweep measures the cross-architecture ranking path:
// one DGEMM point rooflined across every registered machine description
// and ranked by attainable GFLOP/s (the CompareSection behind the
// multiarch suite and `-arch-dir` deployments). After the first pass
// every (fn, env, arch-content-key) cell is memoized, so the steady
// state tracks the arch-keyed memo layer plus ranking and encoding.
func BenchmarkCrossArchSweep(b *testing.B) {
	e, err := mira.NewEngine(0, mira.Options{})
	if err != nil {
		b.Fatal(err)
	}
	suite := mira.Suite{
		Name: "bench_multiarch",
		Sections: []mira.Section{
			mira.CompareSection{
				Workload: mira.WorkloadRef{Name: "dgemm"},
				Fn:       "dgemm_bench",
				Env:      map[string]int64{"n": 64, "nrep": 2},
			},
		},
	}
	// One checked pass: a row per registry entry, none failed.
	rep, err := e.Report(context.Background(), suite)
	if err != nil {
		b.Fatal(err)
	}
	nArchs := arch.NewRegistry().Len()
	if rep.Rows() != nArchs {
		b.Fatalf("rows = %d, want %d", rep.Rows(), nArchs)
	}
	if errs := rep.Errs(); len(errs) > 0 {
		b.Fatal(errs[0])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := e.Report(context.Background(), suite)
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.EncodeJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(nArchs*b.N)/b.Elapsed().Seconds(), "archs/s")
}

func firstLines(s string, n int) string {
	out := ""
	count := 0
	for _, r := range s {
		out += string(r)
		if r == '\n' {
			count++
			if count >= n {
				break
			}
		}
	}
	return out
}
