// Command perfbench is the repository's benchmark: four seeded workloads
// driven through the public entry points of engine, cachestore, report
// and a mira-serve subprocess, with every output checked for
// correctness. See README.md for the workloads, the metrics and how
// they relate; run it through run.sh, which builds it and mira-serve.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mira/internal/engine"
	"mira/internal/experiments"
)

// phaseCfg configures the workload phase of a run.
type phaseCfg struct {
	seed    int64
	dur     time.Duration
	workers int
	work    string // scratch directory for stores, inside the checkout
	spanDir string
	serve   string // mira-serve binary
}

// phaseOut is what a phase measured. Untraced phases keep the latencies
// of their primary and secondary operations by class; traced phases fill
// layer.
type phaseOut struct {
	primary   classes // ms
	secondary classes // ms
	layer     map[string]float64
	setupS    float64
	attempted int
	failed    int
}

func newPhaseOut(setupS float64) *phaseOut {
	return &phaseOut{primary: classes{}, secondary: classes{}, layer: map[string]float64{}, setupS: setupS}
}

// fail counts one failed operation or check and says why on stderr.
func (o *phaseOut) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 20 {
		fmt.Fprintf(os.Stderr, "FAIL "+format+"\n", args...)
	}
}

func (o *phaseOut) note(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// The workload is set up at least minSetups times, and then again while
// the set-ups have taken less than setupBudget, up to maxSetups times in
// all, so that cheap set-ups rest on many samples. setup_s is the median,
// and the last set-up is the one measured.
const (
	minSetups   = 5
	maxSetups   = 41
	setupBudget = 2 * time.Second
)

// timedSetup runs setup repeatedly and returns the last state with the
// median set-up time in seconds.
func timedSetup[T any](setup func() (T, error)) (T, float64, error) {
	var st T
	var times []float64
	var total time.Duration
	for len(times) < minSetups || (total < setupBudget && len(times) < maxSetups) {
		runtime.GC()
		start := time.Now()
		s, err := setup()
		d := time.Since(start)
		if err != nil {
			return st, 0, err
		}
		times = append(times, d.Seconds())
		total += d
		st = s
	}
	fmt.Fprintf(os.Stderr, "set-up times (s): %.4f\n", times)
	return st, median(times), nil
}

// phase is one workload's untraced measurement.
type phase interface {
	// measure runs the workload for d.
	measure(ctx context.Context, d time.Duration)
	// rss is the resident set, in MB, of the process doing the work,
	// read after measure.
	rss() float64
	// finish runs the checks and returns what the phase measured.
	finish(ctx context.Context) *phaseOut
	// stop releases what the phase started; it may be called twice.
	stop()
}

type workload struct {
	name   string
	start  func(context.Context, phaseCfg) (phase, error)
	traced func(context.Context, phaseCfg) (*phaseOut, error)
	// layer lists the per-layer metrics this workload's traced run
	// produces.
	layer []metricDef
}

type metricDef struct{ name, unit string }

// The end-to-end metrics. Every workload reports all of them, about its
// own operations: the primary and secondary operation of each workload
// are listed in README.md. A latency metric is the geometric mean, over
// the operation's classes (program profile, sweep target and kind, ...),
// of each class's median, so a run's mix of cheap and costly classes
// cannot move it.
var e2eMetrics = []metricDef{{"setup_s", "s"}, {"rss_mb", "MB"},
	{"primary_ms_p50", "ms"}, {"secondary_ms_p50", "ms"}}

var workloads = []workload{
	{"cold-corpus", startCold, tracedCold,
		[]metricDef{{"parser.self_ms", "ms"}, {"parser.allocs", "count"}, {"sema.self_ms", "ms"},
			{"core.funckeys_self_ms", "ms"}, {"cc.compile_self_ms", "ms"}, {"cc.link_self_ms", "ms"},
			{"cc.allocs", "count"}, {"objfile.codec_self_ms", "ms"}, {"objfile.bytes", "B"},
			{"metrics.self_ms", "ms"}, {"metrics.allocs", "count"}, {"metrics.share", "ratio"},
			{"core.reuse_ratio", "ratio"}}},
	{"edit-restart", startEdit, tracedEdit,
		[]metricDef{{"core.recompiled_funcs", "count"}, {"cachestore.store_us", "us"},
			{"cachestore.store_func_us", "us"}, {"cachestore.bytes_written", "B"}, {"cachestore.load_us", "us"},
			{"cachestore.load_func_us", "us"}, {"cachestore.func_hit_ratio", "ratio"},
			{"cc.decode_unit_us", "us"}, {"metrics.restart_self_ms", "ms"}}},
	{"sweep-grid", startSweep, tracedSweep,
		[]metricDef{{"model.compile_ms", "ms"}, {"model.eval_ns_per_point", "ns"},
			{"model.eval_allocs_per_point", "count"}, {"model.eval_ops_ns_per_point", "ns"},
			{"engine.sweep_overhead_share", "ratio"}, {"roofline.analyze_ns", "ns"}, {"model.walk_us", "us"},
			{"model.walk_opcodes_us", "us"}, {"pbound.counts_us", "us"}, {"engine.memo_hit_ratio", "ratio"},
			{"report.run_ms", "ms"}, {"report.encode_ms", "ms"}, {"report.rows", "count"}}},
	{"serve-mix", startServe, tracedServe,
		[]metricDef{{"serve.http_mean_ms", "ms"}, {"engine.eval_mean_us", "us"},
			{"engine.eval_memo_hit_ratio", "ratio"}, {"driver.repeat_share", "ratio"},
			{"engine.sweep_mean_ms", "ms"}, {"engine.analyze_mean_ms", "ms"}, {"engine.pipeline_hit_ratio", "ratio"},
			{"serve.cpu_ms_per_request", "ms"}, {"cachestore.store_errors", "count"},
			{"driver.query_ms_p99", "ms"}, {"driver.late_ms_p99", "ms"}, {"driver.unsent", "count"}}},
}

// traceOverhead is reported by every traced run: how much slower the
// traced operations ran than the same operations untraced.
var traceOverhead = metricDef{"trace.overhead_share", "ratio"}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: cold-corpus, edit-restart, sweep-grid or serve-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds of load")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	serveBin := flag.String("serve-bin", "", "mira-serve binary")
	workDir := flag.String("work", ".bench_build/work", "scratch directory")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceFlag == 1, *serveBin, *workDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, trace bool, serveBin, workDir string) error {
	var own *workload
	for i := range workloads {
		if workloads[i].name == name {
			own = &workloads[i]
		}
	}
	if own == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if serveBin == "" {
		return fmt.Errorf("--serve-bin is required")
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	// The run's stores stay on disk after it ends. Deleting them slowed
	// file creation in the runs that followed, for minutes, by up to four
	// times on an ext4 disk mounted with discard, and edits and store
	// population create files. A run writes at most about 60 MB.
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(workDir, name+"-")
	if err != nil {
		return err
	}
	if work, err = filepath.Abs(work); err != nil {
		return err
	}
	cfg := phaseCfg{seed: seed, dur: time.Duration(seconds) * time.Second,
		workers: nproc, work: work, spanDir: filepath.Dir(workDir), serve: serveBin}
	ctx := context.Background()

	res := resultLine{Metrics: map[string]metricOut{}}
	add := func(o *phaseOut) {
		res.Attempted += o.attempted
		res.Failed += o.failed
	}
	vmOut := newPhaseOut(0)
	checkAgainstVM(ctx, vmOut)
	add(vmOut)
	if trace {
		out, err := own.traced(ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		add(out)
		// Layers this workload does not load report 0: the traced run
		// recorded no work there.
		for _, w := range workloads {
			for _, m := range append(w.layer, traceOverhead) {
				res.Metrics[m.name] = metricOut{out.layer[m.name], m.unit}
			}
		}
	} else {
		out, rss, err := measure(ctx, cfg, own)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		add(out)
		out.primary.print("primary")
		out.secondary.print("secondary")
		values := map[string]float64{
			"setup_s":          out.setupS,
			"rss_mb":           rss,
			"primary_ms_p50":   out.primary.median(),
			"secondary_ms_p50": out.secondary.median(),
		}
		for _, m := range e2eMetrics {
			if values[m.name] <= 0 {
				return fmt.Errorf("%s: no measurement for %s", name, m.name)
			}
			res.Metrics[m.name] = metricOut{values[m.name], m.unit}
		}
	}
	if res.Attempted == 0 {
		return fmt.Errorf("no operation was attempted")
	}
	res.Correct = res.Failed == 0
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-30s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measure runs an untraced measurement of the workload: set-up, then
// --seconds of load, then the checks. It also returns the resident set,
// in MB, of the process doing the work.
func measure(ctx context.Context, cfg phaseCfg, own *workload) (*phaseOut, float64, error) {
	p, err := own.start(ctx, cfg)
	if err != nil {
		return nil, 0, err
	}
	defer p.stop()
	// Collect the set-up's garbage first, so it is not charged to the
	// measured operations.
	runtime.GC()
	p.measure(ctx, cfg.dur)
	mb := p.rss()
	return p.finish(ctx), mb, nil
}

// checkAgainstVM compares the static FPI of STREAM and DGEMM at small
// sizes with the dynamic count of the VM, an independent interpreter of
// the compiled code.
func checkAgainstVM(ctx context.Context, out *phaseOut) {
	eng := engine.New(engine.Options{Workers: 1})
	pairs := []struct {
		name            string
		static, dynamic func() (int64, error)
	}{
		{"stream n=1000",
			func() (int64, error) { return experiments.StreamStaticFPI(ctx, eng, 1000) },
			func() (int64, error) { return experiments.StreamDynamicFPI(ctx, eng, 1000) }},
		{"dgemm n=24 nrep=2",
			func() (int64, error) { return experiments.DgemmStaticFPI(ctx, eng, 24, 2) },
			func() (int64, error) { return experiments.DgemmDynamicFPI(ctx, eng, 24, 2) }},
	}
	for _, p := range pairs {
		out.attempted++
		st, err := p.static()
		if err != nil {
			out.fail("%s static FPI: %v", p.name, err)
			continue
		}
		dyn, err := p.dynamic()
		if err != nil {
			out.fail("%s dynamic FPI: %v", p.name, err)
			continue
		}
		if st != dyn {
			out.fail("%s: static FPI %d, VM counted %d", p.name, st, dyn)
		}
	}
}
