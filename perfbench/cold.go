package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mira/internal/cc"
	"mira/internal/core"
	"mira/internal/engine"
	"mira/internal/metrics"
	"mira/internal/model"
	"mira/internal/objfile"
)

// modelDigest fingerprints an analysis result: the generated Python model
// plus the warnings.
func modelDigest(python string, warnings []string) string {
	h := sha256.New()
	io.WriteString(h, python)
	for _, w := range warnings {
		h.Write([]byte{0})
		io.WriteString(h, w)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// coldRec is what the timed loop keeps of one analysis: enough to check
// it afterwards without holding the pipeline or the source.
type coldRec struct {
	idx     int // program index: block idx/corpusBlock, position idx%corpusBlock
	name    string
	class   string
	variant bool
	bytes   int
	op      opRec
	digest  string
	keys    []string
	reused  int
	built   int
	err     error
}

type coldState struct {
	eng *engine.Engine
}

// coldWarmupBlock is the block whose programs warm the engine up. The
// timed loop starts at block 0 and never reaches it. A whole block holds
// the same mix of programs under every seed, so set-up does the same
// work for every seed.
const coldWarmupBlock = 1 << 20

// coldSetup builds the engine and warms it up. The corpus is generated
// block by block during the run, outside the timed analyses, so the
// benchmark's own heap stays small and the garbage collector's work is
// the engine's.
func coldSetup(ctx context.Context, cfg phaseCfg) (*coldState, error) {
	warm, err := coldBlock(cfg.seed, coldWarmupBlock)
	if err != nil {
		return nil, err
	}
	// Nothing is reused, so the resident bounds only cap memory.
	eng := engine.New(engine.Options{Workers: cfg.workers, MaxResident: 64, MaxResidentFuncs: 512})
	// Warm the allocator and the engine's maps on programs the timed
	// loop never sees (their names, hence keys, are their own).
	for _, p := range warm {
		if _, err := eng.AnalyzeCtx(ctx, p.name, p.src); err != nil {
			return nil, fmt.Errorf("cold-corpus warm-up %s: %w", p.name, err)
		}
	}
	return &coldState{eng: eng}, nil
}

func recordCold(idx int, p program, a *engine.Analysis, err error, start time.Time) coldRec {
	r := coldRec{idx: idx, name: p.name, class: p.class, variant: p.variant, bytes: len(p.src),
		op: opRec{start: start, end: time.Now(), class: p.class}, err: err}
	if err != nil {
		return r
	}
	r.digest = modelDigest(a.PythonModel(), a.Warnings)
	for _, k := range a.FuncKeys {
		r.keys = append(r.keys, k)
	}
	if d := a.Delta(); d != nil {
		r.reused, r.built = len(d.Reused), len(d.Compiled)
	} else {
		r.err = fmt.Errorf("no incremental delta: the analysis was not built cold")
	}
	return r
}

// coldPhase is the untraced cold-corpus measurement.
type coldPhase struct {
	cfg  phaseCfg
	st   *coldState
	out  *phaseOut
	recs []coldRec
}

func startCold(ctx context.Context, cfg phaseCfg) (phase, error) {
	st, setupS, err := timedSetup(func() (*coldState, error) { return coldSetup(ctx, cfg) })
	if err != nil {
		return nil, err
	}
	return &coldPhase{cfg: cfg, st: st, out: newPhaseOut(setupS)}, nil
}

func tracedCold(ctx context.Context, cfg phaseCfg) (*phaseOut, error) {
	st, setupS, err := timedSetup(func() (*coldState, error) { return coldSetup(ctx, cfg) })
	if err != nil {
		return nil, err
	}
	return coldTraced(ctx, cfg, st, newPhaseOut(setupS))
}

// measure runs the closed loop, one caller per core, for d. Each caller
// takes the next block of the corpus, generates it, and analyzes its
// programs one after the other. Analyses of synthetic programs are the
// primary operation, of renamed embedded benchmarks the secondary.
func (p *coldPhase) measure(ctx context.Context, d time.Duration) {
	start := time.Now()
	more := until(d)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range p.cfg.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var recs []coldRec
			defer func() {
				mu.Lock()
				p.recs = append(p.recs, recs...)
				mu.Unlock()
			}()
			for more() {
				b := int(next.Add(1)) - 1
				progs, err := coldBlock(p.cfg.seed, b)
				if err != nil {
					recs = append(recs, coldRec{idx: b * corpusBlock, name: fmt.Sprintf("block %d", b), err: err})
					return
				}
				for j, prog := range progs {
					if !more() {
						return
					}
					t := time.Now()
					a, err := p.st.eng.AnalyzeCtx(ctx, prog.name, prog.src)
					recs = append(recs, recordCold(b*corpusBlock+j, prog, a, err, t))
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	sort.Slice(p.recs, func(i, j int) bool { return p.recs[i].idx < p.recs[j].idx })
	var bytes int
	for _, r := range p.recs {
		if r.err != nil {
			continue
		}
		into := p.out.primary
		if r.variant {
			into = p.out.secondary
		}
		into.add([]opRec{r.op})
		bytes += r.bytes
	}
	p.out.note("cold-corpus: %d programs, %.0f KiB/s",
		p.out.primary.count()+p.out.secondary.count(), float64(bytes)/1024/wall.Seconds())
}

func (p *coldPhase) rss() float64 { return settledRSS() }

func (p *coldPhase) finish(ctx context.Context) *phaseOut {
	out := p.out
	for _, r := range p.recs {
		out.attempted++
		if r.err != nil {
			out.fail("analyze %s: %v", r.name, r.err)
		}
	}
	checkCold(ctx, p.cfg, p.recs, out)
	return out
}

func (p *coldPhase) stop() {}

// checkCold verifies every analyzed program against core.Analyze, and
// that no function was reused: the corpus shares no function key, so a
// reuse means the draw or the keying is broken. recs are in program
// order; each block is generated again for the check.
func checkCold(ctx context.Context, cfg phaseCfg, recs []coldRec, out *phaseOut) {
	owner := map[string]string{}
	var blocks [][]coldRec
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		if r.reused != 0 {
			out.fail("cold-corpus: %s reused %d functions", r.name, r.reused)
		}
		for _, k := range r.keys {
			if other, dup := owner[k]; dup {
				out.fail("cold-corpus: %s shares a function key with %s", r.name, other)
			}
			owner[k] = r.name
		}
		if len(blocks) == 0 || blocks[len(blocks)-1][0].idx/corpusBlock != r.idx/corpusBlock {
			blocks = append(blocks, nil)
		}
		blocks[len(blocks)-1] = append(blocks[len(blocks)-1], r)
	}
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for range cfg.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(blocks) || ctx.Err() != nil {
					return
				}
				progs, genErr := coldBlock(cfg.seed, blocks[i][0].idx/corpusBlock)
				for _, r := range blocks[i] {
					var pl *core.Pipeline
					err := genErr
					if err == nil {
						prog := progs[r.idx%corpusBlock]
						pl, err = core.Analyze(prog.name, prog.src, core.Options{})
					}
					mu.Lock()
					out.attempted++
					switch {
					case err != nil:
						out.fail("check %s: %v", r.name, err)
					case modelDigest(pl.PythonModel(), pl.Warnings) != r.digest:
						out.fail("check %s: engine model differs from core.Analyze", r.name)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
}

// replayPipeline runs the analysis pipeline stage by stage through each
// layer's public functions, one span per call, and returns the result's
// digest and encoded object size. It mirrors the cold path of
// core.AnalyzeIncremental with no cache.
func replayPipeline(tr *tracer, op int, name, src string) (digest string, objBytes int, err error) {
	root := tr.begin("analyze", op)
	defer tr.end(root)
	prog, err := frontEnd(tr, op, name, src)
	if err != nil {
		return "", 0, err
	}
	ccOpts := cc.Options{SourceName: name}
	var order []string
	tr.do("cc.LinkOrder", op, func() { order = cc.LinkOrder(prog) })
	units := make([]*cc.Unit, 0, len(order))
	for _, q := range order {
		var u *cc.Unit
		tr.do("cc.CompileFunc", op, func() { u, err = cc.CompileFunc(prog, ccOpts, q) })
		if err != nil {
			return "", 0, err
		}
		units = append(units, u)
	}
	var obj *objfile.File
	tr.do("cc.Link", op, func() { obj, err = cc.Link(prog, ccOpts, units) })
	if err != nil {
		return "", 0, err
	}
	var buf bytes.Buffer
	tr.do("objfile.Encode", op, func() { err = obj.Encode(&buf) })
	if err != nil {
		return "", 0, err
	}
	var decoded *objfile.File
	tr.do("objfile.Decode", op, func() { decoded, err = objfile.Decode(buf.Bytes()) })
	if err != nil {
		return "", 0, err
	}
	var gen *metrics.Generator
	tr.do("metrics.NewGenerator", op, func() { gen = metrics.NewGenerator(prog, decoded, metrics.Config{}) })
	m := &model.Model{SourceName: decoded.SourceName, Funcs: map[string]*model.Func{}}
	var warns []string
	for _, q := range prog.FuncOrder {
		var fm *model.Func
		var w []string
		tr.do("metrics.FuncModel", op, func() { fm, w, err = gen.FuncModel(q) })
		if err != nil {
			return "", 0, err
		}
		m.Funcs[q] = fm
		m.Order = append(m.Order, q)
		warns = append(warns, w...)
	}
	return modelDigest(m.EmitPython(), warns), buf.Len(), nil
}

// coldTraced pairs, program by program, an untraced engine analysis with
// a traced stage-by-stage replay of the same source, serially so that
// allocation counts attribute to the open span.
func coldTraced(ctx context.Context, cfg phaseCfg, st *coldState, out *phaseOut) (*phaseOut, error) {
	tr := newTracer()
	var untraced, traced time.Duration
	var objBytes, reused, built int
	more := until(cfg.dur)
	var progs []program
	n := 0
	for ; more(); n++ {
		if n%corpusBlock == 0 {
			var err error
			if progs, err = coldBlock(cfg.seed, n/corpusBlock); err != nil {
				return nil, err
			}
		}
		p := progs[n%corpusBlock]
		t := time.Now()
		a, err := st.eng.AnalyzeCtx(ctx, p.name, p.src)
		untraced += time.Since(t)
		out.attempted++
		r := recordCold(n, p, a, err, t)
		if r.err != nil {
			out.fail("analyze %s: %v", p.name, r.err)
			continue
		}
		reused += r.reused
		built += r.built
		t = time.Now()
		d, nb, err := replayPipeline(tr, n, p.name, p.src)
		traced += time.Since(t)
		objBytes += nb
		switch {
		case err != nil:
			out.fail("replay %s: %v", p.name, err)
		case d != r.digest:
			out.fail("replay %s: digest differs from the engine's", p.name)
		}
	}
	lt := tr.totals()
	per := func(d time.Duration) float64 { return ratio(ms(d), float64(n)) }
	perN := func(x uint64) float64 { return ratio(float64(x), float64(n)) }
	metricsSelf := lt.selfOf("metrics.NewGenerator", "metrics.FuncModel")
	out.layer["parser.self_ms"] = per(lt.selfOf("parser.ParseFile"))
	out.layer["parser.allocs"] = perN(lt.allocsOf("parser.ParseFile"))
	out.layer["sema.self_ms"] = per(lt.selfOf("sema.Analyze"))
	out.layer["core.funckeys_self_ms"] = per(lt.selfOf("core.FuncKeys"))
	out.layer["cc.compile_self_ms"] = per(lt.selfOf("cc.LinkOrder", "cc.CompileFunc"))
	out.layer["cc.link_self_ms"] = per(lt.selfOf("cc.Link"))
	out.layer["cc.allocs"] = perN(lt.allocsOf("cc.LinkOrder", "cc.CompileFunc", "cc.Link"))
	out.layer["objfile.codec_self_ms"] = per(lt.selfOf("objfile.Encode", "objfile.Decode"))
	out.layer["objfile.bytes"] = ratio(float64(objBytes), float64(n))
	out.layer["metrics.self_ms"] = per(metricsSelf)
	out.layer["metrics.allocs"] = perN(lt.allocsOf("metrics.NewGenerator", "metrics.FuncModel"))
	var total time.Duration
	for _, s := range tr.spans {
		if s.Parent < 0 {
			total += time.Duration(s.End - s.Start)
		}
	}
	out.layer["metrics.share"] = ratio(float64(metricsSelf), float64(total))
	out.layer["core.reuse_ratio"] = ratio(float64(reused), float64(reused+built))
	out.layer["trace.overhead_share"] = ratio(float64(traced-untraced), float64(untraced))
	out.note("cold-corpus traced: %d programs", n)
	return out, tr.write(cfg.spanDir, "cold-corpus")
}
