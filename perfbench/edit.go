package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mira/internal/ast"
	"mira/internal/cachestore"
	"mira/internal/core"
	"mira/internal/engine"
	"mira/internal/metrics"
	"mira/internal/objfile"
	"mira/internal/parser"
	"mira/internal/sema"
	"mira/internal/synth"
)

// fullDigest fingerprints a pipeline byte for byte: model, warnings and
// the encoded object file.
func fullDigest(p *core.Pipeline) (string, error) {
	obj, err := p.EncodeObject()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(modelDigest(p.PythonModel(), p.Warnings)))
	h.Write(obj)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// traceStore wraps the disk store and, while tr is set, records a span
// around every call and counts what went through it.
type traceStore struct {
	d  *cachestore.Disk
	tr *tracer
	op int

	funcHits, funcMisses int
	bytesWritten         int
}

func (s *traceStore) span(name string, fn func()) {
	if s.tr == nil {
		fn()
		return
	}
	s.tr.do(name, s.op, fn)
}

func (s *traceStore) Load(key string) (e *engine.Entry, ok bool) {
	s.span("cachestore.Load", func() { e, ok = s.d.Load(key) })
	return e, ok
}

func (s *traceStore) Store(key string, e *engine.Entry) (err error) {
	s.span("cachestore.Store", func() { err = s.d.Store(key, e) })
	if s.tr != nil {
		s.bytesWritten += len(key) + len(e.Name) + len(e.Source) + len(e.Object)
	}
	return err
}

func (s *traceStore) LoadFunc(key string) (e *engine.FuncEntry, ok bool) {
	s.span("cachestore.LoadFunc", func() { e, ok = s.d.LoadFunc(key) })
	if s.tr != nil {
		if !ok {
			s.funcMisses++
			return e, ok
		}
		s.funcHits++
		// The engine decodes the unit next; time the same decode here.
		s.tr.do("cc.DecodeUnit", s.op, func() { _, _ = core.DecodeUnit(e.Unit) })
	}
	return e, ok
}

func (s *traceStore) StoreFunc(key string, e *engine.FuncEntry) (err error) {
	s.span("cachestore.StoreFunc", func() { err = s.d.StoreFunc(key, e) })
	if s.tr != nil {
		s.bytesWritten += len(key) + len(e.Name) + len(e.Unit)
	}
	return err
}

type editState struct {
	dir   string
	store *traceStore
	eng   *engine.Engine
	name  string
	src   string
	plan  *editPlan
	edits int
}

// editSetup builds the edited program (a renamed miniFE followed by a
// seeded synthetic application, so edits land in leaf functions and in
// call chains), populates a fresh on-disk store through a live engine,
// and warms both paths once.
func editSetup(ctx context.Context, cfg phaseCfg, rep int) (*editState, error) {
	rng := newRand(cfg.seed, "edit-restart")
	tag := tagFor(cfg.seed, 1_000_000+rep)
	// The program's shape is fixed, so every seed edits the same amount of
	// code; the seed picks names and the order of the edits.
	// apsi at 0.4: six kernels, about 880 statements. A large program keeps
	// an edit's CPU work (front end, compile, model) well above its store
	// writes, whose latency on a shared disk is the noisiest part of an
	// edit.
	syn, err := synthProgram(synth.TableIProfiles[1], 0.4, tag)
	if err != nil {
		return nil, err
	}
	st := &editState{
		dir:  filepath.Join(cfg.work, fmt.Sprintf("edit-store-%d", rep)),
		name: "edit_" + tag + ".c",
		src:  renamed(2, tag) + "\n" + syn,
	}
	if st.plan, err = editOrder(st.name, st.src, rng); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(st.dir); err != nil {
		return nil, err
	}
	d, err := cachestore.Open(st.dir)
	if err != nil {
		return nil, err
	}
	st.store = &traceStore{d: d}
	// Only the current version is ever analyzed again, so a few resident
	// whole-source entries suffice; function cells stay unbounded, as in
	// mira-serve.
	st.eng = engine.New(engine.Options{Workers: cfg.workers, Store: st.store, MaxResident: 8})
	if _, err := st.eng.AnalyzeCtx(ctx, st.name, st.src); err != nil {
		return nil, fmt.Errorf("edit-restart base: %w", err)
	}
	for range 4 {
		if _, _, _, err := st.edit(ctx); err != nil {
			return nil, err
		}
	}
	if _, _, err := st.restart(ctx, nil, 0); err != nil {
		return nil, err
	}
	return st, nil
}

// edit applies the next seeded one-function edit to the live engine and
// returns, besides the result, the edited function.
func (st *editState) edit(ctx context.Context) (*engine.Analysis, time.Duration, string, error) {
	lit := st.plan.order[st.edits%len(st.plan.order)]
	src := editLiteral(st.src, lit, st.edits)
	st.edits++
	t := time.Now()
	a, err := st.eng.AnalyzeCtx(ctx, st.name, src)
	lat := time.Since(t)
	if err == nil {
		st.src = src
	}
	return a, lat, st.plan.fn[lit], err
}

// restart opens the populated store in a fresh engine, as a restarted
// process would, and analyzes the unchanged current program.
func (st *editState) restart(ctx context.Context, tr *tracer, op int) (*engine.Analysis, time.Duration, error) {
	t := time.Now()
	d, err := cachestore.Open(st.dir)
	if err != nil {
		return nil, 0, err
	}
	ts := &traceStore{d: d, tr: tr, op: op}
	eng := engine.New(engine.Options{Workers: 1, Store: ts})
	a, err := eng.AnalyzeCtx(ctx, st.name, st.src)
	lat := time.Since(t)
	st.store.funcHits += ts.funcHits
	st.store.funcMisses += ts.funcMisses
	return a, lat, err
}

// editSample is one edit or restart kept for the byte-equality check.
type editSample struct {
	what, src, digest string
}

// One operation in restartEvery is a restart, the rest are edits; the
// operations of every checkEvery-th such group are checked against a
// cold analysis.
const (
	restartEvery = 4
	checkEvery   = 8
)

func setupEdit(ctx context.Context, cfg phaseCfg) (*editState, float64, error) {
	rep := 0
	return timedSetup(func() (*editState, error) {
		rep++
		return editSetup(ctx, cfg, rep)
	})
}

// editPhase is the untraced edit-restart measurement.
type editPhase struct {
	st      *editState
	out     *phaseOut
	samples []editSample
}

func startEdit(ctx context.Context, cfg phaseCfg) (phase, error) {
	st, setupS, err := setupEdit(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &editPhase{st: st, out: newPhaseOut(setupS)}, nil
}

func tracedEdit(ctx context.Context, cfg phaseCfg) (*phaseOut, error) {
	st, setupS, err := setupEdit(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return editTraced(ctx, cfg, st, newPhaseOut(setupS))
}

// editRate is how many operations per second the edit-restart loop
// starts: an editor saving at a steady pace, well below the rate the
// engine sustains on a 2-core host (an edit takes 8-12 ms there, a
// restart 16-22 ms). The function memo grows with every edit, so pacing
// also keeps the memory a run ends with independent of the host's speed.
const editRate = 30

// measure applies edits, the primary operation, with a restart, the
// secondary, every restartEvery operations, paced at editRate for d.
func (p *editPhase) measure(ctx context.Context, d time.Duration) {
	var edits, restarts []opRec
	more := paced(editRate, d)
	for k := 0; more(); k++ {
		what := "edit"
		var a *engine.Analysis
		var lat time.Duration
		var fn string
		var err error
		if k%restartEvery == restartEvery-1 {
			what = "restart"
			a, lat, err = p.st.restart(ctx, nil, k)
		} else {
			a, lat, fn, err = p.st.edit(ctx)
		}
		p.out.attempted++
		if err != nil {
			p.out.fail("%s %d: %v", what, k, err)
			continue
		}
		end := time.Now()
		if what == "edit" {
			edits = append(edits, opRec{start: end.Add(-lat), end: end, class: fn})
		} else {
			restarts = append(restarts, opRec{start: end.Add(-lat), end: end})
		}
		if k/restartEvery%checkEvery == 0 {
			d, err := fullDigest(a.Pipeline)
			if err != nil {
				p.out.fail("%s %d: encode: %v", what, k, err)
				continue
			}
			p.samples = append(p.samples, editSample{what, p.st.src, d})
		}
	}
	p.out.primary.add(edits)
	p.out.secondary.add(restarts)
}

func (p *editPhase) rss() float64 { return settledRSS() }

func (p *editPhase) finish(ctx context.Context) *phaseOut {
	out := p.out
	out.note("edit-restart: %d edits over %d functions and %d restarts, %d checked",
		out.primary.count(), len(out.primary), out.secondary.count(), len(p.samples))
	for _, s := range p.samples {
		out.attempted++
		pl, err := core.Analyze(p.st.name, s.src, core.Options{})
		if err != nil {
			out.fail("check %s: core.Analyze: %v", s.what, err)
			continue
		}
		if d, err := fullDigest(pl); err != nil || d != s.digest {
			out.fail("check %s: result differs from a cold analysis of the same source", s.what)
		}
	}
	return out
}

func (p *editPhase) stop() {}

// editTraced runs the loop untraced for half the time and traced for the
// other half, and reports the store, reuse and restart layers from the
// traced half. Front-end and restart stages are replayed through their
// public functions after each operation, outside its timing.
func editTraced(ctx context.Context, cfg phaseCfg, st *editState, out *phaseOut) (*phaseOut, error) {
	tr := newTracer()
	var plainEdit, tracedEdit []float64
	var reused, compiled, edits, restarts int
	half := time.Now().Add(cfg.dur / 2)
	deadline := time.Now().Add(cfg.dur)
	for k := 0; time.Now().Before(deadline); k++ {
		traced := time.Now().After(half)
		if traced {
			st.store.tr, st.store.op = tr, k
		}
		out.attempted++
		if k%restartEvery == restartEvery-1 {
			var t *tracer
			if traced {
				t = tr
			}
			a, _, err := st.restart(ctx, t, k)
			if err != nil {
				out.fail("restart %d: %v", k, err)
				continue
			}
			if traced {
				restarts++
				if err := replayRestart(tr, k, st, a.Key()); err != nil {
					out.fail("restart replay %d: %v", k, err)
				}
			}
			continue
		}
		a, lat, _, err := st.edit(ctx)
		if err != nil {
			out.fail("edit %d: %v", k, err)
			continue
		}
		if !traced {
			plainEdit = append(plainEdit, ms(lat))
			continue
		}
		tracedEdit = append(tracedEdit, ms(lat))
		edits++
		if d := a.Delta(); d != nil {
			reused += len(d.Reused)
			compiled += len(d.Compiled)
		}
		if _, err := frontEnd(tr, k, st.name, st.src); err != nil {
			out.fail("edit replay %d: %v", k, err)
		}
	}
	st.store.tr = nil
	lt := tr.totals()
	perCall := func(name string) float64 { return ratio(us(lt.self[name]), float64(lt.calls[name])) }
	out.layer["core.reuse_ratio"] = ratio(float64(reused), float64(reused+compiled))
	out.layer["core.recompiled_funcs"] = ratio(float64(compiled), float64(edits))
	out.layer["core.funckeys_self_ms"] = ratio(ms(lt.self["core.FuncKeys"]), float64(edits))
	out.layer["cachestore.store_us"] = perCall("cachestore.Store")
	out.layer["cachestore.store_func_us"] = perCall("cachestore.StoreFunc")
	out.layer["cachestore.bytes_written"] = ratio(float64(st.store.bytesWritten), float64(edits))
	out.layer["cachestore.load_us"] = perCall("cachestore.Load")
	out.layer["cachestore.load_func_us"] = perCall("cachestore.LoadFunc")
	out.layer["cachestore.func_hit_ratio"] = ratio(float64(st.store.funcHits), float64(st.store.funcHits+st.store.funcMisses))
	out.layer["cc.decode_unit_us"] = perCall("cc.DecodeUnit")
	out.layer["metrics.restart_self_ms"] = ratio(ms(lt.self["metrics.Generate"]), float64(restarts))
	out.layer["trace.overhead_share"] = ratio(mean(tracedEdit)-mean(plainEdit), mean(plainEdit))
	out.note("edit-restart traced: %d edits, %d restarts", edits, restarts)
	return out, tr.write(cfg.spanDir, "edit-restart")
}

// frontEnd times the stages every analysis runs before any cache
// lookup: parse, sema and the function-content keys.
func frontEnd(tr *tracer, op int, name, src string) (*sema.Program, error) {
	var file *ast.File
	var prog *sema.Program
	var err error
	tr.do("parser.ParseFile", op, func() { file, err = parser.ParseFile(name, src) })
	if err != nil {
		return nil, err
	}
	tr.do("sema.Analyze", op, func() { prog, err = sema.Analyze(file) })
	if err != nil {
		return nil, err
	}
	tr.do("core.FuncKeys", op, func() { core.FuncKeys(prog, core.Options{}) })
	return prog, nil
}

// replayRestart times the warm-restart stages through their public
// functions: front end, object decode of the stored entry, and model
// generation, which a restart repeats in full today.
func replayRestart(tr *tracer, op int, st *editState, key string) error {
	ent, ok := st.store.d.Load(key)
	if !ok {
		return fmt.Errorf("no stored entry for the restarted program")
	}
	prog, err := frontEnd(tr, op, st.name, st.src)
	if err != nil {
		return err
	}
	var obj *objfile.File
	tr.do("objfile.Decode", op, func() { obj, err = objfile.Decode(ent.Object) })
	if err != nil {
		return err
	}
	tr.do("metrics.Generate", op, func() { _, _, err = metrics.Generate(prog, obj, metrics.Config{}) })
	return err
}
