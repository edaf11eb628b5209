package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mira/internal/cc"
	"mira/internal/engine"
	"mira/internal/expr"
	"mira/internal/obs"
)

// scrape renders an engine's registry and returns the parsed samples.
func scrape(t *testing.T, e *engine.Engine) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := e.Obs().WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.Parse(sb.String())
	if err != nil {
		t.Fatalf("engine exposition fails lint: %v\n----\n%s", err, sb.String())
	}
	return exp.Samples
}

// TestCacheStoreWarmRestart simulates a process restart: a second engine
// sharing the first's store must serve the same source from the stored
// per-function artifact (a store hit: nothing compiled, no model
// generated) and produce an identical analysis.
func TestCacheStoreWarmRestart(t *testing.T) {
	store := engine.NewMemoryStore()
	env := expr.EnvFromInts(map[string]int64{"n": 500})

	cold := engine.New(engine.Options{Store: store})
	a1, err := cold.AnalyzeCtx(context.Background(), "scale.c", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := a1.StaticMetrics("scale", env)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 1 {
		t.Fatalf("store has %d entries after cold analyze, want 1", store.Len())
	}
	s := scrape(t, cold)
	if s["mira_store_misses_total"] != 1 || s["mira_store_hits_total"] != 0 {
		t.Errorf("cold engine store counters = misses %v hits %v, want 1/0",
			s["mira_store_misses_total"], s["mira_store_hits_total"])
	}
	if s["mira_analyze_seconds_count"] != 1 {
		t.Errorf("cold engine analyze count = %v, want 1", s["mira_analyze_seconds_count"])
	}

	warm := engine.New(engine.Options{Store: store})
	a2, err := warm.AnalyzeCtx(context.Background(), "scale.c", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := a2.StaticMetrics("scale", env)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Errorf("warm metrics %+v != cold metrics %+v", m2, m1)
	}
	s = scrape(t, warm)
	if s["mira_store_hits_total"] != 1 {
		t.Errorf("warm engine store hits = %v, want 1", s["mira_store_hits_total"])
	}
	// 0 compiled, 0 generated: every function came from the store whole.
	if s["mira_incremental_misses_total"] != 0 || s["mira_incremental_hits_total"] != 1 {
		t.Errorf("warm engine compiled and modeled %v functions (reused %v), want 0 (1)",
			s["mira_incremental_misses_total"], s["mira_incremental_hits_total"])
	}
	if d := a2.Delta(); d == nil || len(d.Compiled) != 0 {
		t.Errorf("warm delta = %+v, want nothing compiled", d)
	}
	if a2.PythonModel() != a1.PythonModel() || fmt.Sprint(a2.Warnings) != fmt.Sprint(a1.Warnings) {
		t.Error("warm analysis differs from the cold one")
	}
}

// TestCacheStoreCorruptEntryDegrades plants damaged artifacts and checks
// the engine rebuilds instead of failing or crashing: a per-function
// entry whose unit or model does not decode (an undefined opcode
// included) or whose halves disagree is a store error and a rebuild of
// that one function, and a damaged whole-source entry is never
// read. Every rebuild repairs the store in place.
func TestCacheStoreCorruptEntryDegrades(t *testing.T) {
	probe := engine.New(engine.Options{})
	good, err := probe.AnalyzeCtx(context.Background(), "scale.c", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	other, err := probe.AnalyzeCtx(context.Background(), "axpy.c", axpySrc)
	if err != nil {
		t.Fatal(err)
	}
	key, fnKey := probe.Key(scaleSrc), good.FuncKeys["scale"]
	seed := engine.NewMemoryStore()
	if _, err := engine.New(engine.Options{Store: seed}).AnalyzeCtx(context.Background(), "scale.c", scaleSrc); err != nil {
		t.Fatal(err)
	}
	intact, ok := seed.LoadFunc(fnKey)
	if !ok {
		t.Fatal("no per-function entry persisted")
	}
	seedOther := engine.NewMemoryStore()
	if _, err := engine.New(engine.Options{Store: seedOther}).AnalyzeCtx(context.Background(), "axpy.c", axpySrc); err != nil {
		t.Fatal(err)
	}
	foreign, _ := seedOther.LoadFunc(other.FuncKeys["axpy"])
	// A well-framed unit holding an undefined opcode: it used to decode
	// and then fail the whole analysis at link time.
	badOp, err := cc.DecodeUnitBytes(intact.Unit)
	if err != nil {
		t.Fatal(err)
	}
	badOp.Instrs[0].Op = 60000

	cases := []*engine.FuncEntry{
		{Name: "scale", Unit: []byte("not a unit"), Model: intact.Model},
		{Name: "scale", Unit: intact.Unit, Model: []byte("not a model")},
		{Name: "scale", Unit: intact.Unit, Model: nil},
		{Name: "scale", Unit: intact.Unit, Model: intact.Model[:len(intact.Model)-1]},
		{Name: "scale", Unit: intact.Unit, Model: foreign.Model},
		{Name: "scale", Unit: badOp.EncodeBytes(), Model: intact.Model},
	}
	for i, ent := range cases {
		store := engine.NewMemoryStore()
		if err := store.StoreFunc(fnKey, ent); err != nil {
			t.Fatal(err)
		}
		if err := store.Store(key, &engine.Entry{Name: "scale.c", Source: scaleSrc, Object: []byte("not an object file")}); err != nil {
			t.Fatal(err)
		}
		e := engine.New(engine.Options{Store: store})
		a, err := e.AnalyzeCtx(context.Background(), "scale.c", scaleSrc)
		if err != nil {
			t.Fatalf("case %d: corrupt store entry broke analysis: %v", i, err)
		}
		if a.PythonModel() != good.PythonModel() {
			t.Errorf("case %d: analysis over a corrupt entry differs from cold", i)
		}
		s := scrape(t, e)
		if s["mira_store_errors_total"] != 1 {
			t.Errorf("case %d: store errors = %v, want 1", i, s["mira_store_errors_total"])
		}
		if s["mira_store_hits_total"] != 0 {
			t.Errorf("case %d: corrupt entry counted as hit", i)
		}
		// The rebuild must repair both entries in place.
		fixed, ok := store.LoadFunc(fnKey)
		if !ok || !bytes.Equal(fixed.Unit, intact.Unit) || !bytes.Equal(fixed.Model, intact.Model) {
			t.Errorf("case %d: per-function entry not repaired after rebuild", i)
		}
		if whole, ok := store.Load(key); !ok || whole.Source != scaleSrc || string(whole.Object) == "not an object file" {
			t.Errorf("case %d: whole-source entry not repaired after rebuild", i)
		}
	}
}

// TestCacheStoreConcurrentRoundTrip hammers one shared store from many
// goroutines across two engines — the -race gate checks the store and
// the rebuild path are sound under contention.
func TestCacheStoreConcurrentRoundTrip(t *testing.T) {
	store := engine.NewMemoryStore()
	engines := []*engine.Engine{
		engine.New(engine.Options{Store: store, Workers: 4}),
		engine.New(engine.Options{Store: store, Workers: 4}),
	}
	env := expr.EnvFromInts(map[string]int64{"n": 64})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := engines[g%2]
			for i := 0; i < 4; i++ {
				a, err := e.AnalyzeCtx(context.Background(), "scale.c", scaleSrc)
				if err != nil {
					errs <- err
					return
				}
				if _, err := a.StaticMetrics("scale", env); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if store.Len() != 1 {
		t.Errorf("store holds %d entries, want 1", store.Len())
	}
}

// TestLookupByKey covers the /eval-by-key handle: present after a
// completed analysis, absent before, absent for failures.
func TestLookupByKey(t *testing.T) {
	e := engine.New(engine.Options{})
	key := e.Key(scaleSrc)
	if _, ok := e.Lookup(key); ok {
		t.Error("Lookup hit before any analysis")
	}
	if _, err := e.AnalyzeCtx(context.Background(), "scale.c", scaleSrc); err != nil {
		t.Fatal(err)
	}
	a, ok := e.Lookup(key)
	if !ok || a == nil {
		t.Fatal("Lookup missed a completed analysis")
	}
	if _, err := e.AnalyzeCtx(context.Background(), "bad.c", "int f( {"); err == nil {
		t.Fatal("parse error accepted")
	}
	if _, ok := e.Lookup(e.Key("int f( {")); ok {
		t.Error("Lookup returned a failed analysis")
	}
}

// TestMaxResidentEviction bounds the live cache: a flood of distinct
// sources must not grow it past the bound, evicted programs must still
// re-analyze without compiling anything (their functions come from the
// function memo, or the per-function store), and holders of evicted
// analyses must keep working.
func TestMaxResidentEviction(t *testing.T) {
	store := engine.NewMemoryStore()
	e := engine.New(engine.Options{Store: store, MaxResident: 3})
	env := expr.EnvFromInts(map[string]int64{"n": 9})

	src := func(i int) string {
		return fmt.Sprintf("double f(double *x, int n) { double s; int i; s = %d.0; for (i = 0; i < n; i++) { s = s + x[i]; } return s; }", i)
	}
	first, err := e.AnalyzeCtx(context.Background(), "p0.c", src(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		if _, err := e.AnalyzeCtx(context.Background(), fmt.Sprintf("p%d.c", i), src(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := scrape(t, e)
	if got := s["mira_resident_analyses"]; got > 3 {
		t.Errorf("resident analyses = %v, want <= 3", got)
	}
	if s["mira_cache_evictions_total"] < 7 {
		t.Errorf("evictions = %v, want >= 7", s["mira_cache_evictions_total"])
	}
	// An evicted Analysis held by a caller stays fully usable.
	if _, err := first.StaticMetrics("f", env); err != nil {
		t.Errorf("evicted analysis unusable: %v", err)
	}
	// Re-requesting an evicted program restores its function instead of
	// compiling it: every one of the 10 sources was persisted exactly
	// once, per function and whole.
	if store.Len() != 10 || store.FuncLen() != 10 {
		t.Fatalf("store has %d whole-source and %d function entries, want 10 and 10", store.Len(), store.FuncLen())
	}
	compiled, reused := s["mira_incremental_misses_total"], s["mira_incremental_hits_total"]
	if _, err := e.AnalyzeCtx(context.Background(), "p0.c", src(0)); err != nil {
		t.Fatal(err)
	}
	s = scrape(t, e)
	if s["mira_incremental_misses_total"] != compiled {
		t.Error("re-analysis of an evicted program recompiled instead of restoring")
	}
	if s["mira_incremental_hits_total"] != reused+1 {
		t.Errorf("re-analysis reused %v functions, want 1", s["mira_incremental_hits_total"]-reused)
	}
}
