package cachestore_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/cachestore"
	"mira/internal/core"
	"mira/internal/engine"
	"mira/internal/expr"
	"mira/internal/obs"
	"mira/internal/parser"
	"mira/internal/sema"
)

const kernelSrc = `
double kernel(double *x, int n) {
	double s; int i;
	s = 0.0;
	for (i = 0; i < n; i++) {
		s = s + x[i] * 2.0;
	}
	return s;
}`

func openStore(t *testing.T) *cachestore.Disk {
	t.Helper()
	d, err := cachestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDiskRoundTrip(t *testing.T) {
	d := openStore(t)
	key := strings.Repeat("ab", 32)
	ent := &engine.Entry{Name: "k.c", Source: kernelSrc, Object: []byte{0, 1, 2, 254, 255}}
	if _, ok := d.Load(key); ok {
		t.Fatal("hit on empty store")
	}
	if err := d.Store(key, ent); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Load(key)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if got.Name != ent.Name || got.Source != ent.Source || string(got.Object) != string(ent.Object) {
		t.Errorf("round-trip mismatch: %+v", got)
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d, want 1", d.Len())
	}
}

func TestDiskRejectsBadKeys(t *testing.T) {
	d := openStore(t)
	for _, key := range []string{"", "ab", "../../etc/passwd", "ABCDEF012345", "zz" + strings.Repeat("a", 8)} {
		if err := d.Store(key, &engine.Entry{}); err == nil {
			t.Errorf("Store accepted key %q", key)
		}
		if _, ok := d.Load(key); ok {
			t.Errorf("Load accepted key %q", key)
		}
	}
}

// TestDiskCorruptEntryIsMiss damages on-disk entries every way the
// format can break and checks each reads back as a miss, not an error
// and never a bogus entry.
func TestDiskCorruptEntryIsMiss(t *testing.T) {
	key := strings.Repeat("cd", 32)
	ent := &engine.Entry{Name: "k.c", Source: kernelSrc, Object: []byte("object bytes")}
	path := func(d *cachestore.Disk) string {
		return filepath.Join(d.Dir(), "objects", key[:2], key+".mira")
	}
	corruptions := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated to half", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated tail", func(b []byte) []byte { return b[:len(b)-5] }},
		{"empty file", func(b []byte) []byte { return nil }},
		{"flipped payload bit", func(b []byte) []byte { b[len(b)/2] ^= 1; return b }},
		{"flipped checksum bit", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }},
		{"wrong magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"garbage", func(b []byte) []byte { return []byte("complete nonsense") }},
		{"extra trailing bytes", func(b []byte) []byte { return append(b, 9, 9, 9) }},
	}
	for _, c := range corruptions {
		d := openStore(t)
		if err := d.Store(key, ent); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path(d))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path(d), c.mut(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := d.Load(key); ok {
			t.Errorf("%s: corrupt entry served: %+v", c.name, got)
		}
	}
}

// TestDiskEntryUnderWrongKey guards the content-addressing: an entry
// copied to a different key's path must not be served.
func TestDiskEntryUnderWrongKey(t *testing.T) {
	d := openStore(t)
	key1 := strings.Repeat("11", 32)
	key2 := strings.Repeat("22", 32)
	if err := d.Store(key1, &engine.Entry{Name: "a.c", Source: "x", Object: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(d.Dir(), "objects", key1[:2], key1+".mira")
	dst := filepath.Join(d.Dir(), "objects", key2[:2], key2+".mira")
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Load(key2); ok {
		t.Error("entry served under a key it was not stored for")
	}
}

// TestEngineDiskRoundTrip runs the full warm-restart flow through real
// engines sharing one on-disk store; the -race gate covers concurrent
// load/store against the same directory.
func TestEngineDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	env := expr.EnvFromInts(map[string]int64{"n": 100})

	d1, err := cachestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := engine.New(engine.Options{Store: d1, Workers: 4})
	m1, err := analyzeAndEval(cold, env)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Len() == 0 {
		t.Fatal("nothing persisted")
	}

	// "Restart": a new store handle and a new engine over the same dir.
	d2, err := cachestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := engine.New(engine.Options{Store: d2, Workers: 4})
	m2, err := analyzeAndEval(warm, env)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Errorf("warm restart diverged: %+v vs %+v", m2, m1)
	}
	var sb strings.Builder
	if err := warm.Obs().WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if exp.Value("mira_store_hits_total") == 0 {
		t.Error("warm engine served no store hits")
	}
	if exp.Value("mira_incremental_misses_total") != 0 {
		t.Error("warm engine compiled or modeled despite the disk cache")
	}
}

func analyzeAndEval(e *engine.Engine, env expr.Env) (any, error) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, err := e.AnalyzeCtx(context.Background(), "kernel.c", kernelSrc)
			if err == nil {
				_, _ = a.StaticMetrics("kernel", env)
			}
		}()
	}
	wg.Wait()
	a, err := e.AnalyzeCtx(context.Background(), "kernel.c", kernelSrc)
	if err != nil {
		return nil, err
	}
	return a.StaticMetrics("kernel", env)
}

// BenchmarkColdVsWarmRestart measures what the persistent cache buys a
// restarting process: Cold compiles benchprogs from scratch each
// iteration (fresh engine, empty store); WarmRestart gives each fresh
// engine a directory populated by a previous "process" so every program
// rebuilds from its stored artifact.
func BenchmarkColdVsWarmRestart(b *testing.B) {
	jobs := []engine.Job{
		{Name: "stream.c", Source: benchprogs.Stream},
		{Name: "dgemm.c", Source: benchprogs.Dgemm},
		{Name: "minife.c", Source: benchprogs.MiniFE},
		{Name: "ablation.c", Source: benchprogs.Ablation},
	}
	run := func(b *testing.B, store func() engine.CacheStore) {
		for i := 0; i < b.N; i++ {
			e := engine.New(engine.Options{Store: store()})
			if err := engine.Errors(e.AnalyzeAll(context.Background(), jobs)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Cold", func(b *testing.B) {
		run(b, func() engine.CacheStore {
			d, err := cachestore.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			return d
		})
	})
	b.Run("WarmRestart", func(b *testing.B) {
		dir := b.TempDir()
		seedStore, err := cachestore.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		seed := engine.New(engine.Options{Store: seedStore})
		if err := engine.Errors(seed.AnalyzeAll(context.Background(), jobs)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		run(b, func() engine.CacheStore {
			d, err := cachestore.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			return d
		})
	})
}

// TestDiskFuncRoundTrip covers the per-function side of the store.
func TestDiskFuncRoundTrip(t *testing.T) {
	d := openStore(t)
	key := strings.Repeat("fe", 32)
	if _, ok := d.LoadFunc(key); ok {
		t.Fatal("hit on empty store")
	}
	ent := &engine.FuncEntry{Name: "minife", Unit: []byte{7, 0, 255, 1}}
	if err := d.StoreFunc(key, ent); err != nil {
		t.Fatal(err)
	}
	got, ok := d.LoadFunc(key)
	if !ok {
		t.Fatal("stored function entry missed")
	}
	if got.Name != ent.Name || string(got.Unit) != string(ent.Unit) {
		t.Errorf("round-trip mismatch: %+v", got)
	}
	if d.FuncLen() != 1 {
		t.Errorf("FuncLen = %d, want 1", d.FuncLen())
	}
	if d.Len() != 0 {
		t.Errorf("Len = %d, want 0 (function entries live under funcs/)", d.Len())
	}
}

// funcKeysFor computes the same function-content keys a default engine
// uses, so tests can locate a specific function's on-disk entry.
func funcKeysFor(t *testing.T, name, src string) map[string]string {
	t.Helper()
	file, err := parser.ParseFile(name, src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sema.Analyze(file)
	if err != nil {
		t.Fatal(err)
	}
	return core.FuncKeys(prog, core.Options{})
}

// TestFuncEntryCorruptionIsolated is the function-granularity corruption
// contract end to end: with one per-function entry damaged on disk, a
// restarted engine recompiles exactly that function (plus whatever the
// edit itself invalidated), serves every sibling from its own entry, and
// produces results identical to a cold analysis. No panic, no error, no
// cross-entry poisoning.
func TestFuncEntryCorruptionIsolated(t *testing.T) {
	dir := t.TempDir()
	d1, err := cachestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e1 := engine.New(engine.Options{Store: d1, Workers: 1})
	if _, err := e1.AnalyzeCtx(context.Background(), "minife.c", benchprogs.MiniFE); err != nil {
		t.Fatal(err)
	}
	if d1.FuncLen() == 0 {
		t.Fatal("no per-function entries persisted")
	}

	// Corrupt exactly waxpby's entry: a leaf of the call graph, so an
	// edit elsewhere cannot legitimately invalidate it.
	keys := funcKeysFor(t, "minife.c", benchprogs.MiniFE)
	waxpbyKey, ok := keys["waxpby"]
	if !ok {
		t.Fatalf("no key for waxpby in %v", keys)
	}
	entryPath := filepath.Join(dir, "funcs", waxpbyKey[:2], waxpbyKey+".mira")
	raw, err := os.ReadFile(entryPath)
	if err != nil {
		t.Fatalf("waxpby entry not on disk: %v", err)
	}
	raw[len(raw)/2] ^= 1
	if err := os.WriteFile(entryPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Edit inside minife only (a column shift on one of its lines), so
	// the whole-source entry misses and the per-function path runs.
	mutated := strings.Replace(benchprogs.MiniFE, "return cg_solve", " return cg_solve", 1)
	if mutated == benchprogs.MiniFE {
		t.Fatal("mutation did not change the source")
	}

	d2, err := cachestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2 := engine.New(engine.Options{Store: d2, Workers: 1})
	a, err := e2.AnalyzeCtx(context.Background(), "minife.c", mutated)
	if err != nil {
		t.Fatalf("analyze over corrupted store: %v", err)
	}
	delta := a.Delta()
	if delta == nil {
		t.Fatal("no delta from incremental build")
	}
	compiled := append([]string{}, delta.Compiled...)
	sort.Strings(compiled)
	if want := []string{"minife", "waxpby"}; !reflect.DeepEqual(compiled, want) {
		t.Errorf("recompiled %v, want %v (edited fn + corrupted fn only)", compiled, want)
	}
	for _, q := range delta.Reused {
		if q == "waxpby" {
			t.Error("corrupt waxpby entry was served")
		}
	}

	cold, err := engine.New(engine.Options{Workers: 1}).AnalyzeCtx(context.Background(), "minife.c", mutated)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := a.PythonModel(), cold.PythonModel(); got != want {
		t.Error("corrupted-store analysis diverged from cold analysis")
	}
}

// encodeWithMagic reproduces the entry framing (sections + trailing
// sha256) under an arbitrary magic, to handcraft entries from other
// format versions with valid checksums.
func encodeWithMagic(magic string, sections ...[]byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(magic)
	for _, s := range sections {
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(tmp[:], uint64(len(s)))
		buf.Write(tmp[:n])
		buf.Write(s)
	}
	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	return buf.Bytes()
}

// TestVersionMismatchIsMiss pins the versioned-magic contract: the
// on-disk magic embeds engine.CacheFormatVersion, and a perfectly
// well-formed entry from another version — old or future, checksum and
// framing intact — reads back as a clean miss, never an error.
func TestVersionMismatchIsMiss(t *testing.T) {
	d := openStore(t)
	key := strings.Repeat("ef", 32)
	if err := d.Store(key, &engine.Entry{Name: "k.c", Source: "s", Object: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	objPath := filepath.Join(d.Dir(), "objects", key[:2], key+".mira")
	raw, err := os.ReadFile(objPath)
	if err != nil {
		t.Fatal(err)
	}
	wantMagic := fmt.Sprintf("MIRACS%d\n", engine.CacheFormatVersion)
	if !bytes.HasPrefix(raw, []byte(wantMagic)) {
		t.Fatalf("entry magic %q does not embed engine.CacheFormatVersion (want prefix %q)",
			raw[:len(wantMagic)], wantMagic)
	}

	funcKey := strings.Repeat("ab", 32)
	if err := d.StoreFunc(funcKey, &engine.FuncEntry{Name: "f", Unit: []byte{2}}); err != nil {
		t.Fatal(err)
	}
	funcPath := filepath.Join(d.Dir(), "funcs", funcKey[:2], funcKey+".mira")

	oldMagic := fmt.Sprintf("MIRACS%d\n", engine.CacheFormatVersion-1)
	futureMagic := fmt.Sprintf("MIRACS%d\n", engine.CacheFormatVersion+1)
	for _, version := range []string{oldMagic, futureMagic} {
		obj := encodeWithMagic(version, []byte(key), []byte("k.c"), []byte("s"), []byte{1})
		if err := os.WriteFile(objPath, obj, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.Load(key); ok {
			t.Errorf("%q whole-source entry served across a version bump", strings.TrimSpace(version))
		}
		fn := encodeWithMagic(version, []byte(funcKey), []byte("f"), []byte{2})
		if err := os.WriteFile(funcPath, fn, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.LoadFunc(funcKey); ok {
			t.Errorf("%q per-function entry served across a version bump", strings.TrimSpace(version))
		}
	}
}

// restartEngine opens dir as a restarted process would: a fresh store
// handle under a fresh engine.
func restartEngine(t *testing.T, dir string) *engine.Engine {
	t.Helper()
	d, err := cachestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return engine.New(engine.Options{Store: d, Workers: 1})
}

// samples scrapes the engine's registry.
func samples(t *testing.T, e *engine.Engine) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := e.Obs().WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return exp.Samples
}

// sameAsCold fails unless a's Python model, warnings, and encoded object
// equal those of a cold core.Analyze of the same source.
func sameAsCold(t *testing.T, what string, a *engine.Analysis, src string) {
	t.Helper()
	cold, err := core.Analyze(a.Name, src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gotObj, err := a.EncodeObject()
	if err != nil {
		t.Fatal(err)
	}
	wantObj, err := cold.EncodeObject()
	if err != nil {
		t.Fatal(err)
	}
	if a.PythonModel() != cold.PythonModel() {
		t.Errorf("%s: Python model differs from a cold analysis", what)
	}
	if fmt.Sprint(a.Warnings) != fmt.Sprint(cold.Warnings) {
		t.Errorf("%s: warnings %q differ from a cold analysis's %q", what, a.Warnings, cold.Warnings)
	}
	if !bytes.Equal(gotObj, wantObj) {
		t.Errorf("%s: object differs from a cold analysis", what)
	}
}

// TestWarmRestartSkipsCompileAndGenerate: a fresh engine over a reopened
// store analyzes stored programs with zero functions compiled and zero
// models generated, byte-equal to core.Analyze.
func TestWarmRestartSkipsCompileAndGenerate(t *testing.T) {
	dir := t.TempDir()
	progs := map[string]string{"minife.c": benchprogs.MiniFE, "stream.c": benchprogs.Stream, "fig5.c": benchprogs.Fig5}
	first := restartEngine(t, dir)
	for name, src := range progs {
		if _, err := first.AnalyzeCtx(context.Background(), name, src); err != nil {
			t.Fatal(err)
		}
	}
	warm := restartEngine(t, dir)
	for name, src := range progs {
		a, err := warm.AnalyzeCtx(context.Background(), name, src)
		if err != nil {
			t.Fatal(err)
		}
		if d := a.Delta(); d == nil || len(d.Compiled) != 0 {
			t.Errorf("%s: warm restart compiled and modeled %v", name, d)
		}
		sameAsCold(t, name, a, src)
	}
	s := samples(t, warm)
	if s["mira_incremental_misses_total"] != 0 || s["mira_store_misses_total"] != 0 || s["mira_store_errors_total"] != 0 {
		t.Errorf("warm restart: %v compiled, %v store misses, %v store errors; want 0, 0, 0",
			s["mira_incremental_misses_total"], s["mira_store_misses_total"], s["mira_store_errors_total"])
	}
	if s["mira_store_hits_total"] == 0 || s["mira_store_hits_total"] != s["mira_incremental_hits_total"] {
		t.Errorf("warm restart: %v store hits for %v reused functions", s["mira_store_hits_total"], s["mira_incremental_hits_total"])
	}
}

// TestCorruptModelSectionRebuildsOneFunction: an entry whose checksum is
// intact but whose model section does not decode is a store error and a
// miss for that one function — only it compiles and is modeled again, and
// the result still equals a cold analysis.
func TestCorruptModelSectionRebuildsOneFunction(t *testing.T) {
	dir := t.TempDir()
	if _, err := restartEngine(t, dir).AnalyzeCtx(context.Background(), "minife.c", benchprogs.MiniFE); err != nil {
		t.Fatal(err)
	}
	d, err := cachestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := funcKeysFor(t, "minife.c", benchprogs.MiniFE)["waxpby"]
	ent, ok := d.LoadFunc(key)
	if !ok {
		t.Fatal("waxpby entry not on disk")
	}
	ent.Model = ent.Model[:len(ent.Model)/2]
	if err := d.StoreFunc(key, ent); err != nil {
		t.Fatal(err)
	}

	e := restartEngine(t, dir)
	a, err := e.AnalyzeCtx(context.Background(), "minife.c", benchprogs.MiniFE)
	if err != nil {
		t.Fatal(err)
	}
	if d := a.Delta(); d == nil || !reflect.DeepEqual(d.Compiled, []string{"waxpby"}) {
		t.Errorf("rebuilt %v, want only waxpby", d)
	}
	if s := samples(t, e); s["mira_store_errors_total"] != 1 {
		t.Errorf("store errors = %v, want 1", s["mira_store_errors_total"])
	}
	sameAsCold(t, "minife.c", a, benchprogs.MiniFE)
	if fixed, ok := d.LoadFunc(key); !ok || len(fixed.Model) <= len(ent.Model) {
		t.Error("the rebuild did not repair the damaged entry")
	}
}

// TestPreviousFormatEntriesAreCleanMisses: a directory written by the
// previous format (version-3 magic, per-function entries holding only a
// unit) warms nothing and breaks nothing — every function is a clean
// miss, not a store error, and is rebuilt and rewritten in the current
// format.
func TestPreviousFormatEntriesAreCleanMisses(t *testing.T) {
	dir := t.TempDir()
	res, err := core.AnalyzeIncremental("minife.c", benchprogs.MiniFE, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := cachestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	v3 := fmt.Sprintf("MIRACS%d\n", 3)
	for _, art := range res.Artifacts {
		path := filepath.Join(d.Dir(), "funcs", art.Key[:2], art.Key+".mira")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		raw := encodeWithMagic(v3, []byte(art.Key), []byte(art.Name), core.EncodeUnit(art.Unit))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	e := restartEngine(t, dir)
	a, err := e.AnalyzeCtx(context.Background(), "minife.c", benchprogs.MiniFE)
	if err != nil {
		t.Fatal(err)
	}
	s := samples(t, e)
	if n := float64(len(res.Artifacts)); s["mira_store_misses_total"] != n || s["mira_store_errors_total"] != 0 || s["mira_store_hits_total"] != 0 {
		t.Errorf("v3 entries: %v misses, %v errors, %v hits; want %v, 0, 0",
			s["mira_store_misses_total"], s["mira_store_errors_total"], s["mira_store_hits_total"], n)
	}
	sameAsCold(t, "minife.c", a, benchprogs.MiniFE)
	warm := restartEngine(t, dir)
	if b, err := warm.AnalyzeCtx(context.Background(), "minife.c", benchprogs.MiniFE); err != nil || len(b.Delta().Compiled) != 0 {
		t.Errorf("entries were not rewritten in the current format: %v", err)
	}
}
