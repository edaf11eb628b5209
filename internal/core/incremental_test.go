package core_test

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/core"
	"mira/internal/expr"
	"mira/internal/model"
	"mira/internal/parser"
	"mira/internal/sema"
)

var incrPrograms = []struct {
	name string
	src  string
}{
	{"stream", benchprogs.Stream},
	{"dgemm", benchprogs.Dgemm},
	{"minife", benchprogs.MiniFE},
	{"fig5", benchprogs.Fig5},
	{"listing1", benchprogs.Listing1},
	{"listing2", benchprogs.Listing2},
	{"listing4", benchprogs.Listing4},
	{"listing5", benchprogs.Listing5},
	{"ablation", benchprogs.Ablation},
}

func mustProgram(t *testing.T, name, src string) *sema.Program {
	t.Helper()
	file, err := parser.ParseFile(name, src)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	prog, err := sema.Analyze(file)
	if err != nil {
		t.Fatalf("sema %s: %v", name, err)
	}
	return prog
}

// shiftLine inserts two spaces at the start of the 1-based line, a
// column-only mutation: it always lexes, and with position-sensitive
// AST hashing it changes the content of exactly the tokens on that
// line.
func shiftLine(src string, line int) string {
	lines := strings.Split(src, "\n")
	lines[line-1] = "  " + lines[line-1]
	return strings.Join(lines, "\n")
}

// mutationLine picks the line to shift for a function: the first body
// statement when there is one, else the body's opening brace.
func mutationLine(fi *sema.FuncInfo) int {
	if len(fi.Decl.Body.Stmts) > 0 {
		return fi.Decl.Body.Stmts[0].Pos().Line
	}
	return fi.Decl.Body.BracePos.Line
}

// reverseClosure returns target plus every function that reaches it
// through the static call graph — the set an edit to target may affect,
// and therefore exactly what an incremental analysis must recompile.
func reverseClosure(prog *sema.Program, target string) map[string]bool {
	callers := map[string][]string{}
	for q, fi := range prog.Funcs {
		for _, c := range fi.Callees {
			callers[c] = append(callers[c], q)
		}
	}
	out := map[string]bool{target: true}
	work := []string{target}
	for len(work) > 0 {
		q := work[len(work)-1]
		work = work[:len(work)-1]
		for _, caller := range callers[q] {
			if !out[caller] {
				out[caller] = true
				work = append(work, caller)
			}
		}
	}
	return out
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for q := range m {
		out = append(out, q)
	}
	sort.Strings(out)
	return out
}

// TestIncrementalMutationProperty is the correctness property of the
// incremental pipeline: for every benchmark program and every defined
// function, mutating that one function and re-analyzing against the
// artifacts of the original source must (a) produce byte-identical
// results to a cold analysis of the mutated source, and (b) recompile
// exactly the mutated function plus its transitive callers, reusing
// everything else.
func TestIncrementalMutationProperty(t *testing.T) {
	opts := core.Options{Lenient: true}
	for _, tc := range incrPrograms {
		t.Run(tc.name, func(t *testing.T) {
			orig, err := core.AnalyzeIncremental(tc.name, tc.src, opts, nil)
			if err != nil {
				t.Fatalf("cold incremental analyze: %v", err)
			}
			if len(orig.Delta.Reused) != 0 {
				t.Fatalf("nil lookup reused %v", orig.Delta.Reused)
			}
			byKey := map[string]*core.FuncArtifact{}
			for _, art := range orig.Artifacts {
				byKey[art.Key] = art
			}
			lookup := func(key string) (*core.FuncArtifact, bool) {
				art, ok := byKey[key]
				return art, ok
			}
			prog := mustProgram(t, tc.name, tc.src)

			for _, target := range prog.FuncOrder {
				fi := prog.Funcs[target]
				if fi.Decl.IsExtern {
					continue
				}
				mutated := shiftLine(tc.src, mutationLine(fi))
				if mutated == tc.src {
					t.Fatalf("%s: mutation did not change the source", target)
				}
				expected := reverseClosure(prog, target)

				incr, err := core.AnalyzeIncremental(tc.name, mutated, opts, lookup)
				if err != nil {
					t.Fatalf("%s: incremental analyze: %v", target, err)
				}
				cold, err := core.Analyze(tc.name, mutated, opts)
				if err != nil {
					t.Fatalf("%s: cold analyze: %v", target, err)
				}

				// (a) Byte-identical results.
				if got, want := incr.Pipeline.PythonModel(), cold.PythonModel(); got != want {
					t.Errorf("%s: incremental python model differs from cold", target)
				}
				gotObj, err := incr.Pipeline.EncodeObject()
				if err != nil {
					t.Fatalf("%s: encode incremental: %v", target, err)
				}
				wantObj, err := cold.EncodeObject()
				if err != nil {
					t.Fatalf("%s: encode cold: %v", target, err)
				}
				if !bytes.Equal(gotObj, wantObj) {
					t.Errorf("%s: incremental object bytes differ from cold", target)
				}
				if got, want := strings.Join(incr.Pipeline.Warnings, "\n"), strings.Join(cold.Warnings, "\n"); got != want {
					t.Errorf("%s: warnings differ: %q vs %q", target, got, want)
				}

				// (b) Recompiled exactly the reverse closure.
				gotCompiled := append([]string{}, incr.Delta.Compiled...)
				sort.Strings(gotCompiled)
				if want := sortedSet(expected); !equalStrings(gotCompiled, want) {
					t.Errorf("%s: recompiled %v, want %v", target, gotCompiled, want)
				}
				if got, want := len(incr.Delta.Reused)+len(incr.Delta.Compiled), len(prog.FuncOrder); got != want {
					t.Errorf("%s: delta covers %d functions, program has %d", target, got, want)
				}

				// Keys of untouched functions are stable; keys inside the
				// closure must change (that is what invalidates them).
				for _, q := range prog.FuncOrder {
					same := incr.Pipeline.FuncKeys[q] == orig.Pipeline.FuncKeys[q]
					if expected[q] && same {
						t.Errorf("%s: key of %s unchanged by mutation", target, q)
					}
					if !expected[q] && !same {
						t.Errorf("%s: key of untouched %s changed", target, q)
					}
				}
			}
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIncrementalIdenticalSourceReusesAll re-analyzes an unchanged
// source against its own artifacts: everything reuses, nothing
// compiles, and the results still match a cold run byte for byte.
func TestIncrementalIdenticalSourceReusesAll(t *testing.T) {
	opts := core.Options{Lenient: true}
	src := benchprogs.MiniFE
	orig, err := core.AnalyzeIncremental("minife", src, opts, nil)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	byKey := map[string]*core.FuncArtifact{}
	for _, art := range orig.Artifacts {
		byKey[art.Key] = art
	}
	again, err := core.AnalyzeIncremental("minife", src, opts, func(key string) (*core.FuncArtifact, bool) {
		art, ok := byKey[key]
		return art, ok
	})
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if len(again.Delta.Compiled) != 0 {
		t.Fatalf("unchanged source recompiled %v", again.Delta.Compiled)
	}
	if got, want := again.Pipeline.PythonModel(), orig.Pipeline.PythonModel(); got != want {
		t.Fatalf("warm python model differs from cold")
	}
}

// TestIncrementalUnitRoundTrip checks the store representation: every
// artifact encoded with EncodeUnit and EncodeModel and restored with
// DecodeArtifact must stand in for the original in a subsequent
// incremental analysis — nothing compiles, no model is generated, and the
// linked object, Python model, and warnings are byte-identical.
func TestIncrementalUnitRoundTrip(t *testing.T) {
	opts := core.Options{Lenient: true}
	for _, tc := range incrPrograms {
		orig, err := core.AnalyzeIncremental(tc.name, tc.src, opts, nil)
		if err != nil {
			t.Fatalf("%s: cold: %v", tc.name, err)
		}
		byKey := map[string]*core.FuncArtifact{}
		for _, art := range orig.Artifacts {
			got, err := core.DecodeArtifact(art.Key, core.EncodeUnit(art.Unit), core.EncodeModel(art))
			if err != nil {
				t.Fatalf("%s: round-trip %s: %v", tc.name, art.Name, err)
			}
			if got.Key != art.Key || got.Name != art.Name {
				t.Fatalf("%s: round-trip %s: identity %s/%s", tc.name, art.Name, got.Key, got.Name)
			}
			byKey[art.Key] = got
		}
		again, err := core.AnalyzeIncremental(tc.name, tc.src, opts, func(key string) (*core.FuncArtifact, bool) {
			art, ok := byKey[key]
			return art, ok
		})
		if err != nil {
			t.Fatalf("%s: warm: %v", tc.name, err)
		}
		if len(again.Delta.Compiled) != 0 {
			t.Fatalf("%s: round-tripped artifacts missed: rebuilt %v", tc.name, again.Delta.Compiled)
		}
		gotObj, err := again.Pipeline.EncodeObject()
		if err != nil {
			t.Fatalf("encode warm: %v", err)
		}
		wantObj, err := orig.Pipeline.EncodeObject()
		if err != nil {
			t.Fatalf("encode cold: %v", err)
		}
		if !bytes.Equal(gotObj, wantObj) {
			t.Errorf("%s: object bytes differ after artifact round trip", tc.name)
		}
		if got, want := again.Pipeline.PythonModel(), orig.Pipeline.PythonModel(); got != want {
			t.Errorf("%s: python model differs after artifact round trip", tc.name)
		}
		if got, want := strings.Join(again.Pipeline.Warnings, "\n"), strings.Join(orig.Pipeline.Warnings, "\n"); got != want {
			t.Errorf("%s: warnings differ after artifact round trip: %q vs %q", tc.name, got, want)
		}
	}
}

// TestDecodeArtifact: a stored artifact decodes only when both its unit
// and its model are intact and name the same function; anything else is
// an error the engine turns into a miss.
func TestDecodeArtifact(t *testing.T) {
	res, err := core.AnalyzeIncremental("minife", benchprogs.MiniFE, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	waxpby, cgSolve := res.Artifacts["waxpby"], res.Artifacts["cg_solve"]
	unit, fmodel := core.EncodeUnit(waxpby.Unit), core.EncodeModel(waxpby)
	if _, err := core.DecodeArtifact(waxpby.Key, unit, fmodel); err != nil {
		t.Fatalf("intact artifact: %v", err)
	}
	for name, c := range map[string][2][]byte{
		"truncated unit":  {unit[:len(unit)/2], fmodel},
		"truncated model": {unit, fmodel[:len(fmodel)/2]},
		"empty model":     {unit, nil},
		"mismatched pair": {unit, core.EncodeModel(cgSolve)},
	} {
		if _, err := core.DecodeArtifact(waxpby.Key, c[0], c[1]); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestIncrementalRejectsArtifactsThatDoNotFit: a looked-up artifact whose
// model names another function, or calls a function its source does not
// (a self-call would make evaluation exponential), is a miss — the
// function compiles and is modeled afresh — never a silently different
// model.
func TestIncrementalRejectsArtifactsThatDoNotFit(t *testing.T) {
	opts := core.Options{}
	orig, err := core.AnalyzeIncremental("minife", benchprogs.MiniFE, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	waxpby := orig.Artifacts["waxpby"]
	selfCall := *waxpby.Model
	selfCall.Calls = append([]*model.Call{{Callee: "waxpby", Mult: expr.Const(2)}}, selfCall.Calls...)
	for name, bad := range map[string]*model.Func{
		"another function's model": orig.Artifacts["cg_solve"].Model,
		"a call sema never saw":    &selfCall,
	} {
		again, err := core.AnalyzeIncremental("minife", benchprogs.MiniFE, opts, func(key string) (*core.FuncArtifact, bool) {
			for _, art := range orig.Artifacts {
				if art.Key == key && art != waxpby {
					return art, true
				}
			}
			return &core.FuncArtifact{Key: key, Name: "waxpby", Unit: waxpby.Unit, Model: bad}, true
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := again.Delta.Compiled; len(got) != 1 || got[0] != "waxpby" {
			t.Errorf("%s: compiled %v, want only waxpby", name, got)
		}
		if again.Pipeline.PythonModel() != orig.Pipeline.PythonModel() {
			t.Errorf("%s: model differs from a cold analysis", name)
		}
	}
}
