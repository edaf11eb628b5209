package model_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/core"
	"mira/internal/expr"
	"mira/internal/ir"
	"mira/internal/model"
	"mira/internal/rational"
)

var codecPrograms = []struct{ name, src string }{
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

// dumpFunc renders every field of a function model — expressions through
// their String forms, maps in sorted key order — so two models compare
// equal exactly when they are the same model.
func dumpFunc(f *model.Func) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%q params=%q extern=%t annot=%q\n", f.Name, f.Params, f.Extern, f.AnnotParams)
	for _, s := range f.Sites {
		fmt.Fprintf(&sb, "site %+v\n", *s)
	}
	for _, c := range f.Calls {
		fmt.Fprintf(&sb, "call %+v\n", *c)
	}
	return sb.String()
}

// richFunc exercises every expression node, both rational forms, nil
// and present call arguments, and per-opcode counts.
func richFunc() *model.Func {
	bigInt, err := rational.FromFloat(1e300)
	if err != nil {
		panic(err)
	}
	bigFrac, err := rational.FromFloat(-1e-300)
	if err != nil {
		panic(err)
	}
	n, m := expr.P("n"), expr.P("m")
	body := expr.NewAdd(expr.NewMul(expr.V("i"), n), expr.ConstRat(rational.FromFrac(-7, 3)))
	return &model.Func{
		Name:   "A::rich",
		Params: []string{"n", "m"},
		Sites: []*model.Site{{
			Line: 3, Col: 9, Desc: "s = s + x[i]",
			Ops:  []ir.OpN{{Op: ir.ADDSD, N: 2}, {Op: ir.MULSD, N: 1 << 40}},
			Mult: expr.Sum{Var: "i", Lo: expr.Const(0), Hi: expr.NewSub(n, expr.Const(1)), Body: body},
		}, {
			Line: 4, Desc: "guard",
			Mult: expr.NewAdd(expr.NewFloorDiv(n, rational.FromInt(4)), expr.NewMin(n, m), expr.NewMax(n, expr.Const(2)), expr.NewMul(expr.ConstRat(bigInt), m), expr.ConstRat(bigFrac)),
		}},
		Calls: []*model.Call{{
			Callee: "leaf", Line: 16, Col: 2, Mult: n,
			Args:     map[string]expr.Expr{"x": nil, "y": expr.NewMul(expr.Const(2), m)},
			ArgOrder: []string{"y", "x"},
		}},
		AnnotParams: []string{"m"},
	}
}

// benchFuncs analyzes every benchprogs program and returns each function
// model with its warnings, plus the whole pipelines.
func benchPipelines(t testing.TB) []*core.Pipeline {
	t.Helper()
	var out []*core.Pipeline
	for _, p := range codecPrograms {
		pl, err := core.Analyze(p.name+".c", p.src, core.Options{Lenient: true})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		out = append(out, pl)
	}
	return out
}

// TestFuncCodecRoundTrip: every benchprogs model and the hand-built
// rich model decode to the same model, re-encode to the same bytes, and
// reassemble into a byte-identical Python model.
func TestFuncCodecRoundTrip(t *testing.T) {
	check := func(what string, f *model.Func, warns []string) *model.Func {
		t.Helper()
		raw := model.EncodeFunc(f, warns)
		got, gotWarns, err := model.DecodeFunc(raw)
		if err != nil {
			t.Fatalf("%s: decode: %v", what, err)
		}
		if dumpFunc(got) != dumpFunc(f) {
			t.Errorf("%s: decoded model differs:\n%s\nwant\n%s", what, dumpFunc(got), dumpFunc(f))
		}
		if fmt.Sprint(gotWarns) != fmt.Sprint(warns) {
			t.Errorf("%s: warnings %q, want %q", what, gotWarns, warns)
		}
		if again := model.EncodeFunc(got, gotWarns); !bytes.Equal(again, raw) {
			t.Errorf("%s: re-encoding differs", what)
		}
		return got
	}
	check("rich", richFunc(), []string{"a warning", ""})
	for _, pl := range benchPipelines(t) {
		m := &model.Model{SourceName: pl.Model.SourceName, Funcs: map[string]*model.Func{}, Order: pl.Model.Order}
		for _, q := range pl.Model.Order {
			m.Funcs[q] = check(pl.Name+":"+q, pl.Model.Funcs[q], pl.Warnings)
		}
		if m.EmitPython() != pl.PythonModel() {
			t.Errorf("%s: decoded Python model differs", pl.Name)
		}
	}
}

// TestDecodeFuncRejectsDefects: truncation at every length, trailing
// bytes, and hand-crafted hostile encodings are errors, never panics.
func TestDecodeFuncRejectsDefects(t *testing.T) {
	raw := model.EncodeFunc(richFunc(), []string{"w"})
	for n := 0; n < len(raw); n++ {
		if _, _, err := model.DecodeFunc(raw[:n]); err == nil {
			t.Errorf("truncated to %d of %d bytes accepted", n, len(raw))
		}
	}
	if _, _, err := model.DecodeFunc(append(append([]byte{}, raw...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}

	// pad keeps counts plausible, so each case fails where it says.
	pad := func(b []byte) []byte { return append(b, make([]byte, 16+ir.NumCategories)...) }
	// A function "f" with no params, not extern, and one site whose
	// fields from its opcode count on are tail.
	site := func(tail ...byte) []byte {
		return pad(append([]byte{1, 'f', 0, 0, 1, 2, 2, 0}, tail...))
	}
	// ops encodes an opcode count list (op, zigzag count) as a site tail.
	ops := func(entries ...int64) []byte {
		b := binary.AppendUvarint(nil, uint64(len(entries)/2))
		for i := 0; i < len(entries); i += 2 {
			b = binary.AppendVarint(binary.AppendUvarint(b, uint64(entries[i])), entries[i+1])
		}
		return site(append(b, 2, 0)...) // then the multiplicity: parameter ""
	}
	deep := site(0)[:9] // no ops
	for i := 0; i < 100000; i++ {
		deep = append(deep, 4, 1) // Add of one operand, nested
	}
	cases := []struct {
		name string
		raw  []byte
		want string
	}{
		{"huge site count", []byte{1, 'f', 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, "count"},
		{"count past the end", []byte{1, 'f', 0, 0, 100}, "count"},
		{"huge string length", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, "truncated string"},
		{"bad extern byte", []byte{1, 'f', 0, 7, 0}, "boolean"},
		{"invalid opcode", site(1, 0xff, 0xff, 0x03, 1), "opcode"},
		{"unsorted opcodes", ops(int64(ir.MULSD), 1, int64(ir.ADDSD), 1), "unsorted opcode"},
		{"duplicate opcode", ops(int64(ir.ADDSD), 1, int64(ir.ADDSD), 1), "unsorted opcode"},
		{"zero count", ops(int64(ir.ADDSD), 0), "bad count"},
		{"negative count", ops(int64(ir.ADDSD), -1), "bad count"},
		{"site total past int64", ops(int64(ir.ADDSD), math.MaxInt64, int64(ir.MULSD), 1), "bad count"},
		{"deep nesting", deep, "nested deeper"},
		{"bad expression tag", site(0, 99), "tag"},
		{"empty operand list", site(0, 4, 0), "empty operand"},
		{"floor division by zero", site(0, 6, 2, 0, 0, 0, 1), "division by zero"},
		{"zero denominator", site(0, 1, 0, 2, 0), "denominator"},
		{"big zero denominator", site(0, 1, 1, 0, 1, 1, 0), "denominator"},
		{"trailing bytes", site(0, 2, 0, 0, 0, 0), "trailing"},
	}
	for _, c := range cases {
		_, _, err := model.DecodeFunc(c.raw)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

// FuzzDecodeFunc feeds arbitrary bytes to the model decoder, seeded with
// real encodings. Decoding must never panic, must allocate in proportion
// to its input, and whatever decodes must round-trip: its re-encoding
// decodes to a model that re-encodes to the same bytes.
func FuzzDecodeFunc(f *testing.F) {
	f.Add(model.EncodeFunc(richFunc(), []string{"w"}))
	for _, pl := range benchPipelines(f) {
		for _, q := range pl.Model.Order {
			f.Add(model.EncodeFunc(pl.Model.Funcs[q], pl.Warnings))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fm, warns, err := model.DecodeFunc(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			return
		}
		once := model.EncodeFunc(fm, warns)
		fm2, warns2, err := model.DecodeFunc(once)
		if err != nil {
			t.Fatalf("re-encoded model does not decode: %v", err)
		}
		if twice := model.EncodeFunc(fm2, warns2); !bytes.Equal(once, twice) {
			t.Fatal("re-encoding is not stable")
		}
		if dumpFunc(fm2) != dumpFunc(fm) {
			t.Fatal("round trip changed the model")
		}
	})
}

// BenchmarkFuncCodec times the model section of a per-function store
// entry for every miniFE function: encoding on a store write, decoding
// on a warm restart or peer hit (the work that replaces metric
// generation there).
func BenchmarkFuncCodec(b *testing.B) {
	pl, err := core.Analyze("minife.c", benchprogs.MiniFE, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var raws [][]byte
	size := 0
	for _, q := range pl.Model.Order {
		raw := model.EncodeFunc(pl.Model.Funcs[q], nil)
		raws = append(raws, raw)
		size += len(raw)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(size))
		for i := 0; i < b.N; i++ {
			for _, q := range pl.Model.Order {
				model.EncodeFunc(pl.Model.Funcs[q], nil)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(size))
		for i := 0; i < b.N; i++ {
			for _, raw := range raws {
				if _, _, err := model.DecodeFunc(raw); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
