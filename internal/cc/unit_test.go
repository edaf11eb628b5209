package cc

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/ir"
	"mira/internal/objfile"
	"mira/internal/parser"
	"mira/internal/sema"
)

// TestDecodeUnitCountsCappedByInput: an instruction count the input
// cannot hold is refused before it sizes an allocation (a six-byte unit
// used to allocate for up to 16M instructions).
func TestDecodeUnitCountsCappedByInput(t *testing.T) {
	raw := []byte{1, 'f', 0xff, 0xff, 0xff, 0x07} // name "f", count 2^24-1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeUnitBytes(raw)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("err = %v, want a count refusal", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
		t.Errorf("refusing a hostile count allocated %d bytes", alloc)
	}
}

// benchUnits compiles every function of the benchprogs programs to units.
func benchUnits(t testing.TB) []*Unit {
	t.Helper()
	var out []*Unit
	for _, src := range []string{benchprogs.Stream, benchprogs.Dgemm, benchprogs.MiniFE, benchprogs.Fig5} {
		file, err := parser.ParseFile("bench.c", src)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := sema.Analyze(file)
		if err != nil {
			t.Fatal(err)
		}
		units, err := Units(prog, Options{SourceName: "bench.c"})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, units...)
	}
	return out
}

// symTail encodes the symbol section that ends a unit encoding, with
// fields as wide as the wire allows.
func symTail(name string, regs uint64, params []uint64, ret uint64, extern byte) []byte {
	b := binary.AppendUvarint(nil, uint64(len(name)))
	b = append(b, name...)
	b = binary.AppendUvarint(b, regs)
	b = binary.AppendUvarint(b, uint64(len(params)))
	for _, k := range params {
		b = binary.AppendUvarint(b, k)
	}
	b = binary.AppendUvarint(b, ret)
	return append(b, extern)
}

// TestDecodeUnitRejectsOutOfRangeFields: every field the wire can carry
// wider than its Go type is refused rather than truncated — an opcode
// past the opcode space used to wrap into a valid-looking one (65536+n
// decoded as opcode n), and an undefined opcode used to decode cleanly
// and then fail the whole analysis at link time.
func TestDecodeUnitRejectsOutOfRangeFields(t *testing.T) {
	var u *Unit
	for _, c := range benchUnits(t) {
		if len(c.Instrs) > 0 && len(c.Sym.Params) > 0 {
			u = c
			break
		}
	}
	raw := u.EncodeBytes()
	if got, err := DecodeUnitBytes(raw); err != nil || !bytes.Equal(got.EncodeBytes(), raw) {
		t.Fatalf("intact unit does not round-trip: %v", err)
	}
	// firstInstr re-encodes u with its first instruction's opcode and Rd
	// replaced by raw wire values.
	firstInstr := func(op uint64, rd int64) []byte {
		head := len(binary.AppendUvarint(nil, uint64(len(u.Name)))) + len(u.Name) +
			len(binary.AppendUvarint(nil, uint64(len(u.Instrs))))
		in := u.Instrs[0]
		old := len(binary.AppendUvarint(nil, uint64(in.Op))) + len(binary.AppendVarint(nil, int64(in.Rd)))
		b := append([]byte{}, raw[:head]...)
		b = binary.AppendVarint(binary.AppendUvarint(b, op), rd)
		return append(b, raw[head+old:]...)
	}
	kinds := func() []uint64 {
		var out []uint64
		for _, k := range u.Sym.Params {
			out = append(out, uint64(k))
		}
		return out
	}
	tail := symTail(u.Sym.Name, uint64(u.Sym.RegCount), kinds(), uint64(u.Sym.Ret), 0)
	if u.Sym.Extern || !bytes.HasSuffix(raw, tail) {
		t.Fatal("symTail does not match the unit encoding")
	}
	withTail := func(regs uint64, params []uint64, ret uint64) []byte {
		b := append([]byte{}, raw[:len(raw)-len(tail)]...)
		return append(b, symTail(u.Sym.Name, regs, params, ret, 0)...)
	}
	wide := kinds()
	wide[0] = 256 + uint64(objfile.KindFloat)
	cases := []struct {
		name string
		raw  []byte
		want string
	}{
		{"undefined opcode", firstInstr(60000, 0), "invalid opcode"},
		{"opcode past uint16", firstInstr(65536+uint64(ir.ADDSD), 0), "invalid opcode"},
		{"register past int32", firstInstr(uint64(ir.ADDSD), math.MaxInt32+1), "overflows int32"},
		{"register below int32", firstInstr(uint64(ir.ADDSD), math.MinInt32-1), "overflows int32"},
		{"register count past uint32", withTail(math.MaxUint32+1, kinds(), uint64(u.Sym.Ret)), "overflows uint32"},
		{"parameter kind past a byte", withTail(uint64(u.Sym.RegCount), wide, uint64(u.Sym.Ret)), "overflows a byte"},
		{"return kind past a byte", withTail(uint64(u.Sym.RegCount), kinds(), 256+uint64(u.Sym.Ret)), "overflows a byte"},
	}
	for _, c := range cases {
		if _, err := DecodeUnitBytes(c.raw); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

// FuzzDecodeUnit feeds arbitrary bytes to the unit decoder, seeded with
// every benchprogs unit. Decoding must never panic, must allocate in
// proportion to its input, and whatever decodes must round-trip: its
// re-encoding decodes to a unit that re-encodes to the same bytes.
func FuzzDecodeUnit(f *testing.F) {
	for _, u := range benchUnits(f) {
		f.Add(u.EncodeBytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		u, err := DecodeUnitBytes(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			return
		}
		once := u.EncodeBytes()
		u2, err := DecodeUnitBytes(once)
		if err != nil {
			t.Fatalf("re-encoded unit does not decode: %v", err)
		}
		if twice := u2.EncodeBytes(); !bytes.Equal(once, twice) {
			t.Fatal("re-encoding is not stable")
		}
	})
}
