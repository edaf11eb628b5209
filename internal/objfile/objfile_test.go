package objfile

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"mira/internal/dwarfline"
	"mira/internal/ir"
)

func sampleFile() *File {
	var lb dwarfline.Builder
	lb.Add(0, 1, 1)
	lb.Add(2, 3, 5)
	return &File{
		SourceName: "sample.c",
		Text: []ir.Instr{
			{Op: ir.PUSH, Rd: ir.NoReg, Rs1: ir.NoReg, Rs2: ir.NoReg},
			{Op: ir.MOVRI, Rd: 0, Rs1: ir.NoReg, Rs2: ir.NoReg, Imm: 42},
			{Op: ir.RETI, Rd: ir.NoReg, Rs1: 0, Rs2: ir.NoReg},
			{Op: ir.ADDSD, Rd: 2, Rs1: 0, Rs2: 1},
			{Op: ir.RETF, Rd: ir.NoReg, Rs1: 2, Rs2: ir.NoReg},
		},
		Syms: []Symbol{
			{Name: "main", Start: 0, Count: 3, RegCount: 1, Ret: KindInt},
			{Name: "lib::f", Start: 3, Count: 2, RegCount: 3,
				Params: []ParamKind{KindFloat, KindFloat}, Ret: KindFloat, Extern: true},
		},
		Data: []DataEntry{
			{Name: "g", Addr: 0, Size: 1, Init: []uint64{7}},
			{Name: "arr", Addr: 1, Size: 8},
		},
		MemWords: 9,
		Line:     lb.Table(),
	}
}

func TestRoundTrip(t *testing.T) {
	f := sampleFile()
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if g.SourceName != f.SourceName || g.MemWords != f.MemWords {
		t.Errorf("meta mismatch: %+v", g)
	}
	if len(g.Text) != len(f.Text) {
		t.Fatalf("text len = %d", len(g.Text))
	}
	for i := range f.Text {
		if g.Text[i] != f.Text[i] {
			t.Errorf("instr %d = %+v, want %+v", i, g.Text[i], f.Text[i])
		}
	}
	if len(g.Syms) != 2 || g.Syms[1].Name != "lib::f" || !g.Syms[1].Extern {
		t.Errorf("syms = %+v", g.Syms)
	}
	if len(g.Syms[1].Params) != 2 || g.Syms[1].Params[0] != KindFloat {
		t.Errorf("params = %+v", g.Syms[1].Params)
	}
	if len(g.Data) != 2 || g.Data[0].Init[0] != 7 || g.Data[1].Size != 8 {
		t.Errorf("data = %+v", g.Data)
	}
	if g.Line == nil || len(g.Line.Rows) != 2 {
		t.Errorf("line table = %+v", g.Line)
	}
}

func TestLookupHelpers(t *testing.T) {
	f := sampleFile()
	sym, ok := f.LookupSym("lib::f")
	if !ok || sym.Start != 3 {
		t.Errorf("LookupSym = %+v/%t", sym, ok)
	}
	if _, ok := f.LookupSym("nope"); ok {
		t.Error("found nonexistent symbol")
	}
	at, ok := f.SymAt(4)
	if !ok || at.Name != "lib::f" {
		t.Errorf("SymAt(4) = %+v", at)
	}
	if _, ok := f.SymAt(99); ok {
		t.Error("SymAt past end succeeded")
	}
	text := f.FuncText(sym)
	if len(text) != 2 || text[0].Op != ir.ADDSD {
		t.Errorf("FuncText = %+v", text)
	}
}

func TestDecodeErrors(t *testing.T) {
	f := sampleFile()
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Bad magic.
	bad := append([]byte{}, good...)
	bad[0] = 'X'
	if _, err := Decode(bad); err == nil {
		t.Error("bad magic accepted")
	}
	// Bad version.
	bad = append([]byte{}, good...)
	bad[4] = 99
	if _, err := Decode(bad); err == nil {
		t.Error("bad version accepted")
	}
	// Truncations at every prefix length must error, not panic.
	for n := 0; n < len(good)-1; n += 7 {
		if _, err := Decode(good[:n]); err == nil {
			t.Errorf("truncated to %d bytes accepted", n)
		}
	}
}

func TestInvalidOpcodeRejected(t *testing.T) {
	f := sampleFile()
	f.Text[1].Op = ir.Op(60000)
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(buf.Bytes()); err == nil {
		t.Error("invalid opcode accepted")
	}
}

func TestFuzzDecodeNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := sampleFile()
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for trial := 0; trial < 500; trial++ {
		mut := append([]byte{}, data...)
		for k := 0; k < 1+rng.Intn(8); k++ {
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		}
		// Must never panic; errors are fine.
		Decode(mut)
	}
}

// TestDecodeHostileLengths pins two decoder defects: a length uvarint
// that turned negative when converted to int panicked with "slice bounds
// out of range", and unchecked counts sized allocations before any
// element was read. Both must now be clean errors.
func TestDecodeHostileLengths(t *testing.T) {
	if _, err := Decode([]byte("MIRA\x01\x0000\xff\xff\xff\xff\xff\xff\xff\xff\xc0\x01")); err == nil {
		t.Error("negative string length accepted")
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, err := decodeSyms(huge); err == nil {
		t.Error("huge symbol count accepted")
	}
	if _, err := decodeSyms(append([]byte{1, 1, 'f', 0, 0, 0}, huge...)); err == nil {
		t.Error("huge parameter count accepted")
	}
	if _, err := decodeData(huge); err == nil {
		t.Error("huge data count accepted")
	}
	if _, err := decodeData(append([]byte{1, 1, 'g', 0, 8}, huge...)); err == nil {
		t.Error("huge data initializer count accepted")
	}
	// A section whose offset plus size wraps around uint64.
	hdr := []byte("MIRA\x01\x00\x01\x00\x05.text")
	hdr = binary.LittleEndian.AppendUint64(hdr, ^uint64(0))
	hdr = binary.LittleEndian.AppendUint64(hdr, 2)
	if _, err := Decode(hdr); err == nil {
		t.Error("wrapping section bounds accepted")
	}
}

// FuzzDecode feeds arbitrary bytes to the object decoder, seeded with a
// real encoding and the hostile-length regression. Decoding must never
// panic, must allocate in proportion to its input, and whatever decodes
// must re-encode to bytes that decode again to the same encoding.
func FuzzDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := sampleFile().Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("MIRA\x01\x0000\xff\xff\xff\xff\xff\xff\xff\xff\xc0\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		obj, err := Decode(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := obj.Encode(&once); err != nil {
			t.Fatalf("decoded file does not re-encode: %v", err)
		}
		again, err := Decode(once.Bytes())
		if err != nil {
			t.Fatalf("re-encoded file does not decode: %v", err)
		}
		if err := again.Encode(&twice); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("re-encoding is not stable (err %v)", err)
		}
	})
}
