// Package objfile implements Mira's ELF-like object file container.
//
// The compiler serializes its output into this format and every downstream
// consumer — the disassembler feeding the binary AST, the bridge, and the
// virtual machine — works from the decoded bytes, not from in-memory
// compiler structures. That separation mirrors the paper's pipeline, where
// ROSE disassembles an on-disk ELF produced by an ordinary compiler.
//
// Layout (all little-endian):
//
//	magic "MIRA", version u16, section count u16
//	section table: {name string, offset u64, size u64} ...
//	sections: .text, .symtab, .data, .debug_line, .meta
//
// Strings are uvarint-length-prefixed UTF-8.
package objfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"mira/internal/dwarfline"
	"mira/internal/ir"
)

// Magic identifies Mira object files.
var Magic = [4]byte{'M', 'I', 'R', 'A'}

// Version is the current format version.
const Version uint16 = 1

// InstrBytes is the fixed encoded instruction size.
const InstrBytes = 24

// ParamKind describes a parameter or return slot type.
type ParamKind uint8

// Parameter kinds.
const (
	KindVoid  ParamKind = iota
	KindInt             // integers and pointers
	KindFloat           // doubles
)

func (k ParamKind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "double"
	}
	return "void"
}

// Symbol describes one function in .text.
type Symbol struct {
	Name     string // qualified source name, e.g. "A::foo" or "main"
	Start    uint64 // first instruction index in .text
	Count    uint64 // number of instructions
	RegCount uint32 // virtual registers used
	Params   []ParamKind
	Ret      ParamKind
	Extern   bool // library function: body invisible to static analysis
}

// End returns one past the last instruction index.
func (s Symbol) End() uint64 { return s.Start + s.Count }

// DataEntry describes one global memory object.
type DataEntry struct {
	Name string
	Addr uint64   // word address
	Size uint64   // words
	Init []uint64 // initial word values; len 0 (zeroed) or Size
}

// File is a decoded object file.
type File struct {
	SourceName string
	Text       []ir.Instr
	Syms       []Symbol
	Data       []DataEntry
	MemWords   uint64 // static memory size (globals); heap begins here
	Line       *dwarfline.Table
}

// LookupSym finds a symbol by name.
func (f *File) LookupSym(name string) (*Symbol, bool) {
	for i := range f.Syms {
		if f.Syms[i].Name == name {
			return &f.Syms[i], true
		}
	}
	return nil, false
}

// SymAt returns the symbol containing instruction index addr.
func (f *File) SymAt(addr uint64) (*Symbol, bool) {
	for i := range f.Syms {
		if addr >= f.Syms[i].Start && addr < f.Syms[i].End() {
			return &f.Syms[i], true
		}
	}
	return nil, false
}

// FuncText returns the instruction slice of sym.
func (f *File) FuncText(sym *Symbol) []ir.Instr {
	return f.Text[sym.Start:sym.End()]
}

// ---------------------------------------------------------------------------
// Encoding

type countingWriter struct {
	w io.Writer
	n uint64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += uint64(n)
	return n, err
}

func putString(buf *bytes.Buffer, s string) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(s)))
	buf.Write(tmp[:n])
	buf.WriteString(s)
}

func putUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

// Encode serializes the file.
func (f *File) Encode(w io.Writer) error {
	text := encodeText(f.Text)
	symtab := encodeSyms(f.Syms)
	data := encodeData(f.Data)
	var line []byte
	if f.Line != nil {
		line = f.Line.Encode()
	}
	meta := encodeMeta(f)

	sections := []struct {
		name string
		body []byte
	}{
		{".text", text},
		{".symtab", symtab},
		{".data", data},
		{".debug_line", line},
		{".meta", meta},
	}

	var hdr bytes.Buffer
	hdr.Write(Magic[:])
	if err := binary.Write(&hdr, binary.LittleEndian, Version); err != nil {
		return err
	}
	if err := binary.Write(&hdr, binary.LittleEndian, uint16(len(sections))); err != nil {
		return err
	}
	// Section table with offsets relative to file start.
	var table bytes.Buffer
	offset := uint64(0)
	var tableSize uint64
	// Two passes: the table size depends on name lengths only, so compute
	// it first.
	for _, s := range sections {
		var tmp bytes.Buffer
		putString(&tmp, s.name)
		tableSize += uint64(tmp.Len()) + 16
	}
	base := uint64(hdr.Len()) + tableSize
	for _, s := range sections {
		putString(&table, s.name)
		if err := binary.Write(&table, binary.LittleEndian, base+offset); err != nil {
			return err
		}
		if err := binary.Write(&table, binary.LittleEndian, uint64(len(s.body))); err != nil {
			return err
		}
		offset += uint64(len(s.body))
	}
	cw := &countingWriter{w: w}
	if _, err := cw.Write(hdr.Bytes()); err != nil {
		return err
	}
	if _, err := cw.Write(table.Bytes()); err != nil {
		return err
	}
	for _, s := range sections {
		if _, err := cw.Write(s.body); err != nil {
			return err
		}
	}
	return nil
}

func encodeText(instrs []ir.Instr) []byte {
	out := make([]byte, 0, len(instrs)*InstrBytes)
	var b [InstrBytes]byte
	for _, in := range instrs {
		binary.LittleEndian.PutUint16(b[0:], uint16(in.Op))
		binary.LittleEndian.PutUint16(b[2:], 0)
		binary.LittleEndian.PutUint32(b[4:], uint32(in.Rd))
		binary.LittleEndian.PutUint32(b[8:], uint32(in.Rs1))
		binary.LittleEndian.PutUint32(b[12:], uint32(in.Rs2))
		binary.LittleEndian.PutUint64(b[16:], uint64(in.Imm))
		out = append(out, b[:]...)
	}
	return out
}

func encodeSyms(syms []Symbol) []byte {
	var buf bytes.Buffer
	putUvarint(&buf, uint64(len(syms)))
	for _, s := range syms {
		putString(&buf, s.Name)
		putUvarint(&buf, s.Start)
		putUvarint(&buf, s.Count)
		putUvarint(&buf, uint64(s.RegCount))
		putUvarint(&buf, uint64(len(s.Params)))
		for _, p := range s.Params {
			buf.WriteByte(byte(p))
		}
		buf.WriteByte(byte(s.Ret))
		if s.Extern {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
	}
	return buf.Bytes()
}

func encodeData(data []DataEntry) []byte {
	var buf bytes.Buffer
	putUvarint(&buf, uint64(len(data)))
	for _, d := range data {
		putString(&buf, d.Name)
		putUvarint(&buf, d.Addr)
		putUvarint(&buf, d.Size)
		putUvarint(&buf, uint64(len(d.Init)))
		for _, v := range d.Init {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			buf.Write(b[:])
		}
	}
	return buf.Bytes()
}

func encodeMeta(f *File) []byte {
	var buf bytes.Buffer
	putString(&buf, f.SourceName)
	putUvarint(&buf, f.MemWords)
	return buf.Bytes()
}

// ---------------------------------------------------------------------------
// Decoding

type reader struct {
	b   []byte
	off int
}

func (r *reader) remain() int { return len(r.b) - r.off }

// bytes takes the next n bytes. n is compared as uint64, so a length
// uvarint too large for int is a truncation error, not a negative slice
// bound.
func (r *reader) bytes(n uint64) ([]byte, error) {
	if uint64(r.remain()) < n {
		return nil, fmt.Errorf("objfile: truncated (need %d bytes, have %d)", n, r.remain())
	}
	out := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return out, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("objfile: bad uvarint at %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// count reads an element count and refuses any the remaining bytes
// cannot hold at min bytes per element, so a hostile count is an error
// before it sizes an allocation.
func (r *reader) count(min int) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.remain()/min) {
		return 0, fmt.Errorf("objfile: count %d exceeds the %d bytes left", n, r.remain())
	}
	return int(n), nil
}

// Decode parses an object file.
func Decode(data []byte) (*File, error) {
	r := &reader{b: data}
	magic, err := r.bytes(4)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(magic, Magic[:]) {
		return nil, fmt.Errorf("objfile: bad magic %q", magic)
	}
	verB, err := r.bytes(2)
	if err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint16(verB); v != Version {
		return nil, fmt.Errorf("objfile: unsupported version %d", v)
	}
	cntB, err := r.bytes(2)
	if err != nil {
		return nil, err
	}
	nsec := int(binary.LittleEndian.Uint16(cntB))
	const minSecBytes = 17 // empty name + offset + size
	if nsec > r.remain()/minSecBytes {
		return nil, fmt.Errorf("objfile: %d sections exceed the %d bytes left", nsec, r.remain())
	}
	type sec struct {
		name string
		off  uint64
		size uint64
	}
	secs := make([]sec, nsec)
	for i := range secs {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		offB, err := r.bytes(8)
		if err != nil {
			return nil, err
		}
		sizeB, err := r.bytes(8)
		if err != nil {
			return nil, err
		}
		secs[i] = sec{name, binary.LittleEndian.Uint64(offB), binary.LittleEndian.Uint64(sizeB)}
	}
	body := func(name string) ([]byte, error) {
		for _, s := range secs {
			if s.name == name {
				if s.off > uint64(len(data)) || s.size > uint64(len(data))-s.off {
					return nil, fmt.Errorf("objfile: section %s out of bounds", name)
				}
				return data[s.off : s.off+s.size], nil
			}
		}
		return nil, fmt.Errorf("objfile: missing section %s", name)
	}

	f := &File{}
	textB, err := body(".text")
	if err != nil {
		return nil, err
	}
	if f.Text, err = decodeText(textB); err != nil {
		return nil, err
	}
	symB, err := body(".symtab")
	if err != nil {
		return nil, err
	}
	if f.Syms, err = decodeSyms(symB); err != nil {
		return nil, err
	}
	dataB, err := body(".data")
	if err != nil {
		return nil, err
	}
	if f.Data, err = decodeData(dataB); err != nil {
		return nil, err
	}
	lineB, err := body(".debug_line")
	if err != nil {
		return nil, err
	}
	if len(lineB) > 0 {
		if f.Line, err = dwarfline.Decode(lineB); err != nil {
			return nil, err
		}
	}
	metaB, err := body(".meta")
	if err != nil {
		return nil, err
	}
	mr := &reader{b: metaB}
	if f.SourceName, err = mr.str(); err != nil {
		return nil, err
	}
	if f.MemWords, err = mr.uvarint(); err != nil {
		return nil, err
	}
	return f, nil
}

func decodeText(b []byte) ([]ir.Instr, error) {
	if len(b)%InstrBytes != 0 {
		return nil, fmt.Errorf("objfile: .text size %d not a multiple of %d", len(b), InstrBytes)
	}
	out := make([]ir.Instr, len(b)/InstrBytes)
	for i := range out {
		p := b[i*InstrBytes:]
		out[i] = ir.Instr{
			Op:  ir.Op(binary.LittleEndian.Uint16(p[0:])),
			Rd:  int32(binary.LittleEndian.Uint32(p[4:])),
			Rs1: int32(binary.LittleEndian.Uint32(p[8:])),
			Rs2: int32(binary.LittleEndian.Uint32(p[12:])),
			Imm: int64(binary.LittleEndian.Uint64(p[16:])),
		}
		if !out[i].Op.Valid() {
			return nil, fmt.Errorf("objfile: invalid opcode %d at instruction %d", out[i].Op, i)
		}
	}
	return out, nil
}

func decodeSyms(b []byte) ([]Symbol, error) {
	r := &reader{b: b}
	const minSymBytes = 7 // empty name, four uvarints, return kind, extern flag
	n, err := r.count(minSymBytes)
	if err != nil {
		return nil, err
	}
	syms := make([]Symbol, n)
	for i := range syms {
		s := &syms[i]
		if s.Name, err = r.str(); err != nil {
			return nil, err
		}
		if s.Start, err = r.uvarint(); err != nil {
			return nil, err
		}
		if s.Count, err = r.uvarint(); err != nil {
			return nil, err
		}
		rc, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		s.RegCount = uint32(rc)
		np, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		pb, err := r.bytes(np)
		if err != nil {
			return nil, err
		}
		s.Params = make([]ParamKind, np)
		for j := range s.Params {
			s.Params[j] = ParamKind(pb[j])
		}
		rb, err := r.bytes(2)
		if err != nil {
			return nil, err
		}
		s.Ret = ParamKind(rb[0])
		s.Extern = rb[1] != 0
	}
	return syms, nil
}

func decodeData(b []byte) ([]DataEntry, error) {
	r := &reader{b: b}
	const minDataBytes = 4 // empty name and three uvarints
	n, err := r.count(minDataBytes)
	if err != nil {
		return nil, err
	}
	out := make([]DataEntry, n)
	for i := range out {
		d := &out[i]
		if d.Name, err = r.str(); err != nil {
			return nil, err
		}
		if d.Addr, err = r.uvarint(); err != nil {
			return nil, err
		}
		if d.Size, err = r.uvarint(); err != nil {
			return nil, err
		}
		ni, err := r.count(8)
		if err != nil {
			return nil, err
		}
		if ni > 0 {
			ib, err := r.bytes(uint64(ni) * 8)
			if err != nil {
				return nil, err
			}
			d.Init = make([]uint64, ni)
			for j := range d.Init {
				d.Init[j] = binary.LittleEndian.Uint64(ib[j*8:])
			}
		}
	}
	return out, nil
}
