package cc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"mira/internal/ir"
	"mira/internal/objfile"
	"mira/internal/token"
)

// Unit byte encoding — the portable form a persistent cache stores under
// a function-content key. The format is deliberately simple (varint
// fields, length-prefixed strings) and fully validated on decode; any
// defect is an error the caller treats as a cache miss. Framing version
// changes ride on the store's magic, not on this encoding.

func putUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func putVarint(buf *bytes.Buffer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func putString(buf *bytes.Buffer, s string) {
	putUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

// EncodeBytes serializes the unit.
func (u *Unit) EncodeBytes() []byte {
	var buf bytes.Buffer
	putString(&buf, u.Name)
	putUvarint(&buf, uint64(len(u.Instrs)))
	for _, in := range u.Instrs {
		putUvarint(&buf, uint64(in.Op))
		putVarint(&buf, int64(in.Rd))
		putVarint(&buf, int64(in.Rs1))
		putVarint(&buf, int64(in.Rs2))
		putVarint(&buf, in.Imm)
	}
	for _, p := range u.Tags {
		putVarint(&buf, int64(p.Line))
		putVarint(&buf, int64(p.Col))
	}
	idxs := make([]int, 0, len(u.Calls))
	for idx := range u.Calls {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	putUvarint(&buf, uint64(len(idxs)))
	for _, idx := range idxs {
		putUvarint(&buf, uint64(idx))
		putString(&buf, u.Calls[idx])
	}
	putString(&buf, u.Sym.Name)
	putUvarint(&buf, uint64(u.Sym.RegCount))
	putUvarint(&buf, uint64(len(u.Sym.Params)))
	for _, k := range u.Sym.Params {
		putUvarint(&buf, uint64(k))
	}
	putUvarint(&buf, uint64(u.Sym.Ret))
	if u.Sym.Extern {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	return buf.Bytes()
}

type unitReader struct {
	b   []byte
	err error
}

func (r *unitReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = fmt.Errorf("cc: unit decode: bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *unitReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.err = fmt.Errorf("cc: unit decode: bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// int32 reads a varint that must fit an int32 field.
func (r *unitReader) int32() int32 {
	v := r.varint()
	if r.err == nil && int64(int32(v)) != v {
		r.err = fmt.Errorf("cc: unit decode: value %d overflows int32", v)
	}
	return int32(v)
}

// uint32 reads a uvarint that must fit a uint32 field.
func (r *unitReader) uint32() uint32 {
	v := r.uvarint()
	if r.err == nil && v > math.MaxUint32 {
		r.err = fmt.Errorf("cc: unit decode: value %d overflows uint32", v)
	}
	return uint32(v)
}

// op reads an opcode, refusing any that is not a defined one: a value
// past the opcode space would otherwise truncate into a valid-looking
// opcode, and an undefined one would fail the whole analysis at link
// time instead of this one function's store entry.
func (r *unitReader) op() ir.Op {
	v := r.uvarint()
	if r.err == nil && (v > math.MaxUint16 || !ir.Op(v).Valid()) {
		r.err = fmt.Errorf("cc: unit decode: invalid opcode %d", v)
	}
	return ir.Op(v)
}

// kind reads a parameter kind, which is one byte wide.
func (r *unitReader) kind() objfile.ParamKind {
	v := r.uvarint()
	if r.err == nil && v > math.MaxUint8 {
		r.err = fmt.Errorf("cc: unit decode: parameter kind %d overflows a byte", v)
	}
	return objfile.ParamKind(v)
}

func (r *unitReader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)) < n {
		r.err = fmt.Errorf("cc: unit decode: truncated string")
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// DecodeUnitBytes deserializes and validates a unit encoded by
// EncodeBytes. Any framing defect returns an error.
func DecodeUnitBytes(raw []byte) (*Unit, error) {
	r := &unitReader{b: raw}
	u := &Unit{Name: r.string()}
	n := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	// Refuse counts the input cannot hold before allocating: every
	// instruction takes at least five bytes (opcode and four varints) and
	// its position tag two more.
	const minInstrBytes = 7
	if n > uint64(len(r.b)/minInstrBytes) {
		return nil, fmt.Errorf("cc: unit decode: instruction count %d exceeds the %d bytes left", n, len(r.b))
	}
	u.Instrs = make([]ir.Instr, n)
	for i := range u.Instrs {
		u.Instrs[i] = ir.Instr{Op: r.op(), Rd: r.int32(), Rs1: r.int32(), Rs2: r.int32(), Imm: r.varint()}
	}
	u.Tags = make([]token.Pos, n)
	for i := range u.Tags {
		u.Tags[i] = token.Pos{Line: int(r.varint()), Col: int(r.varint())}
	}
	nc := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if nc > n {
		return nil, fmt.Errorf("cc: unit decode: %d calls for %d instructions", nc, n)
	}
	u.Calls = make(map[int]string, nc)
	for i := uint64(0); i < nc; i++ {
		idx := r.uvarint()
		name := r.string()
		if r.err != nil {
			return nil, r.err
		}
		if idx >= n {
			return nil, fmt.Errorf("cc: unit decode: call index %d out of range", idx)
		}
		u.Calls[int(idx)] = name
	}
	u.Sym.Name = r.string()
	u.Sym.RegCount = r.uint32()
	np := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if np > 1<<16 {
		return nil, fmt.Errorf("cc: unit decode: parameter count %d too large", np)
	}
	u.Sym.Params = make([]objfile.ParamKind, np)
	for i := range u.Sym.Params {
		u.Sym.Params[i] = r.kind()
	}
	u.Sym.Ret = r.kind()
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 1 {
		return nil, fmt.Errorf("cc: unit decode: trailing bytes")
	}
	u.Sym.Extern = r.b[0] == 1
	if u.Name == "" || u.Sym.Name != u.Name {
		return nil, fmt.Errorf("cc: unit decode: symbol/unit name mismatch")
	}
	return u, nil
}
