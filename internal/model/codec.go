package model

import (
	"encoding/binary"
	"fmt"
	"slices"

	"mira/internal/expr"
	"mira/internal/ir"
	"mira/internal/rational"
)

// Function model byte encoding — the model section of a per-function
// store entry, carried beside the compiled unit so a store hit skips
// metric generation as well as compilation. Like the unit encoding it is
// varint fields and length-prefixed strings, with maps written in sorted
// key order so equal models encode to equal bytes; format changes ride on
// the store's magic (core.CacheFormatVersion), not on this encoding.
//
// The decoder is total: a sticky error, lengths compared as uint64, every
// count capped by the bytes that remain, and expression nesting capped at
// maxExprDepth, so arbitrary input costs time and memory linear in its
// length and never panics. Callers treat an error as a cache miss.

// Expression node tags.
const (
	tagNum byte = iota + 1
	tagParam
	tagVar
	tagAdd
	tagMul
	tagFloorDiv
	tagMin
	tagMax
	tagSum
)

// maxExprDepth bounds expression nesting on decode, so hostile input
// cannot recurse the decoder (or a later evaluator) off the stack.
// Generated models nest a few levels per loop; this is far above any.
const maxExprDepth = 256

// Minimum encoded sizes, used to cap counts by the bytes that remain.
const (
	minExprBytes = 2 // tag + empty name or empty operand list
	minSiteBytes = 6 // line, col, empty desc, op count, minimal expr
	minCallBytes = 7
	minArgBytes  = 2
	minOpBytes   = 2
)

// EncodeFunc serializes one function's model together with the warnings
// its generation produced.
func EncodeFunc(f *Func, warnings []string) []byte {
	var b []byte
	b = appendString(b, f.Name)
	b = appendStrings(b, f.Params)
	b = appendBool(b, f.Extern)
	b = binary.AppendUvarint(b, uint64(len(f.Sites)))
	for _, s := range f.Sites {
		b = binary.AppendVarint(b, int64(s.Line))
		b = binary.AppendVarint(b, int64(s.Col))
		b = appendString(b, s.Desc)
		b = binary.AppendUvarint(b, uint64(len(s.Ops)))
		for _, o := range s.Ops {
			b = binary.AppendUvarint(b, uint64(o.Op))
			b = binary.AppendVarint(b, o.N)
		}
		b = appendExpr(b, s.Mult)
	}
	b = binary.AppendUvarint(b, uint64(len(f.Calls)))
	for _, c := range f.Calls {
		b = appendString(b, c.Callee)
		b = binary.AppendVarint(b, int64(c.Line))
		b = binary.AppendVarint(b, int64(c.Col))
		b = appendExpr(b, c.Mult)
		names := make([]string, 0, len(c.Args))
		for name := range c.Args {
			names = append(names, name)
		}
		slices.Sort(names)
		b = binary.AppendUvarint(b, uint64(len(names)))
		for _, name := range names {
			b = appendString(b, name)
			arg := c.Args[name]
			b = appendBool(b, arg != nil)
			if arg != nil {
				b = appendExpr(b, arg)
			}
		}
		b = appendStrings(b, c.ArgOrder)
	}
	b = appendStrings(b, f.AnnotParams)
	return appendStrings(b, warnings)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendExpr(b []byte, e expr.Expr) []byte {
	switch x := e.(type) {
	case expr.Num:
		return x.Val.AppendBinary(append(b, tagNum))
	case expr.Param:
		return appendString(append(b, tagParam), x.Name)
	case expr.Var:
		return appendString(append(b, tagVar), x.Name)
	case expr.Add:
		return appendExprs(append(b, tagAdd), x.Terms)
	case expr.Mul:
		return appendExprs(append(b, tagMul), x.Factors)
	case expr.FloorDiv:
		return x.D.AppendBinary(appendExpr(append(b, tagFloorDiv), x.X))
	case expr.Min:
		return appendExpr(appendExpr(append(b, tagMin), x.A), x.B)
	case expr.Max:
		return appendExpr(appendExpr(append(b, tagMax), x.A), x.B)
	case expr.Sum:
		b = appendString(append(b, tagSum), x.Var)
		return appendExpr(appendExpr(appendExpr(b, x.Lo), x.Hi), x.Body)
	}
	// The expression set is closed (expr.Expr has an unexported method),
	// so this is unreachable; tag 0 makes it a decode error, not a
	// silently different model.
	return append(b, 0)
}

func appendExprs(b []byte, es []expr.Expr) []byte {
	b = binary.AppendUvarint(b, uint64(len(es)))
	for _, e := range es {
		b = appendExpr(b, e)
	}
	return b
}

// DecodeFunc deserializes and validates a model encoded by EncodeFunc,
// returning the function's model and its generation warnings.
func DecodeFunc(raw []byte) (*Func, []string, error) {
	r := &reader{b: raw}
	f := &Func{Name: r.string(), Params: r.strings(), Extern: r.bool()}
	if n := r.count(minSiteBytes); n > 0 {
		f.Sites = make([]*Site, n)
		for i := range f.Sites {
			f.Sites[i] = r.site()
		}
	}
	if n := r.count(minCallBytes); n > 0 {
		f.Calls = make([]*Call, n)
		for i := range f.Calls {
			f.Calls[i] = r.call()
		}
	}
	f.AnnotParams = r.strings()
	warnings := r.strings()
	if r.err == nil && len(r.b) != 0 {
		r.fail("trailing bytes")
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	return f, warnings, nil
}

// reader is the decoder's cursor. The first defect sticks in err; every
// later read returns a zero value, so decode paths check err once.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("model: decode: "+format, args...)
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail("truncated")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *reader) bool() bool {
	switch r.byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail("bad boolean")
	return false
}

func (r *reader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)) < n {
		r.fail("truncated string")
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// count reads an element count and refuses any the remaining input
// cannot hold at min bytes per element, so no count allocates more than
// the input justifies.
func (r *reader) count(min int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)/min) {
		r.fail("count %d exceeds the %d bytes left", n, len(r.b))
		return 0
	}
	return int(n)
}

func (r *reader) strings() []string {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.string()
	}
	return out
}

func (r *reader) rat() rational.Rat {
	if r.err != nil {
		return rational.Rat{}
	}
	v, n, err := rational.ReadBinary(r.b)
	if err != nil {
		r.fail("%v", err)
		return rational.Rat{}
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) site() *Site {
	s := &Site{Line: int(r.varint()), Col: int(r.varint()), Desc: r.string()}
	if n := r.count(minOpBytes); n > 0 {
		s.Ops = make([]ir.OpN, n)
		prev, total := -1, int64(0)
		for i := range s.Ops {
			op, n := r.uvarint(), r.varint()
			if r.err != nil {
				break
			}
			if op > uint64(^ir.Op(0)) || !ir.Op(op).Valid() || int(op) <= prev {
				r.fail("bad or unsorted opcode %d", op)
				break
			}
			// Positive counts whose sum fits int64: every per-site
			// category and instruction total derived from them does too.
			var ok bool
			if total, ok = addChecked(total, n); n <= 0 || !ok {
				r.fail("bad count %d for opcode %d", n, op)
				break
			}
			prev = int(op)
			s.Ops[i] = ir.OpN{Op: ir.Op(op), N: n}
		}
	}
	s.Mult = r.expr(0)
	return s
}

func (r *reader) call() *Call {
	c := &Call{Callee: r.string(), Line: int(r.varint()), Col: int(r.varint())}
	c.Mult = r.expr(0)
	if n := r.count(minArgBytes); n > 0 {
		c.Args = make(map[string]expr.Expr, n)
		prev := ""
		for i := 0; i < n && r.err == nil; i++ {
			name := r.string()
			if r.err == nil && i > 0 && name <= prev {
				r.fail("unsorted argument %q", name)
			}
			prev = name
			var arg expr.Expr
			if r.bool() {
				arg = r.expr(0)
			}
			c.Args[name] = arg
		}
	}
	c.ArgOrder = r.strings()
	return c
}

// expr decodes one expression tree, building nodes directly (no smart
// constructors): the stored tree is already simplified, and rebuilding it
// node for node keeps the decoded model identical to the encoded one.
func (r *reader) expr(depth int) expr.Expr {
	if depth > maxExprDepth {
		r.fail("expression nested deeper than %d", maxExprDepth)
		return nil
	}
	switch tag := r.byte(); tag {
	case tagNum:
		return expr.Num{Val: r.rat()}
	case tagParam:
		return expr.Param{Name: r.string()}
	case tagVar:
		return expr.Var{Name: r.string()}
	case tagAdd:
		return expr.Add{Terms: r.exprs(depth)}
	case tagMul:
		return expr.Mul{Factors: r.exprs(depth)}
	case tagFloorDiv:
		x := r.expr(depth + 1)
		d := r.rat()
		if r.err == nil && d.Sign() == 0 {
			r.fail("floor division by zero")
		}
		if _, _, ok := d.Int64Frac(); r.err == nil && !ok {
			// Python emission prints the divisor as an int64 fraction.
			r.fail("floor divisor %s out of range", d)
		}
		return expr.FloorDiv{X: x, D: d}
	case tagMin:
		return expr.Min{A: r.expr(depth + 1), B: r.expr(depth + 1)}
	case tagMax:
		return expr.Max{A: r.expr(depth + 1), B: r.expr(depth + 1)}
	case tagSum:
		s := expr.Sum{Var: r.string()}
		s.Lo, s.Hi, s.Body = r.expr(depth+1), r.expr(depth+1), r.expr(depth+1)
		return s
	default:
		r.fail("bad expression tag %d", tag)
		return nil
	}
}

func (r *reader) exprs(depth int) []expr.Expr {
	n := r.count(minExprBytes)
	if n == 0 {
		r.fail("empty operand list")
		return nil
	}
	out := make([]expr.Expr, n)
	for i := range out {
		out[i] = r.expr(depth + 1)
	}
	return out
}
