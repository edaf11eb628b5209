// Package bridge connects the source AST to the binary AST through the
// line table, the mechanism the paper adopts from debuggers (Sec. III-A2):
// one source statement maps to several binary instructions, and an
// instruction maps back to exactly one source position.
//
// Positions are (line, column) pairs, not just lines: the compiler tags
// the init/cond/increment clauses of a for header — which share a line —
// with their distinct columns, and the metric generator assigns each group
// a different execution multiplicity.
package bridge

import (
	"cmp"
	"slices"
	"sort"

	"mira/internal/ir"
	"mira/internal/objfile"
)

// Pos is a source coordinate.
type Pos struct {
	Line int32
	Col  int32
}

// SiteCounts aggregates the instructions attributed to one source position
// within one function. Ops is the only count form: category, flop and
// instruction totals are derived from opcodes (Op.Cat, Op.Flops) when a
// model is evaluated, never stored beside them.
type SiteCounts struct {
	Pos Pos
	Ops []ir.OpN // sorted by opcode; every count positive
}

// FuncBridge maps source positions to instruction groups for one function.
type FuncBridge struct {
	Sym   *objfile.Symbol
	Sites map[Pos]*SiteCounts
}

// Bridge holds per-function position maps for a whole object file.
type Bridge struct {
	obj   *objfile.File
	funcs map[string]*FuncBridge
}

// Build constructs the bridge for an object file.
func Build(obj *objfile.File) *Bridge {
	b := &Bridge{obj: obj, funcs: map[string]*FuncBridge{}}
	for i := range obj.Syms {
		sym := &obj.Syms[i]
		fb := &FuncBridge{Sym: sym, Sites: map[Pos]*SiteCounts{}}
		text := obj.FuncText(sym)
		// Sort the instructions by (position, opcode), so each site's
		// counts are one run-length pass, carved from one backing array.
		keyed := make([]posOp, len(text))
		for idx, in := range text {
			keyed[idx].op = in.Op
			if obj.Line != nil {
				if row, ok := obj.Line.Lookup(sym.Start + uint64(idx)); ok {
					keyed[idx].pos = Pos{Line: row.Line, Col: row.Col}
				}
			}
		}
		slices.SortFunc(keyed, func(a, b posOp) int {
			return cmp.Or(cmp.Compare(a.pos.Line, b.pos.Line), cmp.Compare(a.pos.Col, b.pos.Col), cmp.Compare(a.op, b.op))
		})
		ops := make([]ir.OpN, 0, len(keyed))
		for j := 0; j < len(keyed); {
			pos, start := keyed[j].pos, len(ops)
			for ; j < len(keyed) && keyed[j].pos == pos; j++ {
				if n := len(ops); n > start && ops[n-1].Op == keyed[j].op {
					ops[n-1].N++
				} else {
					ops = append(ops, ir.OpN{Op: keyed[j].op, N: 1})
				}
			}
			fb.Sites[pos] = &SiteCounts{Pos: pos, Ops: ops[start:len(ops):len(ops)]}
		}
		b.funcs[sym.Name] = fb
	}
	return b
}

// posOp is one instruction's source position and opcode.
type posOp struct {
	pos Pos
	op  ir.Op
}

// Func returns the per-function bridge for a qualified name.
func (b *Bridge) Func(name string) (*FuncBridge, bool) {
	fb, ok := b.funcs[name]
	return fb, ok
}

// At returns the instruction group at an exact source position, or nil.
func (fb *FuncBridge) At(line, col int) *SiteCounts {
	return fb.Sites[Pos{Line: int32(line), Col: int32(col)}]
}

// Positions returns every position with attributed instructions, sorted.
func (fb *FuncBridge) Positions() []Pos {
	out := make([]Pos, 0, len(fb.Sites))
	for p := range fb.Sites {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Col < out[j].Col
	})
	return out
}

// CallTargets returns, per position, the callee symbol names invoked by
// CALL instructions attributed there (in instruction order).
func (b *Bridge) CallTargets(name string) map[Pos][]string {
	fb, ok := b.funcs[name]
	if !ok {
		return nil
	}
	out := map[Pos][]string{}
	sym := fb.Sym
	text := b.obj.FuncText(sym)
	for idx, in := range text {
		if in.Op != ir.CALL {
			continue
		}
		addr := sym.Start + uint64(idx)
		var pos Pos
		if b.obj.Line != nil {
			if row, ok := b.obj.Line.Lookup(addr); ok {
				pos = Pos{Line: row.Line, Col: row.Col}
			}
		}
		callee := int(in.Imm)
		if callee >= 0 && callee < len(b.obj.Syms) {
			out[pos] = append(out[pos], b.obj.Syms[callee].Name)
		}
	}
	return out
}
