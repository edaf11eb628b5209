// Package arch implements Mira's architecture description file
// (paper Sec. III-C6): a user-editable document that names the machine,
// its core/cache/vector parameters, and an instruction categorization —
// the paper divides the x86 instruction set into 64 categories — that the
// model generator uses to bucket per-function instruction counts.
//
// Descriptions round-trip through JSON so users can supply their own.
// The embedded Registry carries CPU- and accelerator-class profiles; two
// of them mirror the paper's evaluation machines: "arya" (Haswell-like,
// which notably lacks FP_INS hardware counters — Sec. IV-D1 uses this to
// argue static analysis is sometimes the only option) and "frankenstein"
// (Nehalem-like, with FP counters).
//
// Like sources, descriptions are content-addressed: ContentKey hashes
// the canonical JSON encoding, and every caching layer that stores an
// architecture-dependent result mixes that key in, so two descriptions
// differing in a single parameter can never share a cached result.
package arch

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"mira/internal/ir"
)

// Description is an architecture description file.
type Description struct {
	Name               string  `json:"name"`
	Cores              int     `json:"cores"`
	ClockGHz           float64 `json:"clock_ghz"`
	CacheLineBytes     int     `json:"cache_line_bytes"`
	VectorWidthDoubles int     `json:"vector_width_doubles"`
	// PeakFlopsPerCyclePerCore is the per-core FP issue width.
	PeakFlopsPerCyclePerCore float64 `json:"peak_flops_per_cycle_per_core"`
	MemBandwidthGBs          float64 `json:"mem_bandwidth_gbs"`
	// HasFPCounters reports whether PAPI-style FP_INS hardware counters
	// exist (false on Haswell).
	HasFPCounters bool `json:"has_fp_counters"`
	// Categories is the fine-grained instruction category list (the
	// paper's 64 x86 categories).
	Categories []string `json:"categories"`
	// OpcodeCategories maps opcode mnemonics (plus access-kind suffixes
	// for mov variants) to a fine category name.
	OpcodeCategories map[string]string `json:"opcode_categories"`
}

// ErrNonPositive is the validation error for machine parameters that
// must be strictly positive: the roofline math divides by bandwidth,
// peak issue width, and vector width, so a zero or negative value would
// turn a description typo into NaN/Inf predictions downstream.
var ErrNonPositive = errors.New("machine parameter must be positive")

// Validate checks internal consistency.
func (d *Description) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("arch: description needs a name")
	}
	for _, p := range []struct {
		field string
		ok    bool
	}{
		{"cores", d.Cores > 0},
		{"clock_ghz", d.ClockGHz > 0},
		{"vector_width_doubles", d.VectorWidthDoubles > 0},
		{"peak_flops_per_cycle_per_core", d.PeakFlopsPerCyclePerCore > 0},
		{"mem_bandwidth_gbs", d.MemBandwidthGBs > 0},
	} {
		if !p.ok {
			return fmt.Errorf("arch %s: %s: %w", d.Name, p.field, ErrNonPositive)
		}
	}
	known := map[string]bool{}
	for _, c := range d.Categories {
		if known[c] {
			return fmt.Errorf("arch %s: duplicate category %q", d.Name, c)
		}
		known[c] = true
	}
	for op, cat := range d.OpcodeCategories {
		if !known[cat] {
			return fmt.Errorf("arch %s: opcode %q maps to unknown category %q", d.Name, op, cat)
		}
	}
	return nil
}

// PeakGFlops returns the machine peak in GFLOP/s.
func (d *Description) PeakGFlops() float64 {
	return float64(d.Cores) * d.ClockGHz * d.PeakFlopsPerCyclePerCore
}

// opKey renders the lookup key for an opcode: mnemonics are shared between
// load/store/reg-reg variants, so the key carries a variant suffix.
func opKey(op ir.Op) string {
	switch op {
	case ir.MOVLD:
		return "mov.load"
	case ir.MOVST:
		return "mov.store"
	case ir.MOVRI:
		return "mov.imm"
	case ir.MOVSDLD:
		return "movsd.load"
	case ir.MOVSDST:
		return "movsd.store"
	case ir.MOVSDI:
		return "movsd.imm"
	case ir.MOVAPDLD:
		return "movapd.load"
	case ir.MOVAPDST:
		return "movapd.store"
	case ir.ARGI, ir.GETRETI:
		return "mov.reg"
	case ir.ARGF, ir.GETRETF:
		return "movsd.reg"
	case ir.MOVRR:
		return "mov.reg"
	case ir.MOVSDRR:
		return "movsd.reg"
	case ir.ALLOC:
		return "sub.rsp"
	case ir.RETI, ir.RETF, ir.RETV:
		return "ret"
	case ir.IREM:
		return "idiv"
	}
	return op.Mnemonic()
}

// FineCategory returns the description's fine category for an opcode,
// falling back to the coarse ir category name.
func (d *Description) FineCategory(op ir.Op) string {
	if c, ok := d.OpcodeCategories[opKey(op)]; ok {
		return c
	}
	return op.Cat().String()
}

// TableIICategory maps an opcode to one of the seven aggregate rows the
// paper's Table II reports.
func TableIICategory(op ir.Op) ir.Category {
	switch op.Cat() {
	case ir.CatSSECompare, ir.CatSSEConvert, ir.CatMisc:
		return ir.CatMisc
	default:
		return op.Cat()
	}
}

// ToJSON round-trips through the plain struct.
func (d *Description) ToJSON() ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}

// ContentKey returns the description's content address: the SHA-256 of
// its canonical JSON encoding (compact, struct fields in declaration
// order, map keys sorted — encoding/json guarantees both), hex-encoded.
// Two descriptions differing in any parameter have different keys;
// caching layers mix this key into architecture-dependent cache and
// memo keys exactly as source text is content-addressed.
func (d *Description) ContentKey() string {
	data, err := json.Marshal(d)
	if err != nil {
		// Description is plain data (strings, numbers, bools, a string
		// map); Marshal cannot fail on it.
		panic(fmt.Sprintf("arch: marshal description: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// genericKey is Generic().ContentKey(), computed once: KeyOf(nil) is on
// every analysis's path, and the key of a fixed description never
// changes.
var genericKey = Generic().ContentKey()

// KeyOf is ContentKey tolerating nil: analysis layers treat a nil
// description as Generic (see core.Options), and their cache keys must
// agree with that default.
func KeyOf(d *Description) string {
	if d == nil {
		return genericKey
	}
	return d.ContentKey()
}

// FromJSON parses and validates a description.
func FromJSON(data []byte) (*Description, error) {
	var d Description
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("arch: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Lookup returns a built-in description by name (or alias), backed by a
// fresh registry of the embedded profiles — so the returned value is
// the caller's to mutate, and the unknown-name error derives its
// builtin list from the registry instead of a hand-maintained string.
func Lookup(name string) (*Description, error) {
	return NewRegistry().Lookup(name)
}

// x86Categories is the fine-grained 64-category partition of the x86
// instruction set the paper's description file defines, following the
// Intel SDM instruction-group taxonomy.
var x86Categories = []string{
	// General purpose: data transfer.
	"GP data transfer: mov",
	"GP data transfer: cmov",
	"GP data transfer: xchg",
	"GP data transfer: push/pop",
	"GP data transfer: sign/zero extend",
	"GP data transfer: address (lea)",
	// General purpose: arithmetic.
	"GP binary arithmetic: add/sub",
	"GP binary arithmetic: inc/dec",
	"GP binary arithmetic: mul",
	"GP binary arithmetic: div",
	"GP binary arithmetic: neg",
	"GP binary arithmetic: cmp",
	"GP decimal arithmetic",
	// General purpose: logical / shift / bit.
	"GP logical: and/or/xor/not",
	"GP shift/rotate",
	"GP bit/byte: test",
	"GP bit/byte: set/bt",
	// General purpose: control.
	"GP control transfer: jmp",
	"GP control transfer: jcc",
	"GP control transfer: call/ret",
	"GP control transfer: loop",
	"GP control transfer: int/iret",
	// String / IO / flag / segment / misc GP.
	"GP string move/compare",
	"GP io",
	"GP flag control",
	"GP segment register",
	"GP misc: nop/cpuid",
	"GP misc: conversion (cdq/cbw)",
	// x87 FPU.
	"x87 data transfer",
	"x87 basic arithmetic",
	"x87 comparison",
	"x87 transcendental",
	"x87 load constant",
	"x87 control",
	// MMX.
	"MMX data transfer",
	"MMX conversion",
	"MMX packed arithmetic",
	"MMX comparison",
	"MMX logical",
	"MMX shift/rotate",
	// SSE (single precision).
	"SSE data transfer",
	"SSE packed arithmetic",
	"SSE comparison",
	"SSE logical",
	"SSE shuffle/unpack",
	"SSE conversion",
	// SSE2 (double precision) — the paper's FPI-relevant groups.
	"SSE2 data movement",
	"SSE2 packed arithmetic",
	"SSE2 comparison",
	"SSE2 logical",
	"SSE2 shuffle/unpack",
	"SSE2 conversion",
	"SSE2 packed integer",
	// SSE3/SSSE3/SSE4.
	"SSE3 horizontal arithmetic",
	"SSSE3 packed arithmetic",
	"SSE4 dword multiply",
	"SSE4 blending",
	"SSE4 streaming load",
	// AVX / FMA / system.
	"AVX arithmetic",
	"AVX data movement",
	"FMA fused multiply-add",
	"System: 64-bit mode (movsxd)",
	"System: synchronization",
	"System: other",
}

// defaultOpcodeCategories maps this ISA's opcodes into the fine scheme.
var defaultOpcodeCategories = map[string]string{
	"mov.load":     "GP data transfer: mov",
	"mov.store":    "GP data transfer: mov",
	"mov.imm":      "GP data transfer: mov",
	"mov.reg":      "GP data transfer: mov",
	"push":         "GP data transfer: push/pop",
	"pop":          "GP data transfer: push/pop",
	"lea":          "GP data transfer: address (lea)",
	"add":          "GP binary arithmetic: add/sub",
	"sub":          "GP binary arithmetic: add/sub",
	"sub.rsp":      "GP binary arithmetic: add/sub",
	"inc":          "GP binary arithmetic: inc/dec",
	"dec":          "GP binary arithmetic: inc/dec",
	"imul":         "GP binary arithmetic: mul",
	"idiv":         "GP binary arithmetic: div",
	"neg":          "GP binary arithmetic: neg",
	"cmp":          "GP binary arithmetic: cmp",
	"and":          "GP logical: and/or/xor/not",
	"or":           "GP logical: and/or/xor/not",
	"xor":          "GP logical: and/or/xor/not",
	"shl":          "GP shift/rotate",
	"sar":          "GP shift/rotate",
	"test":         "GP bit/byte: test",
	"jmp":          "GP control transfer: jmp",
	"je":           "GP control transfer: jcc",
	"jne":          "GP control transfer: jcc",
	"jl":           "GP control transfer: jcc",
	"jle":          "GP control transfer: jcc",
	"jg":           "GP control transfer: jcc",
	"jge":          "GP control transfer: jcc",
	"call":         "GP control transfer: call/ret",
	"ret":          "GP control transfer: call/ret",
	"nop":          "GP misc: nop/cpuid",
	"cdq":          "GP misc: conversion (cdq/cbw)",
	"movsd.load":   "SSE2 data movement",
	"movsd.store":  "SSE2 data movement",
	"movsd.imm":    "SSE2 data movement",
	"movsd.reg":    "SSE2 data movement",
	"movapd.load":  "SSE2 data movement",
	"movapd.store": "SSE2 data movement",
	"addsd":        "SSE2 packed arithmetic",
	"subsd":        "SSE2 packed arithmetic",
	"mulsd":        "SSE2 packed arithmetic",
	"divsd":        "SSE2 packed arithmetic",
	"sqrtsd":       "SSE2 packed arithmetic",
	"addpd":        "SSE2 packed arithmetic",
	"subpd":        "SSE2 packed arithmetic",
	"mulpd":        "SSE2 packed arithmetic",
	"divpd":        "SSE2 packed arithmetic",
	"ucomisd":      "SSE2 comparison",
	"cvtsi2sd":     "SSE2 conversion",
	"cvttsd2si":    "SSE2 conversion",
	"movsxd":       "System: 64-bit mode (movsxd)",
}

func builtin(name string, cores int, clock float64, vec int, peak float64, bw float64, fp bool) *Description {
	cats := make([]string, len(x86Categories))
	copy(cats, x86Categories)
	ops := make(map[string]string, len(defaultOpcodeCategories))
	for k, v := range defaultOpcodeCategories {
		ops[k] = v
	}
	return &Description{
		Name:                     name,
		Cores:                    cores,
		ClockGHz:                 clock,
		CacheLineBytes:           64,
		VectorWidthDoubles:       vec,
		PeakFlopsPerCyclePerCore: peak,
		MemBandwidthGBs:          bw,
		HasFPCounters:            fp,
		Categories:               cats,
		OpcodeCategories:         ops,
	}
}

// Arya describes the paper's Haswell machine: two 18-core Xeon E5-2699v3
// at 2.3 GHz. Haswell provides no FP_INS hardware counter.
func Arya() *Description {
	return builtin("arya", 36, 2.3, 4, 16, 136, false)
}

// Frankenstein describes the paper's Nehalem machine: two 4-core Xeon
// E5620 at 2.4 GHz, with FP hardware counters.
func Frankenstein() *Description {
	return builtin("frankenstein", 8, 2.4, 2, 4, 51.2, true)
}

// Generic is a neutral single-socket description for examples.
func Generic() *Description {
	return builtin("generic", 8, 2.0, 2, 4, 40, true)
}
