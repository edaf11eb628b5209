// Function-granular incremental analysis: the one pipeline body behind
// Analyze (which is this with nothing to reuse), structured so that each
// function's expensive artifacts — its compiled unit and its generated
// model — can be served from a cache keyed by function-content hash (see
// FuncKeys) instead of being rebuilt. Parsing, semantic analysis, linking,
// and the object-file round trip always run on the new source (they are
// cheap and whole-file by nature); compilation and metric generation run
// only for functions whose content key misses.
//
// The result is bit-identical to a from-scratch analysis: units link the
// same bytes, models are the ones the same inputs generate, and warnings
// concatenate in the same function order.
package core

import (
	"bytes"
	"context"
	"fmt"
	"sort"

	"mira/internal/arch"
	"mira/internal/cc"
	"mira/internal/metrics"
	"mira/internal/model"
	"mira/internal/objfile"
	"mira/internal/parser"
	"mira/internal/sema"
)

// FuncArtifact bundles the cacheable per-function products of the
// pipeline under one function-content key: the compiled unit, the
// generated model, and the warnings generation emitted. An artifact is
// complete — Unit and Model are both set — whether it comes from a live
// memo or was decoded from a store entry (DecodeArtifact), so reusing it
// skips both compilation and metric generation.
type FuncArtifact struct {
	Key      string
	Name     string
	Unit     *cc.Unit
	Model    *model.Func
	Warnings []string
}

// Delta reports, for one incremental analysis, which functions were
// served from cache and which were compiled and modeled afresh, in link
// order.
type Delta struct {
	Reused   []string
	Compiled []string
}

// IncrementalResult is the outcome of AnalyzeIncremental: the finished
// pipeline, the reuse delta, and the complete per-function artifact set
// (cache-ready: every artifact carries its unit, model, and warnings) for
// the caller to retain.
type IncrementalResult struct {
	Pipeline  *Pipeline
	Delta     Delta
	Artifacts map[string]*FuncArtifact // keyed by qualified function name
}

// AnalyzeIncremental runs the pipeline on source, consulting lookup for
// per-function artifacts by function-content key. lookup may be nil
// (every function compiles cold). See AnalyzeIncrementalContext.
func AnalyzeIncremental(name, source string, opts Options, lookup func(key string) (*FuncArtifact, bool)) (*IncrementalResult, error) {
	return AnalyzeIncrementalContext(context.Background(), name, source, opts, lookup)
}

// AnalyzeIncrementalContext is AnalyzeIncremental with the same
// stage-boundary cancellation as AnalyzeContext. A function counts as
// Reused when lookup returned a complete artifact for its key that fits
// the function (anything less is a miss); it then neither compiles nor
// generates its model.
func AnalyzeIncrementalContext(ctx context.Context, name, source string, opts Options, lookup func(key string) (*FuncArtifact, bool)) (*IncrementalResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	file, err := parser.ParseFile(name, source)
	if err != nil {
		return nil, fmt.Errorf("core: parse: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prog, err := sema.Analyze(file)
	if err != nil {
		return nil, fmt.Errorf("core: sema: %w", err)
	}
	keys := FuncKeys(prog, opts)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	ccOpts := cc.Options{SourceName: name, DisableOpt: opts.DisableOpt}
	order := cc.LinkOrder(prog)
	arts := make(map[string]*FuncArtifact, len(order))
	units := make([]*cc.Unit, 0, len(order))
	var delta Delta
	for _, q := range order {
		key := keys[q]
		if lookup != nil {
			if art, ok := lookup(key); ok && fits(art, prog.Funcs[q]) {
				arts[q] = &FuncArtifact{Key: key, Name: q, Unit: art.Unit, Model: art.Model, Warnings: art.Warnings}
				units = append(units, art.Unit)
				delta.Reused = append(delta.Reused, q)
				continue
			}
		}
		u, cerr := cc.CompileFunc(prog, ccOpts, q)
		if cerr != nil {
			return nil, fmt.Errorf("core: compile: %w", cerr)
		}
		arts[q] = &FuncArtifact{Key: key, Name: q, Unit: u}
		units = append(units, u)
		delta.Compiled = append(delta.Compiled, q)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	obj, err := cc.Link(prog, ccOpts, units)
	if err != nil {
		return nil, fmt.Errorf("core: compile: %w", err)
	}
	// Round-trip through the byte encoding, exactly as the cold path does:
	// the model must be derived from the portable binary artifact.
	var buf bytes.Buffer
	if err := obj.Encode(&buf); err != nil {
		return nil, fmt.Errorf("core: encode: %w", err)
	}
	decoded, err := objfile.Decode(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("core: decode: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Model only what compiled: the generator (and its line-table bridge
	// over the whole object) is built only when something missed. Link
	// order puts every function that can fail generation first, in
	// FuncOrder, so the first error is the one a serial Generate reports.
	if len(delta.Compiled) > 0 {
		gen := metrics.NewGenerator(prog, decoded, metrics.Config{Lenient: opts.Lenient})
		for _, q := range delta.Compiled {
			fm, w, gerr := gen.FuncModel(q)
			if gerr != nil {
				return nil, fmt.Errorf("core: metrics: %w", gerr)
			}
			arts[q].Model, arts[q].Warnings = fm, w
		}
	}
	m := &model.Model{SourceName: decoded.SourceName, Funcs: map[string]*model.Func{}}
	var warns []string
	for _, q := range prog.FuncOrder {
		art := arts[q]
		m.Funcs[q] = art.Model
		m.Order = append(m.Order, q)
		warns = append(warns, art.Warnings...)
	}

	a := opts.Arch
	if a == nil {
		a = arch.Generic()
	}
	p := &Pipeline{
		Name:     name,
		Source:   source,
		File:     file,
		Prog:     prog,
		Obj:      decoded,
		Model:    m,
		Arch:     a,
		Warnings: warns,
		FuncKeys: keys,
	}
	return &IncrementalResult{Pipeline: p, Delta: delta, Artifacts: arts}, nil
}

// fits reports whether a looked-up artifact can stand in for function fi:
// it is complete, it models fi, and its model calls only fi's static
// callees. Content keys make a mismatch impossible for an honest store;
// the check keeps a faulty one (a peer's bytes can carry a valid
// checksum) from slipping in a call graph sema never validated — a
// recursive one would make every evaluation exponential.
func fits(art *FuncArtifact, fi *sema.FuncInfo) bool {
	if art == nil || art.Unit == nil || art.Model == nil || art.Model.Name != fi.QName {
		return false
	}
	for _, c := range art.Model.Calls {
		if i := sort.SearchStrings(fi.Callees, c.Callee); i == len(fi.Callees) || fi.Callees[i] != c.Callee {
			return false
		}
	}
	return true
}

// EncodeUnit serializes a compiled function unit to its portable byte
// form — the per-function object fragment a persistent cache stores.
func EncodeUnit(u *cc.Unit) []byte { return u.EncodeBytes() }

// DecodeUnit deserializes a unit encoded by EncodeUnit. Callers treat an
// error as a cache miss.
func DecodeUnit(raw []byte) (*cc.Unit, error) { return cc.DecodeUnitBytes(raw) }

// EncodeModel serializes an artifact's model and warnings to the portable
// byte form a per-function store entry carries beside the unit.
func EncodeModel(art *FuncArtifact) []byte { return model.EncodeFunc(art.Model, art.Warnings) }

// DecodeArtifact rebuilds the complete artifact stored under key from its
// unit and model encodings. Any defect in either, or a unit and model
// that name different functions, is an error the caller counts and treats
// as a miss for this one function.
func DecodeArtifact(key string, unit, fmodel []byte) (*FuncArtifact, error) {
	u, err := DecodeUnit(unit)
	if err != nil {
		return nil, err
	}
	fm, warns, err := model.DecodeFunc(fmodel)
	if err != nil {
		return nil, err
	}
	if fm.Name != u.Name {
		return nil, fmt.Errorf("core: stored model of %q beside unit of %q", fm.Name, u.Name)
	}
	return &FuncArtifact{Key: key, Name: u.Name, Unit: u, Model: fm, Warnings: warns}, nil
}
