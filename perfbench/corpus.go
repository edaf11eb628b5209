package main

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"mira/internal/benchprogs"
	"mira/internal/parser"
	"mira/internal/synth"
)

// Every input the program under test receives is generated here from the
// --seed argument: the same seed gives the same programs, edits and
// environments.

// newRand returns a generator for one named stream of the seed, so the
// workloads draw independent sequences from one seed.
func newRand(seed int64, stream string) *rand.Rand {
	h := uint64(seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e5f5
	for _, c := range stream {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// program is one generated MiniC source. class is its Table I profile or
// embedded benchmark; variant marks a renamed embedded benchmark.
type program struct {
	name    string
	src     string
	class   string
	variant bool
}

// renamable lists, per embedded benchmark, the declared names a variant
// renames: functions, classes and globals. Renaming all of them changes
// every function-content key (names enter the AST hash, classes and
// globals the whole-file prefix), so no two variants share a key.
var renamable = []struct {
	name   string
	src    string
	idents []string
}{
	{"stream", benchprogs.Stream, []string{"tuned_copy", "tuned_scale", "tuned_add", "tuned_triad", "stream", "NTIMES"}},
	{"dgemm", benchprogs.Dgemm, []string{"dgemm_bench", "dgemm"}},
	{"minife", benchprogs.MiniFE, []string{"CSRMatrix", "Vector", "MatVec", "matvec", "waxpby", "dot", "assemble", "cg_solve", "minife"}},
}

var identRes = func() []*regexp.Regexp {
	out := make([]*regexp.Regexp, len(renamable))
	for i, r := range renamable {
		out[i] = regexp.MustCompile(`\b(` + strings.Join(r.idents, "|") + `)\b`)
	}
	return out
}()

// renamed returns embedded benchmark b with every declared name suffixed
// by tag.
func renamed(b int, tag string) string {
	return identRes[b].ReplaceAllString(renamable[b].src, "${1}_"+tag)
}

// tagFor makes the unique identifier suffix of program i.
func tagFor(seed int64, i int) string {
	return "s" + strconv.FormatUint(uint64(seed)%46656, 36) + "p" + strconv.Itoa(i)
}

// synthProgram generates a Table I-profile program at fraction f of the
// profile, its functions named after tag.
func synthProgram(p synth.Profile, f float64, tag string) (string, error) {
	loops := max(1, int(math.Round(f*float64(p.Loops))))
	inl := max(loops, int(math.Round(f*float64(p.InLoops))))
	st := max(inl, int(math.Round(f*float64(p.Statements))))
	return synth.Generate(synth.Profile{Name: p.Name + "_" + tag, Loops: loops, Statements: st, InLoops: inl})
}

// corpusBlock is the stratification unit of the cold corpus: each block
// holds every Table I profile once plus two variants of each embedded
// benchmark, shuffled. Profile sizes rotate through ten fraction buckets
// across blocks, so any run of consecutive blocks has nearly the same
// size mix under every seed; the seed moves names, jitter and order.
const corpusBlock = 16

const (
	synthMinFrac = 0.03
	synthMaxFrac = 0.21
)

// coldBlock generates block b of the cold corpus for seed: programs
// b*corpusBlock to (b+1)*corpusBlock-1, all distinct. A block depends on
// the seed and b alone, so any block can be generated again for a check.
func coldBlock(seed int64, b int) ([]program, error) {
	off := newRand(seed, "cold-corpus").Intn(10)
	rng := newRand(seed, "cold-corpus/"+strconv.Itoa(b))
	kinds := make([]int, 0, corpusBlock)
	for j := range synth.TableIProfiles {
		kinds = append(kinds, j)
	}
	for v := range 2 * len(renamable) {
		kinds = append(kinds, -1-v%len(renamable))
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	out := make([]program, 0, corpusBlock)
	for _, k := range kinds {
		tag := tagFor(seed, b*corpusBlock+len(out))
		if k < 0 {
			r := -1 - k
			out = append(out, program{name: renamable[r].name + "_" + tag + ".c", src: renamed(r, tag),
				class: renamable[r].name, variant: true})
			continue
		}
		bucket := (k*7 + b + off) % 10
		f := synthMinFrac + (synthMaxFrac-synthMinFrac)*(float64(bucket)+rng.Float64())/10
		src, err := synthProgram(synth.TableIProfiles[k], f, tag)
		if err != nil {
			return nil, err
		}
		out = append(out, program{name: synth.TableIProfiles[k].Name + "_" + tag + ".c", src: src,
			class: synth.TableIProfiles[k].Name})
	}
	return out, nil
}

var floatLit = regexp.MustCompile(`\d+\.\d+`)

// floatLiterals returns the byte ranges of the floating literals in src
// outside comment lines, in source order. Edits keep every literal a
// floating literal, so the count and order never change.
func floatLiterals(src string) [][]int {
	var out [][]int
	for lineStart := 0; lineStart < len(src); {
		end := strings.IndexByte(src[lineStart:], '\n')
		if end < 0 {
			end = len(src) - lineStart
		}
		line := src[lineStart : lineStart+end]
		if !strings.HasPrefix(strings.TrimSpace(line), "//") {
			for _, m := range floatLit.FindAllStringIndex(line, -1) {
				out = append(out, []int{lineStart + m[0], lineStart + m[1]})
			}
		}
		lineStart += end + 1
	}
	return out
}

// editLiteral applies one one-function edit to src: floating literal i
// (every literal lies inside a function body) gets a new value, unique
// per edit number k (its fraction digits are k followed by 1, so no two
// edits write equal values). The literal stays on its line, so no other
// function's source positions (which enter its content key) move.
func editLiteral(src string, i, k int) string {
	m := floatLiterals(src)[i]
	lit := src[m[0]:m[1]]
	whole := lit[:strings.IndexByte(lit, '.')]
	return src[:m[0]] + fmt.Sprintf("%s.%d1", whole, k) + src[m[1]:]
}

// editPlan is a seeded order of edits to a source's literals: edit k
// changes literal order[k % len(order)], which lies in function
// fn[order[k % len(order)]].
type editPlan struct {
	order []int
	fn    []string // per literal, its function's qualified name
}

// editOrder plans the edits of src. The functions that hold literals take
// turns in a seeded order, and each function's literals come in a seeded
// order, so every run edits each function equally often, however many
// literals it holds and however few edits the run makes; the seed only
// decides the sequence.
func editOrder(name, src string, rng *rand.Rand) (*editPlan, error) {
	file, err := parser.ParseFile(name, src)
	if err != nil {
		return nil, err
	}
	funcs := file.Funcs()
	sort.SliceStable(funcs, func(i, j int) bool { return funcs[i].FuncPos.Line < funcs[j].FuncPos.Line })
	plan := &editPlan{}
	byFunc := map[string][]int{}
	var names []string
	for i, m := range floatLiterals(src) {
		line := 1 + strings.Count(src[:m[0]], "\n")
		j := sort.Search(len(funcs), func(j int) bool { return funcs[j].FuncPos.Line > line }) - 1
		if j < 0 {
			return nil, fmt.Errorf("%s: literal on line %d precedes every function", name, line)
		}
		fn := funcs[j].QualifiedName()
		if byFunc[fn] == nil {
			names = append(names, fn)
		}
		byFunc[fn] = append(byFunc[fn], i)
		plan.fn = append(plan.fn, fn)
	}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	longest := 0
	for _, fn := range names {
		lits := byFunc[fn]
		rng.Shuffle(len(lits), func(i, j int) { lits[i], lits[j] = lits[j], lits[i] })
		longest = max(longest, len(lits))
	}
	for r := range longest {
		for _, fn := range names {
			lits := byFunc[fn]
			plan.order = append(plan.order, lits[r%len(lits)])
		}
	}
	return plan, nil
}
