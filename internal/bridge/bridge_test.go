package bridge_test

import (
	"testing"

	"mira/internal/bridge"
	"mira/internal/cc"
	"mira/internal/ir"
	"mira/internal/objfile"
	"mira/internal/parser"
	"mira/internal/sema"
)

func compile(t *testing.T, src string) *objfile.File {
	t.Helper()
	file, err := parser.ParseFile("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sema.Analyze(file)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := cc.Compile(prog, cc.Options{SourceName: "t.c"})
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func TestStatementToInstructionMapping(t *testing.T) {
	// One source statement maps to several instructions (paper
	// Sec. III-A2); positions separate the for header's clauses.
	src := "double f(int n) {\n" + // line 1
		"\tdouble s;\n" + // 2
		"\tint i;\n" + // 3
		"\ts = 0.0;\n" + // 4
		"\tfor (i = 0; i < n; i++) {\n" + // 5: init col 7, cond col 14, post col 21
		"\t\ts = s + 1.0;\n" + // 6
		"\t}\n" +
		"\treturn s;\n" + // 8
		"}\n"
	obj := compile(t, src)
	br := bridge.Build(obj)
	fb, ok := br.Func("f")
	if !ok {
		t.Fatal("no bridge for f")
	}

	// The FP statement on line 6 contains exactly one ADDSD plus its
	// movsd traffic.
	body := fb.At(6, 3)
	if body == nil {
		t.Fatalf("no site at 6:3; positions = %v", fb.Positions())
	}
	if n := opCounts(body)[ir.ADDSD]; n != 1 {
		t.Errorf("ADDSD at body = %d, want 1", n)
	}
	moves := false
	for _, o := range body.Ops {
		moves = moves || o.Op.Cat() == ir.CatSSEMove
	}
	if !moves {
		t.Error("no SSE2 movement at FP statement")
	}

	// The for header occupies three distinct column sites on line 5.
	var headerSites int
	for _, p := range fb.Positions() {
		if p.Line == 5 {
			headerSites++
		}
	}
	if headerSites != 3 {
		t.Errorf("header sites = %d, want 3 (init/cond/post)", headerSites)
	}

	// The condition site holds the compare and conditional jump.
	cond := fb.At(5, 14)
	if cond == nil || opCounts(cond)[ir.CMP] != 1 {
		t.Errorf("cond site = %+v", cond)
	}
	// The post site holds the increment and the back jump.
	post := fb.At(5, 21)
	if post == nil || opCounts(post)[ir.INC] != 1 || opCounts(post)[ir.JMP] != 1 {
		t.Errorf("post site = %+v", post)
	}
}

func TestCallTargets(t *testing.T) {
	src := `
double g(double x) { return x * 2.0; }
double f(double x) {
	return g(x) + g(x);
}`
	obj := compile(t, src)
	br := bridge.Build(obj)
	targets := br.CallTargets("f")
	total := 0
	for _, callees := range targets {
		for _, c := range callees {
			if c != "g" {
				t.Errorf("unexpected callee %q", c)
			}
			total++
		}
	}
	if total != 2 {
		t.Errorf("call count = %d, want 2", total)
	}
}

func TestEveryInstructionAttributed(t *testing.T) {
	obj := compile(t, `
double f(int n) {
	double a[n];
	int i;
	for (i = 0; i < n; i++) { a[i] = i; }
	return a[0];
}`)
	br := bridge.Build(obj)
	fb, _ := br.Func("f")
	var total int64
	for _, p := range fb.Positions() {
		sc := fb.At(int(p.Line), int(p.Col))
		for i, o := range sc.Ops {
			if o.N <= 0 || (i > 0 && o.Op <= sc.Ops[i-1].Op) {
				t.Fatalf("site %v: ops %v not sorted with positive counts", p, sc.Ops)
			}
			total += o.N
		}
	}
	sym, _ := obj.LookupSym("f")
	if total != int64(sym.Count) {
		t.Errorf("attributed %d instructions, symbol has %d", total, sym.Count)
	}
}

// opCounts indexes a site's sparse opcode counts by opcode.
func opCounts(sc *bridge.SiteCounts) map[ir.Op]int64 {
	out := map[ir.Op]int64{}
	for _, o := range sc.Ops {
		out[o.Op] = o.N
	}
	return out
}
