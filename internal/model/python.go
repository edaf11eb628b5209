package model

import (
	"fmt"
	"sort"
	"strings"

	"mira/internal/expr"
	"mira/internal/ir"
)

// PyFuncName renders the paper's generated-function naming convention:
// class and function name joined by underscores plus the original argument
// count (Fig. 5's A_foo_2).
func PyFuncName(f *Func) string {
	base := strings.ReplaceAll(f.Name, "::", "_")
	base = strings.ReplaceAll(base, "operator()", "operator_call")
	return fmt.Sprintf("%s_%d", base, len(f.Params))
}

// EmitPython renders the whole model as a standalone Python module in the
// style of the paper's Fig. 5: one function per source function returning a
// metric dictionary, combined through handle_function_call.
func (m *Model) EmitPython() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Performance model generated by Mira from %s\n", m.SourceName)
	b.WriteString("# Evaluate a function to obtain its inclusive instruction-category counts.\n")
	b.WriteString("# Parameters that static analysis could not resolve are module-level\n")
	b.WriteString("# variables named <param>_<line>; set them before evaluating.\n\n")

	b.WriteString("def handle_function_call(caller, callee, count):\n")
	b.WriteString("    for k, v in callee.items():\n")
	b.WriteString("        caller[k] = caller.get(k, 0) + v * count\n\n")

	// Module-level declarations for unresolved call arguments.
	var unresolved []string
	seen := map[string]bool{}
	for _, name := range m.Order {
		f := m.Funcs[name]
		for _, c := range f.Calls {
			for _, p := range c.ArgOrder {
				if c.Args[p] == nil {
					mangled := MangledParam(p, c.Line)
					if !seen[mangled] {
						seen[mangled] = true
						unresolved = append(unresolved, mangled)
					}
				}
			}
		}
	}
	sort.Strings(unresolved)
	for _, u := range unresolved {
		fmt.Fprintf(&b, "%s = None  # user input required (see paper Sec. III-C5)\n", u)
	}
	if len(unresolved) > 0 {
		b.WriteString("\n")
	}

	for _, name := range m.Order {
		f := m.Funcs[name]
		if f.Extern {
			fmt.Fprintf(&b, "def %s(%s):\n", PyFuncName(f), strings.Join(pyParams(f), ", "))
			b.WriteString("    # external library function: invisible to static analysis\n")
			b.WriteString("    return {}\n\n")
			continue
		}
		m.emitPyFunc(&b, f)
	}
	return b.String()
}

func pyParams(f *Func) []string {
	params := append([]string{}, f.Params...)
	params = append(params, f.AnnotParams...)
	return params
}

func (m *Model) emitPyFunc(b *strings.Builder, f *Func) {
	fmt.Fprintf(b, "def %s(%s):\n", PyFuncName(f), strings.Join(pyParams(f), ", "))
	fmt.Fprintf(b, "    metrics = {}\n")
	for _, s := range f.Sites {
		if len(s.Ops) == 0 {
			continue
		}
		fmt.Fprintf(b, "    # line %d:%d  %s\n", s.Line, s.Col, s.Desc)
		fmt.Fprintf(b, "    _n = %s\n", expr.Python(s.Mult))
		// In range: a site's counts are positive with an int64 total
		// (the bridge counts instructions; the decoder enforces it).
		var cats [ir.NumCategories]int64
		for _, o := range s.Ops {
			cats[o.Op.Cat()] += o.N
		}
		for c, n := range cats {
			if n == 0 {
				continue
			}
			fmt.Fprintf(b, "    metrics[%q] = metrics.get(%q, 0) + %d * _n\n",
				ir.Category(c).String(), ir.Category(c).String(), n)
		}
	}
	for _, c := range f.Calls {
		callee := m.Funcs[c.Callee]
		var args []string
		for _, p := range c.ArgOrder {
			if a := c.Args[p]; a != nil {
				args = append(args, expr.Python(a))
			} else {
				args = append(args, MangledParam(p, c.Line))
			}
		}
		// Annotation parameters propagate by name.
		if callee != nil {
			for _, ap := range callee.AnnotParams {
				args = append(args, ap)
			}
		}
		fmt.Fprintf(b, "    # call at line %d:%d\n", c.Line, c.Col)
		calleeName := c.Callee
		if callee != nil {
			calleeName = PyFuncName(callee)
		}
		fmt.Fprintf(b, "    handle_function_call(metrics, %s(%s), %s)\n",
			calleeName, strings.Join(args, ", "), expr.Python(c.Mult))
	}
	fmt.Fprintf(b, "    return metrics\n\n")
}
