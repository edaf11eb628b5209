package core

import (
	"slices"
	"testing"
	"time"

	"mira/internal/benchprogs"
)

// Bounds of FuzzAnalyze. A 150 s fuzz of core.Analyze over mutated
// benchmark programs found no input slower than 3 s; the budget keeps it
// that way, and the size cap keeps the fuzzer from growing inputs whose
// cost says nothing new.
const (
	fuzzAnalyzeBudget   = 3 * time.Second
	fuzzAnalyzeMaxBytes = 1 << 16
)

// FuzzAnalyze runs the whole cold pipeline (parse, sema, function keys,
// compile, object round trip, metrics.Generate) on arbitrary source. Any
// input may be rejected with an error, but none may panic, take longer
// than the budget, or analyze differently twice: the second run must
// return the same error, or the same Python model and warnings.
func FuzzAnalyze(f *testing.F) {
	for _, src := range []string{
		benchprogs.Stream, benchprogs.Dgemm, benchprogs.MiniFE, benchprogs.Fig5,
		benchprogs.Listing1, benchprogs.Listing2, benchprogs.Listing4, benchprogs.Listing5,
		benchprogs.Ablation,
	} {
		f.Add(src, false)
		f.Add(src, true)
	}
	f.Fuzz(func(t *testing.T, src string, lenient bool) {
		if len(src) > fuzzAnalyzeMaxBytes {
			t.Skip("input larger than the fuzz size cap")
		}
		opts := Options{Lenient: lenient}
		// The pipeline checks for cancellation only between stages, so
		// the budget is enforced from outside: an input that overruns
		// fails the target (its goroutine is abandoned with the worker).
		analyze := func() (*Pipeline, error) {
			type result struct {
				p   *Pipeline
				err error
			}
			done := make(chan result, 1)
			go func() {
				p, err := Analyze("fuzz.c", src, opts)
				done <- result{p, err}
			}()
			timer := time.NewTimer(fuzzAnalyzeBudget)
			defer timer.Stop()
			select {
			case r := <-done:
				return r.p, r.err
			case <-timer.C:
				t.Fatalf("Analyze(lenient=%t) ran past the %v budget on %q", lenient, fuzzAnalyzeBudget, src)
				return nil, nil
			}
		}
		p1, err1 := analyze()
		p2, err2 := analyze()
		if err1 != nil || err2 != nil {
			if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
				t.Fatalf("two analyses disagree: error %v, then %v", err1, err2)
			}
			return
		}
		if a, b := p1.PythonModel(), p2.PythonModel(); a != b {
			t.Fatalf("two analyses emit different Python models:\n%s\n---\n%s", a, b)
		}
		if !slices.Equal(p1.Warnings, p2.Warnings) {
			t.Fatalf("two analyses warn differently: %q, then %q", p1.Warnings, p2.Warnings)
		}
	})
}
