package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (xs is sorted in place). It returns 0 for no samples;
// callers report the sample count beside it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// settledRSS is this process's resident set, in MB, once its garbage is
// collected and returned to the system: the memory the workload's state
// holds. A resident set read while the load runs moves, from run to run,
// with how far the heap overshoots its goal, and that grows with the
// host's speed.
func settledRSS() float64 {
	runtime.GC()
	debug.FreeOSMemory()
	return vmRSS("self")
}

// rssSample is how often sampleRSS reads the resident set.
const rssSample = 100 * time.Millisecond

// sampleRSS reads the resident set of process pid every rssSample until
// the returned function is called, which returns the median in MB. It
// serves processes whose garbage collection cannot be triggered from
// outside; the median rather than the peak, which moves with the garbage
// collector's timing from run to run.
func sampleRSS(pid string) func() float64 {
	stop, done := make(chan struct{}), make(chan []float64)
	go func() {
		t := time.NewTicker(rssSample)
		defer t.Stop()
		var xs []float64
		for {
			if v := vmRSS(pid); v > 0 {
				xs = append(xs, v)
			}
			select {
			case <-t.C:
			case <-stop:
				done <- xs
				return
			}
		}
	}()
	return func() float64 {
		close(stop)
		return median(<-done)
	}
}

// vmRSS reads the resident set size, in MB, of process pid ("self" for
// this process) from /proc/<pid>/status.
func vmRSS(pid string) float64 {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTicks reads utime+stime of process pid from /proc/<pid>/stat, in
// clock ticks (USER_HZ, 100 per second on Linux).
func cpuTicks(pid int) float64 {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	s := string(raw)
	// The command name may contain spaces; fields resume after the last ')'.
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(s[i+1:])
	// After ')': state(0) ppid(1) ... utime(11) stime(12).
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return ut + st
}

const clockTicksPerSecond = 100

// opRec is one timed operation: when it ran, its class and how much
// work it did.
type opRec struct {
	start, end time.Time
	class      string
	work       float64
}

// classes holds latencies by operation class.
type classes map[string][]float64

// add adds the operations' durations, in ms.
func (c classes) add(ops []opRec) {
	for _, o := range ops {
		c[o.class] = append(c[o.class], ms(o.end.Sub(o.start)))
	}
}

// median is the geometric mean, over the classes, of each class's
// median; 0 when there are no samples.
func (c classes) median() float64 {
	logs, n := 0.0, 0
	for _, xs := range c {
		if v := median(xs); v > 0 {
			logs += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logs / float64(n))
}

// print writes each class's sample count and median to stderr.
func (c classes) print(what string) {
	names := make([]string, 0, len(c))
	for n := range c {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %s %-36s n=%-6d p50=%.4f ms\n", what, n, len(c[n]), quantile(c[n], 0.5))
	}
}

func (c classes) count() int {
	n := 0
	for _, xs := range c {
		n += len(xs)
	}
	return n
}

// latencies returns the operations' durations in unit.
func latencies(ops []opRec, unit time.Duration) []float64 {
	var out []float64
	for _, o := range ops {
		out = append(out, float64(o.end.Sub(o.start))/float64(unit))
	}
	return out
}

// paced returns a function that starts operations at a steady rate for
// d: each call waits until the next operation is due and reports true,
// until the operations due within d are used up. An operation still
// running when the next is due delays it, so a paced run always does the
// same work, and memory that grows with the work done does not depend on
// the host's speed.
func paced(rate int, d time.Duration) func() bool {
	start := time.Now()
	k := 0
	return func() bool {
		due := time.Duration(k) * time.Second / time.Duration(rate)
		if due >= d {
			return false
		}
		time.Sleep(time.Until(start.Add(due)))
		k++
		return true
	}
}

// until returns a function that reports whether d has not yet passed.
func until(d time.Duration) func() bool {
	deadline := time.Now().Add(d)
	return func() bool { return time.Now().Before(deadline) }
}
