package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mira/internal/core"
	"mira/internal/engine"
	"mira/internal/expr"
	"mira/internal/obs"
	"mira/internal/report"
	"mira/internal/roofline"
)

// serveRate is the serve-mix arrival rate in requests per second. It is
// well below the capacity measured for this mix on a 2-core host (see
// README.md), so latency reflects service, not an overloaded queue.
const serveRate = 300

// The serve-mix traffic: most arrivals are interactive single-cell
// /query requests, a few are bulk /sweep requests, and a trickle are
// /analyze requests carrying edited sources, which write to the store.
// repeatShare of the interactive requests reuse an earlier request's
// environment, so they can be served from the evaluation memo.
const (
	bulkShare    = 0.04
	analyzeShare = 0.01
	repeatShare  = 0.5
	// repeatLag keeps repeats at least this many arrivals behind the
	// request they repeat, so that one has been answered.
	repeatLag = 16
)

// mira is one mira-serve subprocess.
type mira struct {
	cmd      *exec.Cmd
	base     string
	stopOnce sync.Once
}

// logWatch collects the server's stderr and reports its listen address.
type logWatch struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (l *logWatch) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if !l.sent {
		s := l.buf.String()
		if i := strings.Index(s, "listening on "); i >= 0 {
			rest := s[i+len("listening on "):]
			if j := strings.IndexByte(rest, ' '); j >= 0 {
				l.addr <- rest[:j]
				l.sent = true
			}
		}
	}
	if l.buf.Len() > 1<<16 {
		l.buf.Reset()
	}
	return len(p), nil
}

// startServer launches mira-serve on a loopback port with its store in
// dir and returns once /readyz answers 200.
func startServer(ctx context.Context, bin, dir string, workers int) (*mira, error) {
	lw := &logWatch{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-cache-dir", dir, "-drain", "2s")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workers))
	cmd.Stderr = lw
	// The server must not outlive a benchmark that dies unexpectedly.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mira-serve: %w", err)
	}
	m := &mira{cmd: cmd}
	select {
	case addr := <-lw.addr:
		m.base = "http://" + addr
	case <-time.After(30 * time.Second):
		m.stop()
		return nil, fmt.Errorf("mira-serve did not report its address")
	}
	for start := time.Now(); ; time.Sleep(2 * time.Millisecond) {
		resp, err := http.Get(m.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return m, nil
			}
		}
		if time.Since(start) > 30*time.Second || ctx.Err() != nil {
			m.stop()
			return nil, fmt.Errorf("mira-serve not ready: %v", err)
		}
	}
}

// stop asks the server to drain and exit, kills it if it does not, and
// waits for it. Later calls do nothing.
func (m *mira) stop() {
	m.stopOnce.Do(func() {
		_ = m.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() {
			_ = m.cmd.Wait() // exit status after SIGTERM carries no information
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = m.cmd.Process.Kill()
			<-done
		}
	})
}

func (m *mira) scrape() (*obs.Exposition, error) {
	resp, err := http.Get(m.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return obs.Parse(string(raw))
}

// arrival is one scheduled request.
type arrival struct {
	at     time.Duration // due time from the start of the run
	class  string        // "query", "sweep" or "analyze"
	path   string
	body   []byte
	repeat bool
	check  bool
	// What the reply is checked against.
	target *serveTarget
	kind   engine.QueryKind
	env    map[string]int64
	source string
}

type serveTarget struct {
	workload, fn, key string
	ref               *engine.Analysis
}

type serveState struct {
	srv     *mira
	dir     string
	targets []*serveTarget
}

func serveSetup(ctx context.Context, cfg phaseCfg, rep int) (*serveState, error) {
	st := &serveState{dir: filepath.Join(cfg.work, fmt.Sprintf("serve-store-%d", rep))}
	if err := os.RemoveAll(st.dir); err != nil {
		return nil, err
	}
	srv, err := startServer(ctx, cfg.serve, st.dir, cfg.workers)
	if err != nil {
		return nil, err
	}
	st.srv = srv
	// Discover the registry keys.
	var wl struct {
		Workloads []struct {
			Name string `json:"name"`
			Key  string `json:"key"`
		} `json:"workloads"`
	}
	if err := getJSON(srv.base+"/workloads", &wl); err != nil {
		srv.stop()
		return nil, err
	}
	for _, t := range [][2]string{{"stream", "stream"}, {"dgemm", "dgemm"}, {"minife", "cg_solve"}} {
		for _, w := range wl.Workloads {
			if w.Name == t[0] {
				st.targets = append(st.targets, &serveTarget{workload: t[0], fn: t[1], key: w.Key})
			}
		}
	}
	if len(st.targets) != 3 {
		srv.stop()
		return nil, fmt.Errorf("mira-serve lists %d of the 3 workloads", len(st.targets))
	}
	return st, nil
}

// prime analyzes each program once, outside any timing, so the load does
// not start with three cold analyses.
func (st *serveState) prime() error {
	for _, t := range st.targets {
		body := fmt.Sprintf(`{"key":%q,"queries":[{"fn":%q,"kind":"static","env":%s}]}`, t.key, t.fn, envJSON(serveEnv(t.fn, 0, 0)))
		if _, err := post(http.DefaultClient, st.srv.base+"/query", []byte(body)); err != nil {
			return fmt.Errorf("prime %s: %w", t.workload, err)
		}
	}
	return nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func post(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return raw, fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(raw))
	}
	return raw, nil
}

func envJSON(env map[string]int64) string {
	b, _ := json.Marshal(env) // a map of int64 always marshals
	return string(b)
}

// serveEnv is the k-th fresh interactive environment for fn.
func serveEnv(fn string, k int, off int64) map[string]int64 {
	t := sweepTarget{fn: fn}
	return t.env(k, off)
}

var serveKinds = []engine.QueryKind{engine.KindStatic, engine.KindCategories, engine.KindRoofline}

// schedule draws the seeded open-loop arrivals for dur: exponential
// gaps at serveRate, each request's class, target and environment.
func (st *serveState) schedule(seed int64, dur time.Duration) ([]arrival, error) {
	rng := newRand(seed, "serve-mix")
	off := rng.Int63n(1000)
	tag := tagFor(seed, 2_000_000)
	name := "serve_" + tag + ".c"
	src := renamed(2, tag)
	plan, err := editOrder(name, src, rng)
	if err != nil {
		return nil, err
	}
	type hot struct {
		t    *serveTarget
		kind engine.QueryKind
		env  map[string]int64
	}
	var past []hot
	var out []arrival
	fresh, edits, bulk := 0, 0, 0
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / serveRate * float64(time.Second))
		if at >= dur {
			return out, nil
		}
		a := arrival{at: at}
		switch u := rng.Float64(); {
		case u < analyzeShare:
			src = editLiteral(src, plan.order[edits%len(plan.order)], edits)
			edits++
			a.class, a.path, a.source, a.check = "analyze", "/analyze", src, true
			a.body, _ = json.Marshal(map[string]string{"name": name, "source": src})
		case u < analyzeShare+bulkShare:
			// Bulk requests rotate through the targets and the two
			// metric kinds, so every run sends the same mix of sweeps.
			t := st.targets[bulk%len(st.targets)]
			kind := serveKinds[bulk/len(st.targets)%2]
			bulk++
			a.class, a.path, a.target, a.kind, a.check = "sweep", "/sweep", t, kind, true
			a.body, _ = json.Marshal(map[string]any{"key": t.key, "fn": t.fn, "kind": kind.String(),
				"axes": (&sweepTarget{fn: t.fn}).grid(rng)})
		default:
			a.class, a.path = "query", "/query"
			if len(past) > repeatLag && rng.Float64() < repeatShare {
				h := past[rng.Intn(len(past)-repeatLag)]
				a.target, a.kind, a.env, a.repeat = h.t, h.kind, h.env, true
			} else {
				a.target = st.targets[rng.Intn(len(st.targets))]
				a.kind = serveKinds[rng.Intn(len(serveKinds))]
				a.env = serveEnv(a.target.fn, fresh, off)
				fresh++
				past = append(past, hot{a.target, a.kind, a.env})
			}
			a.check = rng.Intn(10) == 0
			a.body = []byte(fmt.Sprintf(`{"key":%q,"queries":[{"fn":%q,"kind":%q,"env":%s}]}`,
				a.target.key, a.target.fn, a.kind, envJSON(a.env)))
		}
		out = append(out, a)
	}
}

// outcome is what the load driver saw for one arrival.
type outcome struct {
	sent   bool // sent, with the reply (or error) below
	unsent bool // could not be sent within maxLate of its due time
	due    time.Time
	late   time.Duration
	end    time.Time
	err    error
	body   []byte
}

// maxLate is how far behind its schedule the load driver may fall: an arrival
// it could not send within maxLate of its due time is unsent, a failure.
const maxLate = 2 * time.Second

// driveOpenLoop sends every arrival at its due time (the schedule
// starting now) over the clients' connections, one goroutine each, and
// times each from its due time, so a stall also charges the requests
// queued behind it.
func driveOpenLoop(base string, arr []arrival, res []outcome, clients []*http.Client) {
	var mu sync.Mutex
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(arr) {
					return
				}
				r := &res[i]
				r.due = start.Add(arr[i].at)
				time.Sleep(time.Until(r.due))
				if r.late = time.Since(r.due); r.late > maxLate {
					r.unsent = true
					continue
				}
				body, err := post(c, base+arr[i].path, arr[i].body)
				r.sent, r.end, r.err = true, time.Now(), err
				if arr[i].check {
					r.body = body
				}
			}
		}()
	}
	wg.Wait()
}

// servePhase is the serve-mix measurement.
type servePhase struct {
	cfg      phaseCfg
	st       *serveState
	out      *phaseOut
	clients  []*http.Client // one keep-alive connection each
	arr      []arrival
	res      []outcome
	queryLat []float64 // interactive latencies, ms
	rssMB    float64
}

func startServe(ctx context.Context, cfg phaseCfg) (phase, error) {
	rep := 0
	var prev *serveState
	st, setupS, err := timedSetup(func() (*serveState, error) {
		if prev != nil {
			prev.srv.stop()
		}
		rep++
		s, err := serveSetup(ctx, cfg, rep)
		if err != nil {
			return nil, err
		}
		prev = s
		return s, s.prime()
	})
	if err != nil {
		if prev != nil {
			prev.srv.stop()
		}
		return nil, err
	}
	p := &servePhase{cfg: cfg, st: st, out: newPhaseOut(setupS)}
	if p.arr, err = st.schedule(cfg.seed, cfg.dur); err != nil {
		st.srv.stop()
		return nil, err
	}
	p.res = make([]outcome, len(p.arr))
	for range cfg.workers {
		p.clients = append(p.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}
	return p, nil
}

// tracedServe runs the same open loop between two /metrics
// scrapes, and reports the server's layers from their difference.
func tracedServe(ctx context.Context, cfg phaseCfg) (*phaseOut, error) {
	ph, err := startServe(ctx, cfg)
	if err != nil {
		return nil, err
	}
	p := ph.(*servePhase)
	defer p.stop()
	before, err := p.st.srv.scrape()
	if err != nil {
		return nil, err
	}
	cpu0 := cpuTicks(p.st.srv.cmd.Process.Pid)
	p.measure(ctx, cfg.dur)
	after, err := p.st.srv.scrape()
	if err != nil {
		return nil, err
	}
	out := p.finish(ctx)
	var late []float64
	sent, unsent, repeats, queries := 0, 0, 0, 0
	for i, r := range p.res {
		switch {
		case r.unsent:
			unsent++
		case r.sent:
			sent++
			late = append(late, ms(r.late))
			if p.arr[i].class == "query" {
				queries++
				if p.arr[i].repeat {
					repeats++
				}
			}
		}
	}
	cpu := (cpuTicks(p.st.srv.cmd.Process.Pid) - cpu0) / clockTicksPerSecond * 1000
	serveLayers(out, before, after, cpu, sent)
	out.layer["driver.repeat_share"] = ratio(float64(repeats), float64(queries))
	// The interactive tail is too sensitive to a few seconds of host
	// slowdown to gate on, so it is reported here, unbounded.
	out.layer["driver.query_ms_p99"] = quantile(p.queryLat, 0.99)
	out.layer["driver.late_ms_p99"] = quantile(late, 0.99)
	out.layer["driver.unsent"] = float64(unsent)
	return out, nil
}

// measure drives the open loop over the schedule, which lasts d.
// Interactive queries are the primary operation, classed by target, kind
// and whether they repeat an earlier environment; bulk sweeps are the
// secondary, classed by target and kind. Both are timed from their due
// time.
func (p *servePhase) measure(context.Context, time.Duration) {
	rss := sampleRSS(strconv.Itoa(p.st.srv.cmd.Process.Pid))
	driveOpenLoop(p.st.srv.base, p.arr, p.res, p.clients)
	p.rssMB = rss()
	for i := range p.arr {
		r, a := p.res[i], &p.arr[i]
		if !r.sent || r.err != nil {
			continue
		}
		if a.class == "analyze" {
			continue
		}
		op := []opRec{{start: r.due, end: r.end, class: a.target.fn + "/" + a.kind.String()}}
		switch a.class {
		case "query":
			if a.repeat {
				op[0].class += "/repeat"
			}
			p.out.primary.add(op)
			p.queryLat = append(p.queryLat, ms(r.end.Sub(r.due)))
		case "sweep":
			p.out.secondary.add(op)
		}
	}
}

// rss is the server's median resident set while the load ran.
func (p *servePhase) rss() float64 { return p.rssMB }

func (p *servePhase) finish(ctx context.Context) *phaseOut {
	out := p.out
	for i, r := range p.res {
		a := &p.arr[i]
		switch {
		case r.unsent:
			out.attempted++
			out.fail("%s arrival %d was not sent within %s of its due time", a.class, i, maxLate)
		case r.sent:
			out.attempted++
			if r.err != nil {
				out.fail("%s: %v", a.class, r.err)
			}
		}
	}
	out.note("serve-mix: %d queries and %d sweeps at %d/s", out.primary.count(), out.secondary.count(), serveRate)
	p.st.check(ctx, p.arr, p.res, out)
	return out
}

func (p *servePhase) stop() {
	for _, c := range p.clients {
		c.CloseIdleConnections()
	}
	p.st.srv.stop()
}

// serveLayers derives the engine and serve means from two /metrics
// scrapes bracketing the load.
func serveLayers(out *phaseOut, before, after *obs.Exposition, cpuMS float64, requests int) {
	d := func(name string) float64 { return after.Value(name) - before.Value(name) }
	meanOf := func(fam string, unit float64) float64 {
		return ratio(d(fam+"_sum")*unit, d(fam+"_count"))
	}
	hitRatio := func(hits, misses string) float64 {
		return ratio(d(hits), d(hits)+d(misses))
	}
	out.layer["serve.http_mean_ms"] = meanOf("mira_http_seconds", 1e3)
	out.layer["engine.eval_mean_us"] = meanOf("mira_eval_seconds", 1e6)
	out.layer["engine.eval_memo_hit_ratio"] = hitRatio("mira_eval_memo_hits_total", "mira_eval_memo_misses_total")
	out.layer["engine.sweep_mean_ms"] = meanOf("mira_sweep_seconds", 1e3)
	out.layer["engine.analyze_mean_ms"] = meanOf("mira_analyze_seconds", 1e3)
	out.layer["engine.pipeline_hit_ratio"] = hitRatio("mira_pipeline_cache_hits_total", "mira_pipeline_cache_misses_total")
	// The /analyze trickle reuses the unchanged functions of each edit.
	out.layer["core.reuse_ratio"] = hitRatio("mira_incremental_hits_total", "mira_incremental_misses_total")
	out.layer["serve.cpu_ms_per_request"] = ratio(cpuMS, float64(requests))
	out.layer["cachestore.store_errors"] = d("mira_store_errors_total")
}

// wireCell is the part of a /query or /sweep reply cell the check reads.
type wireCell struct {
	Env     map[string]int64 `json:"env"`
	Error   string           `json:"error"`
	Metrics *struct {
		Instrs int64 `json:"instrs"`
		Flops  int64 `json:"flops"`
		FPI    int64 `json:"fpi"`
	} `json:"metrics"`
	Categories map[string]int64   `json:"categories"`
	Roofline   *roofline.Analysis `json:"roofline"`
}

// check compares sampled replies with the same request answered by an
// in-process engine.
func (st *serveState) check(ctx context.Context, arr []arrival, res []outcome, out *phaseOut) {
	ref := engine.New(engine.Options{Workers: 1})
	for _, t := range st.targets {
		w, _ := report.LookupWorkload(t.workload)
		a, err := ref.AnalyzeCtx(ctx, w.File, w.Source)
		if err != nil {
			out.fail("check: analyze %s in process: %v", t.workload, err)
			return
		}
		t.ref = a
	}
	rng := rand.New(rand.NewSource(1))
	for i := range arr {
		a, r := &arr[i], res[i]
		if !a.check || !r.sent || r.err != nil {
			continue
		}
		out.attempted++
		if err := checkReply(ctx, ref, a, r.body, rng); err != nil {
			out.fail("check %s: %v", a.class, err)
		}
	}
}

func checkReply(ctx context.Context, ref *engine.Engine, a *arrival, body []byte, rng *rand.Rand) error {
	switch a.class {
	case "analyze":
		var reply struct {
			Key       string `json:"key"`
			Functions []struct {
				Name string `json:"name"`
			} `json:"functions"`
		}
		if err := json.Unmarshal(body, &reply); err != nil {
			return err
		}
		p, err := core.Analyze("serve.c", a.source, core.Options{})
		if err != nil {
			return err
		}
		if reply.Key != ref.Key(a.source) || len(reply.Functions) != len(p.Model.Order) {
			return fmt.Errorf("analyze reply (key %s, %d functions) differs from in-process (%s, %d)",
				reply.Key, len(reply.Functions), ref.Key(a.source), len(p.Model.Order))
		}
		return nil
	case "query":
		var reply struct {
			Results []wireCell `json:"results"`
		}
		if err := json.Unmarshal(body, &reply); err != nil {
			return err
		}
		if len(reply.Results) != 1 {
			return fmt.Errorf("%d result cells, want 1", len(reply.Results))
		}
		return sameCell(ctx, a.target, a.kind, a.env, &reply.Results[0])
	default:
		var reply struct {
			Total  int        `json:"total"`
			Points []wireCell `json:"points"`
		}
		if err := json.Unmarshal(body, &reply); err != nil {
			return err
		}
		if reply.Total != len(reply.Points) || reply.Total == 0 {
			return fmt.Errorf("sweep reply has %d of %d points", len(reply.Points), reply.Total)
		}
		for range 4 {
			c := &reply.Points[rng.Intn(len(reply.Points))]
			if err := sameCell(ctx, a.target, a.kind, c.Env, c); err != nil {
				return err
			}
		}
		return nil
	}
}

func sameCell(ctx context.Context, t *serveTarget, kind engine.QueryKind, env map[string]int64, c *wireCell) error {
	if c.Error != "" {
		return fmt.Errorf("%s %s: %s", t.fn, kind, c.Error)
	}
	want := t.ref.RunOne(ctx, engine.Query{Fn: t.fn, Env: expr.EnvFromInts(env), Kind: kind})
	if want.Err != nil {
		return want.Err
	}
	ok := false
	switch {
	case want.Metrics != nil:
		ok = c.Metrics != nil && c.Metrics.Instrs == want.Metrics.Instrs &&
			c.Metrics.Flops == want.Metrics.Flops && c.Metrics.FPI == want.Metrics.FPI()
	case want.Categories != nil:
		ok = reflect.DeepEqual(c.Categories, want.Categories)
	case want.Roofline != nil:
		ok = reflect.DeepEqual(c.Roofline, want.Roofline)
	}
	if !ok {
		return fmt.Errorf("%s %s at %v: reply differs from the in-process engine", t.fn, kind, env)
	}
	return nil
}
