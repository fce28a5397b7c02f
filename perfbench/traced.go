package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"ravbmc/internal/core"
	"ravbmc/internal/lang"
	"ravbmc/internal/obs"
	"ravbmc/internal/parser"
	"ravbmc/internal/ra"
	"ravbmc/internal/replay"
	"ravbmc/internal/sc"
	"ravbmc/internal/tmai"
)

// span is one timed call into a layer, made from this package.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = root
	Name   string  `json:"name"`
	Query  string  `json:"query"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps the traced run's spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(name, query string, parent int) int {
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Query: query, Start: now})
	return len(t.spans)
}

// end closes the span and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// layerSelf is one layer's self time: its spans' durations minus the
// parts their child spans cover.
type layerSelf struct {
	name  string
	self  float64
	count int
}

func (t *tracer) selfTimes() []layerSelf {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := map[string]*layerSelf{}
	var names []string
	for _, s := range t.spans {
		cs := children[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := 0.0, s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		ls := by[s.Name]
		if ls == nil {
			ls = &layerSelf{name: s.Name}
			by[s.Name] = ls
			names = append(names, s.Name)
		}
		ls.self += s.End - s.Start - covered
		ls.count++
	}
	sort.Strings(names)
	out := make([]layerSelf, 0, len(names))
	for _, n := range names {
		out = append(out, *by[n])
	}
	return out
}

// write saves the spans as JSON lines, one per span, then one line of
// self times per layer.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	self := map[string]float64{}
	for _, ls := range t.selfTimes() {
		self[ls.name] = ls.self
	}
	if err := enc.Encode(map[string]any{"self_seconds": self}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// overheadMax bounds the queries run again for the overhead ratios,
// plain and with an obs.Recorder, each set against the traced run; a
// workload may ask for the recorder overhead on every query.
const overheadMax = 2.0

// scCapUnsafe caps the stand-alone final search on UNSAFE queries: it
// measures the SC backend's cost per state on the query's translation,
// not how soon a search without the probe ladder finds the bug.
const scCapUnsafe = 100_000

// layers accumulates the traced run's per-layer figures.
type layers struct {
	runStates, runSecs                      float64
	safeRunStates, safeRunSecs              float64
	safeFinalStates, safeFinalSecs          float64
	scStates, scSecs, scMallocs, scBytes    float64
	raStates, raMallocs                     float64
	unroll, translate, stmts, compile       []float64
	lift, replaySecs, raSecs, tmaiSecs      []float64
	tmaiProved                              int
	safeN, unsafeN                          int
	obsSecs, obsBase, plainSecs, tracedSecs float64
}

// probe runs one query through core.Run and then through each layer's
// public entry point on its own, each call inside a span.
func (l *layers) probe(tr *tracer, parent int, q query, overheadAll bool) row {
	var mem0, mem1 runtimeMem
	oracle := ""
	if isLitmus(q) {
		cp := lang.MustCompile(q.Prog)
		mem0.read()
		id := tr.start("ra.Explore", q.ID, parent)
		r := ra.NewSystem(cp).Explore(ra.Options{ViewBound: -1, StopOnViolation: true})
		l.raSecs = append(l.raSecs, tr.end(id))
		mem1.read()
		l.raStates += float64(r.States)
		l.raMallocs += float64(mem1.mallocs - mem0.mallocs)
		oracle = verdictName(r.Violation)
	}

	runtime.GC()
	id := tr.start("core.Run", q.ID, parent)
	res, err := core.Run(q.Prog, vbmcOptions(q))
	runSecs := tr.end(id)
	rw := judge("", q, res, err, oracle)
	rw.Seconds = runSecs
	if err != nil {
		return rw
	}
	l.runStates += float64(res.States)
	l.runSecs += runSecs

	src := q.Prog
	id = tr.start("lang.Unroll", q.ID, parent)
	if lang.MaxLoopDepth(src) > 0 {
		src = lang.Unroll(src, q.L)
	}
	src = lang.EnsureLabels(src)
	l.unroll = append(l.unroll, tr.end(id))

	id = tr.start("core.Translate", q.ID, parent)
	translated, err := core.Translate(src, q.K)
	l.translate = append(l.translate, tr.end(id))
	if err != nil {
		rw.Failure = "translate: " + err.Error()
		return rw
	}
	l.stmts = append(l.stmts, float64(translated.CountStmts()))

	id = tr.start("lang.Compile", q.ID, parent)
	cp, err := lang.Compile(translated)
	l.compile = append(l.compile, tr.end(id))
	if err != nil {
		rw.Failure = "compile: " + err.Error()
		return rw
	}

	// The final full-bound search on its own, as core.Run's last rung.
	opts := sc.Options{MaxContexts: q.K + len(q.Prog.Procs)}
	if res.Verdict == core.Unsafe {
		opts.MaxStates = min(res.States, scCapUnsafe)
	}
	mem0.read()
	id = tr.start("sc.Check", q.ID, parent)
	final := sc.NewSystem(cp).Check(opts)
	finalSecs := tr.end(id)
	mem1.read()
	l.scStates += float64(final.States)
	l.scSecs += finalSecs
	l.scMallocs += float64(mem1.mallocs - mem0.mallocs)
	l.scBytes += float64(mem1.total - mem0.total)
	if res.Verdict == core.Safe {
		l.safeN++
		l.safeRunStates += float64(res.States)
		l.safeRunSecs += runSecs
		l.safeFinalStates += float64(final.States)
		l.safeFinalSecs += finalSecs
	}

	if res.Verdict == core.Unsafe && res.Trace != nil {
		l.unsafeN++
		id = tr.start("core.Lift", q.ID, parent)
		acts, err := core.Lift(src, res.Trace)
		l.lift = append(l.lift, tr.end(id))
		if err != nil {
			rw.Failure = "lift: " + err.Error()
			return rw
		}
		id = tr.start("replay.Run", q.ID, parent)
		_, err = replay.Run(src, acts, replay.Options{})
		l.replaySecs = append(l.replaySecs, tr.end(id))
		if err != nil {
			rw.Failure = "replay: " + err.Error()
			return rw
		}
	}

	id = tr.start("tmai.Analyze", q.ID, parent)
	ar := tmai.Analyze(q.Prog, tmai.Options{})
	l.tmaiSecs = append(l.tmaiSecs, tr.end(id))
	if ar.Verdict == tmai.Safe {
		l.tmaiProved++
	}

	// What an obs.Recorder costs core.Run, and on short queries what
	// the span bookkeeping costs it.
	if overheadAll || runSecs <= overheadMax {
		o := vbmcOptions(q)
		o.Obs = obs.New()
		runtime.GC()
		id = tr.start("core.Run+obs", q.ID, parent)
		core.Run(q.Prog, o)
		l.obsSecs += tr.end(id)
		l.obsBase += runSecs
	}
	if runSecs <= overheadMax {
		runtime.GC()
		t := time.Now()
		core.Run(q.Prog, vbmcOptions(q))
		l.plainSecs += time.Since(t).Seconds()
		l.tracedSecs += runSecs
	}
	return rw
}

// probeAll runs probe over qs, one root span per query.
func (l *layers) probeAll(tr *tracer, workload string, qs []query, overheadAll bool, res *result) []row {
	var rows []row
	for _, q := range qs {
		root := tr.start("query", q.ID, 0)
		rw := l.probe(tr, root, q, overheadAll)
		tr.end(root)
		rw.Workload = workload
		res.add(rw)
		rows = append(rows, rw)
	}
	return rows
}

// report sets the per-layer metrics. A metric whose population the
// workload lacks (SAFE queries for the final-search ratios, UNSAFE ones
// for lift and replay, litmus tests for the RA explorer) is taken from
// slice, the light classic shapes probed the same way.
func (l *layers) report(res *result, slice *layers) {
	safe, unsafe, litmus := l, l, l
	if l.safeN == 0 {
		safe = slice
	}
	if l.unsafeN == 0 {
		unsafe = slice
	}
	if len(l.raSecs) == 0 {
		litmus = slice
	}
	res.set("core.states_ratio", ratio(safe.safeRunStates, safe.safeFinalStates), "ratio")
	res.set("core.time_ratio", ratio(safe.safeRunSecs, safe.safeFinalSecs), "ratio")
	res.set("core.states_per_s", ratio(l.runStates, l.runSecs), "1/s")
	res.set("sc.final_states", l.scStates, "count")
	res.set("sc.states_per_s", ratio(l.scStates, l.scSecs), "1/s")
	res.set("sc.allocs_per_state", ratio(l.scMallocs, l.scStates), "count")
	res.set("sc.bytes_per_state", ratio(l.scBytes, l.scStates), "B")
	res.set("lang.unroll_s", mean(l.unroll), "s")
	res.set("core.translate_s", mean(l.translate), "s")
	res.set("core.translate_stmts", mean(l.stmts), "count")
	res.set("lang.compile_s", mean(l.compile), "s")
	res.set("core.lift_s", mean(unsafe.lift), "s")
	res.set("replay.run_s", mean(unsafe.replaySecs), "s")
	res.set("ra.explore_s", mean(litmus.raSecs), "s")
	res.set("ra.states", litmus.raStates, "count")
	res.set("ra.allocs_per_state", ratio(litmus.raMallocs, litmus.raStates), "count")
	res.set("tmai.analyze_s", mean(l.tmaiSecs), "s")
	res.set("tmai.proved_ratio", ratio(float64(l.tmaiProved), float64(len(l.tmaiSecs))), "ratio")
	res.set("obs.recorder_overhead_ratio", ratio(l.obsSecs, l.obsBase), "ratio")
}

// needsSlice reports whether report will take any metric from the
// slice.
func (l *layers) needsSlice() bool {
	return l.safeN == 0 || l.unsafeN == 0 || len(l.raSecs) == 0
}

// servedLayers are the per-layer figures of answers from vbmcd.
func servedLayers(res *result, replies []reply) {
	var overhead, transport, hitLatency, parses []float64
	hits, subsumed := 0, 0
	for _, r := range replies {
		if r.err != nil || r.status != 200 {
			continue
		}
		transport = append(transport, r.latency-r.resp.ElapsedSeconds)
		parses = append(parses, r.parse)
		switch r.disposition() {
		case "computed":
			overhead = append(overhead, r.resp.ElapsedSeconds-r.resp.Seconds)
		case "hit":
			hits++
			hitLatency = append(hitLatency, r.latency)
		case "subsumed":
			subsumed++
			hitLatency = append(hitLatency, r.latency)
		}
	}
	n := float64(len(replies))
	res.set("parser.parse_s", mean(parses), "s")
	res.set("serve.handler_overhead_s", median(overhead), "s")
	res.set("serve.transport_s", median(transport), "s")
	res.set("cache.hit_ratio", ratio(float64(hits), n), "ratio")
	res.set("cache.subsumed_ratio", ratio(float64(subsumed), n), "ratio")
	res.set("cache.hit_latency_s", median(hitLatency), "s")
}

// tracedClient wraps each request in a span, with the source's parse
// timed as a child span first.
func tracedClient(tr *tracer) func(*client) {
	return func(c *client) {
		c.before = func(q query, src string) func(*reply) {
			root := tr.start("vbmcd.verify", q.ID, 0)
			id := tr.start("parser.Parse", q.ID, root)
			_, err := parser.Parse(src)
			parse := tr.end(id)
			return func(r *reply) {
				tr.end(root)
				r.parse = parse
				if err != nil && r.err == nil {
					r.err = fmt.Errorf("benchmark could not parse its own request: %w", err)
				}
			}
		}
	}
}

// servedProbeMax is how many of an in-process workload's light queries
// the traced run also sends through vbmcd.
const servedProbeMax = 8

// servedProbe measures the served layers on an in-process workload:
// each of its light queries (core.Run under half a second) goes to a
// fresh vbmcd as source text, then again at the same K (a cache hit),
// then at the neighbouring K its verdict answers (subsumed).
func servedProbe(cfg config, tr *tracer, qs []query, rows []row, res *result) error {
	s := stream{}
	for i, q := range qs {
		if rows[i].Seconds > 0.5 || len(s.Progs) == servedProbeMax || rows[i].Failure != "" {
			continue
		}
		q.Want = rows[i].Want
		j := len(s.Progs)
		s.Progs = append(s.Progs, q)
		s.Items = append(s.Items,
			item{Prog: j, Fresh: true, K: q.K},
			item{Prog: j, K: q.K})
		next := q.K + 1
		if q.Want == "SAFE" {
			next = q.K - 1
		}
		if next >= 0 {
			s.Items = append(s.Items, item{Prog: j, K: next})
		}
	}
	if len(s.Items) == 0 {
		return fmt.Errorf("%s: no light query to serve", cfg.Workload)
	}
	replies, _, _, _, err := servedPass(cfg, []stream{s}, tracedClient(tr))
	if err != nil {
		return err
	}
	for _, r := range replies[0] {
		res.add(judgeReply(cfg.Workload, r))
	}
	servedLayers(res, replies[0])
	return nil
}

// traced is an in-process workload's traced run: the layer probe over
// its queries, the served probe over its light ones, and the overhead
// of the benchmark's own spans.
func (w inproc) traced(cfg config, qs []query) (result, error) {
	tr := newTracer()
	res := result{Spans: tr}
	var l layers
	rows := l.probeAll(tr, cfg.Workload, qs, w.overheadAll, &res)
	var slice layers
	if l.needsSlice() {
		slice.probeAll(tr, cfg.Workload, lightClassics("slice-"), false, &res)
	}
	l.report(&res, &slice)
	if err := servedProbe(cfg, tr, qs, rows, &res); err != nil {
		return result{}, err
	}
	res.set("trace.overhead_ratio", ratio(l.tracedSecs, l.plainSecs), "ratio")
	return res, nil
}

// mixTraced is vbmcd-mix's traced run: one traced and one plain served
// pass (their ratio is the tracing overhead), then the layer probe over
// the streams' programs in process.
func mixTraced(cfg config, streams []stream) (result, error) {
	tr := newTracer()
	res := result{Spans: tr}
	traced, _, tracedWall, _, err := servedPass(cfg, streams, tracedClient(tr))
	if err != nil {
		return result{}, err
	}
	_, _, plainWall, _, err := servedPass(cfg, streams, nil)
	if err != nil {
		return result{}, err
	}
	var all []reply
	for _, rs := range traced {
		for _, r := range rs {
			res.add(judgeReply(cfg.Workload, r))
			all = append(all, r)
		}
	}
	servedLayers(&res, all)
	var qs []query
	for _, s := range streams {
		for _, q := range s.Progs {
			q.Want = "" // the probe's RA oracle decides, as for litmus-k3
			qs = append(qs, q)
		}
	}
	var l layers
	l.probeAll(tr, cfg.Workload, qs, false, &res)
	var slice layers
	if l.needsSlice() {
		slice.probeAll(tr, cfg.Workload, lightClassics("slice-"), false, &res)
	}
	l.report(&res, &slice)
	res.set("trace.overhead_ratio", ratio(tracedWall, plainWall), "ratio")
	return res, nil
}
