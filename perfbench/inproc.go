package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"ravbmc/internal/core"
	"ravbmc/internal/litmus"
)

// inproc is a workload verified inside the benchmark's own process,
// query by query, the way `vbmc -bench X -k K -l L` runs one.
type inproc struct {
	name    string
	queries func(seed int64, limit int) ([]query, error)
	// warm names the light query each set-up runs once, so lazy
	// initialisation is paid before timing and shows in setup_s.
	warm string
	// minQuery is how long a query repeats for (at most maxReps runs);
	// its time is the fastest run, which steadies the short queries
	// without repeating the long ones. The runs do identical work, and
	// load from outside the benchmark only ever slows one down.
	minQuery time.Duration
	// overheadAll makes the traced run measure the obs.Recorder
	// overhead on every query, not only the short ones.
	overheadAll bool
}

const (
	maxReps   = 20
	setupReps = 5
)

// vbmcOptions are vbmc's defaults for the query's bounds: no timeout,
// serial search, no reduction, no TMAI pre-pass. Under them the states
// explored depend on the input alone.
func vbmcOptions(q query) core.Options { return core.Options{K: q.K, Unroll: q.L} }

// measured is one query's samples.
type measured struct {
	verdict []float64 // seconds of each core.Run
	oracle  float64   // seconds of the RA oracle (litmus only)
	alloc   uint64    // bytes allocated by the first run and the oracle
	res     core.Result
	err     error
	// oracleVerdict is the RA oracle's verdict for litmus tests.
	oracleVerdict string
	// changed is set when a repetition disagreed with the first run.
	changed bool
}

func (m *measured) seconds() float64 { return minimum(m.verdict) }

func (w inproc) setup(cfg config) ([]query, float64, error) {
	var times []float64
	var qs []query
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var err error
		qs, err = w.queries(cfg.Seed, cfg.Limit)
		if err != nil {
			return nil, 0, err
		}
		if len(qs) == 0 {
			return nil, 0, fmt.Errorf("%s: no queries", w.name)
		}
		warm := qs[0]
		for _, q := range qs {
			if q.Program == w.warm {
				warm = q
				break
			}
		}
		if _, err := core.Run(warm.Prog, vbmcOptions(warm)); err != nil {
			return nil, 0, fmt.Errorf("%s: warm-up %s: %w", w.name, warm.Program, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return qs, median(times), nil
}

func (w inproc) run(cfg config) (result, error) {
	qs, setup, err := w.setup(cfg)
	if err != nil {
		return result{}, err
	}
	if cfg.Trace {
		return w.traced(cfg, qs)
	}
	ms := make([]measured, len(qs))
	start := time.Now()
	for {
		w.pass(qs, ms)
		// Another pass runs each query once more, spreading a query's
		// runs over the measuring time; it starts only if it fits.
		next := 0.0
		for i := range ms {
			if n := len(ms[i].verdict); n < maxReps {
				next += ms[i].verdict[n-1]
			}
		}
		if next == 0 || time.Since(start).Seconds()+next > cfg.Seconds {
			break
		}
	}
	var res result
	var verdicts []float64
	var wall float64
	var states int
	var alloc uint64
	for i, q := range qs {
		m := &ms[i]
		rw := judge(cfg.Workload, q, m.res, m.err, m.oracleVerdict)
		rw.Seconds, rw.Reps = m.seconds(), len(m.verdict)
		if m.changed && rw.Failure == "" {
			rw.Failure = "a repetition returned another verdict"
		}
		res.add(rw)
		verdicts = append(verdicts, m.seconds())
		wall += m.seconds() + m.oracle
		states += m.res.States
		alloc += m.alloc
	}
	res.set("setup_s", setup, "s")
	res.set("wall_s", wall, "s")
	res.set("verdict_p50_s", quantile(verdicts, 0.5), "s")
	res.set("verdict_p90_s", quantile(verdicts, 0.9), "s")
	res.set("verdict_geomean_s", geomean(verdicts), "s")
	res.set("states", float64(states), "count")
	res.set("alloc_mb", float64(alloc)/1e6, "MB")
	res.set("peak_rss_mb", peakRSSMB(os.Getpid()), "MB")
	return res, nil
}

// pass runs every query once more; a query repeats while it has run
// for less than minQuery in total, up to maxReps runs over all passes. The first pass also measures
// allocation and, for litmus tests, decides the test with the oracle.
func (w inproc) pass(qs []query, ms []measured) {
	for i, q := range qs {
		m := &ms[i]
		first := len(m.verdict) == 0
		var before, after runtimeMem
		spent := 0.0
		for _, d := range m.verdict {
			spent += d
		}
		for rep := 0; len(m.verdict) < maxReps && (rep == 0 || spent < w.minQuery.Seconds()); rep++ {
			// Each run starts from a collected heap, as a fresh vbmc
			// process does, so a query's time does not depend on the
			// garbage its predecessors left.
			runtime.GC()
			if first && rep == 0 {
				before.read()
			}
			t := time.Now()
			res, err := core.Run(q.Prog, vbmcOptions(q))
			d := time.Since(t).Seconds()
			m.verdict = append(m.verdict, d)
			spent += d
			if first && rep == 0 {
				m.res, m.err = res, err
				if isLitmus(q) {
					t = time.Now()
					m.oracleVerdict = verdictName(litmus.Oracle(litmus.Test{Name: q.Program, Prog: q.Prog}))
					m.oracle = time.Since(t).Seconds()
				}
				after.read()
				m.alloc = after.total - before.total
			} else if err != nil || res.Verdict != m.res.Verdict || res.WitnessValidated != m.res.WitnessValidated {
				m.changed = true
			}
		}
	}
}

// isLitmus reports whether the RA oracle decides the query (a table
// row's verdict is fixed by its protocol version instead).
func isLitmus(q query) bool { return q.Want == "" }

// judge checks one verification against its known answer. A failure is
// a wrong verdict, an INCONCLUSIVE, an error, or an UNSAFE result
// without a replay-validated witness.
func judge(workload string, q query, res core.Result, err error, oracle string) row {
	rw := row{
		Workload: workload, Query: q.ID, Program: q.Program, K: q.K, L: q.L,
		Want: q.Want, States: res.States, Cache: "none",
	}
	if isLitmus(q) {
		rw.Want = oracle
	}
	if err != nil {
		rw.Verdict = "ERROR"
		rw.Failure = err.Error()
		return rw
	}
	rw.Verdict = res.Verdict.String()
	switch {
	case q.Literature != "" && oracle != q.Literature:
		rw.Failure = fmt.Sprintf("RA oracle says %s, the literature %s", oracle, q.Literature)
	case rw.Verdict != rw.Want:
		rw.Failure = fmt.Sprintf("verdict %s, want %s", rw.Verdict, rw.Want)
	case res.Verdict == core.Unsafe && !res.WitnessValidated:
		rw.Failure = "witness not validated: " + res.WitnessErr
	}
	return rw
}
