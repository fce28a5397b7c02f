package core

import (
	"testing"
	"time"

	"ravbmc/internal/benchmarks"
	"ravbmc/internal/lang"
	"ravbmc/internal/obs"
)

// TestRunTimedOutInconclusive: an expired deadline must yield
// Verdict=Inconclusive with TimedOut=true — never a spurious SAFE —
// whether the program is actually safe or buggy.
func TestRunTimedOutInconclusive(t *testing.T) {
	for _, p := range []*lang.Program{mpSafe(), sbChecked(false)} {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			res, err := Run(p, Options{K: 2, Timeout: time.Nanosecond})
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != Inconclusive || !res.TimedOut {
				t.Errorf("expired deadline: got verdict=%v timedOut=%v, want INCONCLUSIVE with TimedOut",
					res.Verdict, res.TimedOut)
			}
		})
	}
}

// hasPhase reports whether the report timed the named phase.
func hasPhase(rep *obs.Report, name string) bool {
	for _, ph := range rep.Phases {
		if ph.Name == name {
			return true
		}
	}
	return false
}

// TestObsCountersMatchResult: the recorder's backend counters must
// agree with the hand-threaded Result statistics, and the report must
// carry the run identity.
func TestObsCountersMatchResult(t *testing.T) {
	rec := obs.New()
	res, err := Run(sbChecked(false), Options{K: 2, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep == nil {
		t.Fatal("instrumented run returned no report")
	}
	if rep.Verdict != res.Verdict.String() {
		t.Errorf("report verdict %q != result verdict %q", rep.Verdict, res.Verdict)
	}
	if got := rep.Counters["sc.states"]; got != int64(res.States) {
		t.Errorf("sc.states counter = %d, Result.States = %d", got, res.States)
	}
	if got := rep.Counters["sc.transitions"]; got != int64(res.Transitions) {
		t.Errorf("sc.transitions counter = %d, Result.Transitions = %d", got, res.Transitions)
	}
	if hits, misses := rep.Counters["sc.dedup_hits"], rep.Counters["sc.dedup_misses"]; misses != int64(res.States) {
		t.Errorf("dedup misses = %d (hits %d), want one miss per visited state %d", misses, hits, res.States)
	}
	if !hasPhase(rep, "validate") || !hasPhase(rep, "probe.translate") {
		t.Errorf("report phases missing driver phases: %+v", rep.Phases)
	}
}

// TestUninstrumentedRunHasNoReport: without a recorder the result stays
// lean.
func TestUninstrumentedRunHasNoReport(t *testing.T) {
	res, err := Run(mpObservable(), Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report != nil {
		t.Errorf("uninstrumented run carries a report: %+v", res.Report)
	}
}

// TestObsProbeTierOutcomes: a probe hit is recorded iff the probe found
// the bug — on a SAFE program the probe misses and no hit is recorded;
// on a probe-caught bug exactly one hit is recorded and the driver
// never reaches the final full-bound search.
// The SAFE run also ends with every planned search round run (rounds
// the schedule skips are withdrawn from core.deepen_total), and each
// ladder round's span says how it ended.
func TestObsProbeTierOutcomes(t *testing.T) {
	rec := obs.NewTracing()
	res, err := Run(mpSafe(), Options{K: 2, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Safe {
		t.Fatalf("mp_safe: got %v", res.Verdict)
	}
	c := res.Report.Counters
	if c["core.probes_run"] != 1 || c["core.probe_misses"] != 1 || c["core.probe_hits"] != 0 {
		t.Errorf("safe run probe counters = run:%d hit:%d miss:%d, want 1/0/1",
			c["core.probes_run"], c["core.probe_hits"], c["core.probe_misses"])
	}
	if !hasPhase(res.Report, "final.search") {
		t.Errorf("safe verdict requires the final full-bound search; phases = %+v", res.Report.Phases)
	}
	if rounds, total := c["core.deepen_rounds"], res.Report.Gauges["core.deepen_total"]; rounds == 0 || rounds != total {
		t.Errorf("safe run ran %d search rounds of %d scheduled, want all of them", rounds, total)
	}
	checkDeepenSpans(t, rec.Spans())

	prog, err := benchmarks.ByName("peterson_0")
	if err != nil {
		t.Fatal(err)
	}
	rec = obs.New()
	res, err = Run(prog, Options{K: 2, Unroll: 2, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unsafe {
		t.Fatalf("peterson_0: got %v", res.Verdict)
	}
	c = res.Report.Counters
	if c["core.probe_hits"]+c["core.probe_misses"] != c["core.probes_run"] {
		t.Errorf("probe outcomes don't partition runs: hit:%d miss:%d run:%d",
			c["core.probe_hits"], c["core.probe_misses"], c["core.probes_run"])
	}
	if c["core.probe_hits"] == 1 && hasPhase(res.Report, "final.compile") {
		t.Error("probe hit recorded, but the driver still ran the final pass")
	}
	if c["core.probe_hits"] == 0 && !hasPhase(res.Report, "final.compile") {
		t.Error("no probe hit recorded, but the final pass never ran")
	}
	if c["core.probe_hits"] != 1 {
		t.Errorf("peterson_0 bug is probe-reachable, want exactly one probe hit, got %d", c["core.probe_hits"])
	}
}

// checkDeepenSpans asserts that the span forest has ladder rounds and
// that every one records its bound, order, states and stop reason.
func checkDeepenSpans(t *testing.T, roots []*obs.SpanNode) {
	t.Helper()
	stops := map[string]bool{"exhausted": true, "capped": true, "violation": true, "cancelled": true}
	n := 0
	var walk func([]*obs.SpanNode)
	walk = func(nodes []*obs.SpanNode) {
		for _, sp := range nodes {
			if sp.Name == "probe.deepen" {
				n++
				for _, key := range []string{"max_contexts", "reverse", "states"} {
					if sp.Attrs[key] == "" {
						t.Errorf("%s span %d has no %s attribute: %v", sp.Name, sp.ID, key, sp.Attrs)
					}
				}
				if !stops[sp.Attrs["stop"]] {
					t.Errorf("%s span %d: stop = %q, want exhausted, capped, violation or cancelled",
						sp.Name, sp.ID, sp.Attrs["stop"])
				}
			}
			walk(sp.Children)
		}
	}
	walk(roots)
	if n == 0 {
		t.Error("no probe deepening round in the span tree")
	}
}
