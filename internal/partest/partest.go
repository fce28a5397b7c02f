// Package partest is the serial/parallel differential test harness for
// the search engines (internal/ra, internal/sc) and the VBMC pipeline
// (internal/core). It runs the same verification query serially and at
// several work-stealing pool widths and asserts the results agree:
// identical verdicts everywhere; in census mode additionally identical
// state counts, transition counts and byte-identical witnesses (the
// engines' order-independent dedup discipline and minimal-fingerprint
// witness tie-break make full census results schedule-invariant — see
// DESIGN.md). On a mismatch the harness shrinks the program to a
// 1-minimal failing witness before reporting, so a parity bug arrives
// as a few-line program instead of a corpus index.
package partest

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"time"

	"ravbmc/internal/benchmarks"
	"ravbmc/internal/core"
	"ravbmc/internal/lang"
	"ravbmc/internal/litmus"
	"ravbmc/internal/ra"
	"ravbmc/internal/sc"
)

// Widths returns the parallel pool widths under differential test:
// 1 (a one-worker pool, the anchor closest to serial), 2, 4, the CPU
// count, and the RAVBMC_TEST_JOBS override if set — deduplicated. CI
// sets RAVBMC_TEST_JOBS=8 so wide pools are exercised even on
// single-core runners.
func Widths() []int {
	ws := []int{1, 2, 4, runtime.NumCPU()}
	if s := os.Getenv("RAVBMC_TEST_JOBS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			ws = append(ws, n)
		}
	}
	seen := map[int]bool{}
	out := ws[:0]
	for _, w := range ws {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// Case is one corpus program under differential test.
type Case struct {
	Name string
	Prog *lang.Program
}

// Classics returns every classic litmus shape as a case.
func Classics() []Case {
	var cs []Case
	for _, t := range litmus.Classic() {
		cs = append(cs, Case{Name: "classic/" + t.Name, Prog: t.Prog})
	}
	return cs
}

// GeneratedSample returns n programs drawn without replacement from the
// systematically generated litmus corpora (two-thread 3-op and
// three-thread 2-op), using a seeded permutation so every run of the
// harness tests the same sample.
func GeneratedSample(seed int64, n int) []Case {
	all := litmus.Generated(3)
	all = append(all, litmus.GeneratedThreads(3, 2)...)
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(all))
	if n > len(perm) {
		n = len(perm)
	}
	var cs []Case
	for _, i := range perm[:n] {
		cs = append(cs, Case{Name: "gen/" + all[i].Name, Prog: all[i].Prog})
	}
	return cs
}

// Benchmarks returns small instances of the paper's mutex benchmarks,
// loop-unrolled with L=2 so both engines face a finite space: big
// enough to have real frontiers worth stealing, small enough for a
// multi-width sweep in test time.
func Benchmarks(names ...string) []Case {
	if len(names) == 0 {
		names = []string{"peterson_0(2)", "peterson_4(2)", "dekker_0", "bakery_3(2)"}
	}
	var cs []Case
	for _, name := range names {
		p, err := benchmarks.ByName(name)
		if err != nil {
			panic(err) // a typo in the fixed list above, not a runtime condition
		}
		cs = append(cs, Case{Name: "bench/" + name, Prog: lang.Unroll(p, 2)})
	}
	return cs
}

// RADiff explores prog serially and with a workers-wide pool and
// returns a description of the first disagreement, or "" when the
// results match. In census mode (StopOnViolation=false) everything is
// compared, witness bytes included; in stop mode only the verdict and
// witness presence are (which violation a stopped parallel search
// reports is schedule-dependent by design).
func RADiff(prog *lang.Program, opts ra.Options, workers int, seed int64) string {
	cp, err := lang.Compile(prog)
	if err != nil {
		return "" // a shrink candidate left the RA fragment; not a parity issue
	}
	sys := ra.NewSystem(cp)
	sopts := opts
	sopts.Workers = 0
	ser := sys.Explore(sopts)
	popts := opts
	popts.Workers = workers
	popts.StealSeed = seed
	par := sys.Explore(popts)
	if ser.TimedOut || par.TimedOut {
		return fmt.Sprintf("timed out (serial=%v parallel=%v): parity unverifiable", ser.TimedOut, par.TimedOut)
	}
	if ser.Violation != par.Violation {
		return fmt.Sprintf("workers=%d seed=%d: Violation %v (serial) vs %v (parallel)", workers, seed, ser.Violation, par.Violation)
	}
	if ser.TargetReached != par.TargetReached {
		return fmt.Sprintf("workers=%d seed=%d: TargetReached %v vs %v", workers, seed, ser.TargetReached, par.TargetReached)
	}
	if ser.Violation && (ser.Trace == nil) != (par.Trace == nil) {
		return fmt.Sprintf("workers=%d seed=%d: witness presence %v vs %v", workers, seed, ser.Trace != nil, par.Trace != nil)
	}
	if opts.StopOnViolation {
		return ""
	}
	if ser.States != par.States || ser.Transitions != par.Transitions {
		return fmt.Sprintf("workers=%d seed=%d: states/transitions %d/%d (serial) vs %d/%d (parallel)",
			workers, seed, ser.States, ser.Transitions, par.States, par.Transitions)
	}
	if ser.Violations != par.Violations {
		return fmt.Sprintf("workers=%d seed=%d: Violations %d vs %d", workers, seed, ser.Violations, par.Violations)
	}
	if ser.Exhausted != par.Exhausted {
		return fmt.Sprintf("workers=%d seed=%d: Exhausted %v vs %v", workers, seed, ser.Exhausted, par.Exhausted)
	}
	if ser.PeakMessages != par.PeakMessages {
		return fmt.Sprintf("workers=%d seed=%d: PeakMessages %d vs %d", workers, seed, ser.PeakMessages, par.PeakMessages)
	}
	st, pt := "<none>", "<none>"
	if ser.Trace != nil {
		st = ser.Trace.String()
	}
	if par.Trace != nil {
		pt = par.Trace.String()
	}
	if st != pt {
		return fmt.Sprintf("workers=%d seed=%d: witness differs\nserial:\n%s\nparallel:\n%s", workers, seed, st, pt)
	}
	return ""
}

// SCDiff is RADiff for the context-bounded SC checker. Census mode is
// sc.Options.CensusViolations.
func SCDiff(prog *lang.Program, opts sc.Options, workers int, seed int64) string {
	cp, err := lang.Compile(prog)
	if err != nil {
		return ""
	}
	sys := sc.NewSystem(cp)
	sopts := opts
	sopts.Workers = 0
	ser := sys.Check(sopts)
	popts := opts
	popts.Workers = workers
	popts.StealSeed = seed
	par := sys.Check(popts)
	if ser.TimedOut || par.TimedOut {
		return fmt.Sprintf("timed out (serial=%v parallel=%v): parity unverifiable", ser.TimedOut, par.TimedOut)
	}
	if ser.Violation != par.Violation {
		return fmt.Sprintf("workers=%d seed=%d: Violation %v (serial) vs %v (parallel)", workers, seed, ser.Violation, par.Violation)
	}
	if ser.TargetReached != par.TargetReached {
		return fmt.Sprintf("workers=%d seed=%d: TargetReached %v vs %v", workers, seed, ser.TargetReached, par.TargetReached)
	}
	if ser.Violation && (ser.Trace == nil) != (par.Trace == nil) {
		return fmt.Sprintf("workers=%d seed=%d: witness presence %v vs %v", workers, seed, ser.Trace != nil, par.Trace != nil)
	}
	if !opts.CensusViolations {
		return ""
	}
	if ser.States != par.States || ser.Transitions != par.Transitions {
		return fmt.Sprintf("workers=%d seed=%d: states/transitions %d/%d (serial) vs %d/%d (parallel)",
			workers, seed, ser.States, ser.Transitions, par.States, par.Transitions)
	}
	if ser.Violations != par.Violations {
		return fmt.Sprintf("workers=%d seed=%d: Violations %d vs %d", workers, seed, ser.Violations, par.Violations)
	}
	if ser.Exhausted != par.Exhausted {
		return fmt.Sprintf("workers=%d seed=%d: Exhausted %v vs %v", workers, seed, ser.Exhausted, par.Exhausted)
	}
	st, pt := "<none>", "<none>"
	if ser.Trace != nil {
		st = ser.Trace.String()
	}
	if par.Trace != nil {
		pt = par.Trace.String()
	}
	if st != pt {
		return fmt.Sprintf("workers=%d seed=%d: witness differs\nserial:\n%s\nparallel:\n%s", workers, seed, st, pt)
	}
	return ""
}

// CoreDiff runs the full VBMC pipeline serially and with parallel
// inner searches and compares the verdict (core's deepening ladder and
// probe make intermediate counts inherently budget-dependent, so
// the contract at this layer is verdict equality plus a validated
// witness).
func CoreDiff(prog *lang.Program, opts core.Options, workers int, seed int64) string {
	sopts := opts
	sopts.Workers = 0
	ser, err := core.Run(prog, sopts)
	if err != nil {
		return ""
	}
	popts := opts
	popts.Workers = workers
	popts.StealSeed = seed
	par, perr := core.Run(prog, popts)
	if perr != nil {
		return fmt.Sprintf("workers=%d: parallel run failed: %v", workers, perr)
	}
	if ser.Verdict != par.Verdict {
		return fmt.Sprintf("workers=%d seed=%d: verdict %v (serial) vs %v (parallel)", workers, seed, ser.Verdict, par.Verdict)
	}
	if par.Verdict == core.Unsafe && !par.WitnessValidated {
		return fmt.Sprintf("workers=%d seed=%d: parallel witness failed validation: %s", workers, seed, par.WitnessErr)
	}
	return ""
}

// SCReduceDiff checks the source-DPOR reduction against the unreduced
// search, both serial and both at an unbounded context bound (the
// reduction's own precondition). The contract mirrors the serial/
// parallel one: identical Violation and Exhausted, a witness whenever
// the search stops on one, and — since the reduced search explores a
// representative subset — a state count never above the unreduced run's.
func SCReduceDiff(prog *lang.Program, opts sc.Options) string {
	cp, err := lang.Compile(prog)
	if err != nil {
		return "" // a shrink candidate left the RA fragment; not a parity issue
	}
	sys := sc.NewSystem(cp)
	fopts := opts
	fopts.Reduce = false
	fopts.MaxContexts = 0
	fopts.Workers = 0
	full := sys.Check(fopts)
	ropts := opts
	ropts.Reduce = true
	ropts.MaxContexts = 0
	ropts.Workers = 0
	red := sys.Check(ropts)
	if full.TimedOut || red.TimedOut {
		return fmt.Sprintf("timed out (full=%v reduced=%v): parity unverifiable", full.TimedOut, red.TimedOut)
	}
	if red.Violation != full.Violation {
		return fmt.Sprintf("reduce: Violation %v (reduced) vs %v (unreduced)", red.Violation, full.Violation)
	}
	if red.Exhausted != full.Exhausted {
		return fmt.Sprintf("reduce: Exhausted %v (reduced) vs %v (unreduced)", red.Exhausted, full.Exhausted)
	}
	if red.Violation && red.Trace == nil {
		return "reduce: violation without a witness"
	}
	// State counts are comparable only when both searches ran to
	// completion: a stop-mode violation ends each exploration at an
	// order-dependent prefix, and the reduced order may legitimately
	// reach its first violation later.
	if red.Exhausted && full.Exhausted && red.States > full.States {
		return fmt.Sprintf("reduce: reduced search visited MORE states (%d) than unreduced (%d)", red.States, full.States)
	}
	return ""
}

// CoreReduceDiff runs the full VBMC pipeline with and without the
// reduction and compares verdicts; an UNSAFE from the reduced pipeline
// must still carry a replay-validated witness. (State counts are not
// compared at this layer: the unreduced probes climb a context ladder
// and every unreduced search is bounded in contexts, while each reduced
// search runs unbounded.)
func CoreReduceDiff(prog *lang.Program, opts core.Options) string {
	fopts := opts
	fopts.Reduce = false
	full, err := core.Run(prog, fopts)
	if err != nil {
		return ""
	}
	ropts := opts
	ropts.Reduce = true
	red, rerr := core.Run(prog, ropts)
	if rerr != nil {
		return fmt.Sprintf("reduce: reduced run failed: %v", rerr)
	}
	if red.Verdict != full.Verdict {
		return fmt.Sprintf("reduce: verdict %v (reduced) vs %v (unreduced)", red.Verdict, full.Verdict)
	}
	if red.Verdict == core.Unsafe && !red.WitnessValidated {
		return fmt.Sprintf("reduce: reduced witness failed validation: %s", red.WitnessErr)
	}
	return ""
}

// Diff is a single-program differential check: it returns the first
// mismatch across all pool widths, or "".
type Diff func(*lang.Program) string

// SCReduce builds a Diff running SCReduceDiff under opts.
func SCReduce(opts sc.Options) Diff {
	return func(p *lang.Program) (d string) {
		defer func() {
			if r := recover(); r != nil {
				d = fmt.Sprintf("panic: %v", r)
			}
		}()
		return SCReduceDiff(p, opts)
	}
}

// CoreReduce builds a Diff running CoreReduceDiff under opts.
func CoreReduce(opts core.Options) Diff {
	return func(p *lang.Program) (d string) {
		defer func() {
			if r := recover(); r != nil {
				d = fmt.Sprintf("panic: %v", r)
			}
		}()
		return CoreReduceDiff(p, opts)
	}
}

// RAAllWidths builds a Diff running RADiff at every width.
func RAAllWidths(opts ra.Options, seed int64) Diff {
	return func(p *lang.Program) (d string) {
		defer func() {
			if r := recover(); r != nil {
				d = fmt.Sprintf("panic: %v", r)
			}
		}()
		for _, w := range Widths() {
			if d := RADiff(p, opts, w, seed); d != "" {
				return d
			}
		}
		return ""
	}
}

// SCAllWidths builds a Diff running SCDiff at every width.
func SCAllWidths(opts sc.Options, seed int64) Diff {
	return func(p *lang.Program) (d string) {
		defer func() {
			if r := recover(); r != nil {
				d = fmt.Sprintf("panic: %v", r)
			}
		}()
		for _, w := range Widths() {
			if d := SCDiff(p, opts, w, seed); d != "" {
				return d
			}
		}
		return ""
	}
}

// Reporter receives harness failures; *testing.T satisfies it.
type Reporter interface {
	Helper()
	Errorf(format string, args ...any)
}

// Check runs diff on the case and, on a mismatch, shrinks the program
// to a 1-minimal failing witness before reporting — the parity bug
// arrives as a few-line program, not a corpus index.
func Check(t Reporter, c Case, diff Diff) {
	t.Helper()
	d := diff(c.Prog)
	if d == "" {
		return
	}
	min := lang.Shrink(c.Prog, func(q *lang.Program) bool { return diff(q) != "" })
	t.Errorf("%s: serial/parallel mismatch: %s\nminimal failing program:\n%s", c.Name, d, min)
}

// Soak drives one parallel exploration of prog while cancelling the
// context and expiring the deadline mid-run, for the -race soak: the
// assertions are only that the run returns within budget and reports
// TimedOut sanely; the race detector does the real checking.
func Soak(prog *lang.Program, opts ra.Options, workers int, cancelAfter, deadlineAfter time.Duration) (ra.Result, error) {
	cp, err := lang.Compile(prog)
	if err != nil {
		return ra.Result{}, err
	}
	sys := ra.NewSystem(cp)
	opts.Workers = workers
	if deadlineAfter > 0 {
		opts.Deadline = time.Now().Add(deadlineAfter)
	}
	if cancelAfter > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), cancelAfter)
		defer cancel()
		opts.Ctx = ctx
	}
	return sys.Explore(opts), nil
}
