package sc

import (
	"context"
	"time"

	"ravbmc/internal/fp"
	"ravbmc/internal/obs"
	"ravbmc/internal/trace"
)

// Options configures the context-bounded checker.
type Options struct {
	// MaxContexts bounds the number of contexts (maximal blocks of steps
	// by one process); 0 or negative means unbounded. The paper's
	// reduction needs K+n contexts for a K-view-bounded RA run of an
	// n-process program.
	MaxContexts int
	// MaxStates aborts the search after visiting this many distinct
	// quiescent states (Exhausted=false); 0 means unlimited.
	MaxStates int
	// TargetLabels maps process names to labels; reached when all listed
	// processes are simultaneously at their labels.
	TargetLabels map[string]string
	// Deadline aborts the search when passed (checked periodically);
	// zero means none. An aborted search reports Exhausted=false and
	// TimedOut=true.
	Deadline time.Time
	// Ctx aborts the search when cancelled (nil = never): the parallel
	// harnesses (internal/sched callers) cancel losing portfolio runs
	// through it. A non-zero Deadline composes with it — whichever
	// expires first stops the search, with the same
	// Exhausted=false/TimedOut=true outcome.
	Ctx context.Context
	// ReverseProcs flips the process iteration order of the scheduler.
	// Searches biased towards different processes find bugs located in
	// different threads; the VBMC driver alternates both orders.
	ReverseProcs bool
	// ExactDedup makes the visited set retain full state keys instead of
	// 64-bit fingerprints. See ra.Options.ExactDedup and internal/fp.
	ExactDedup bool
	// CensusViolations makes the search continue past failing assertions
	// instead of stopping at the first (the zero value keeps the
	// stop-at-first behaviour): Result.Violations counts every violating
	// macro-step, Result.Trace witnesses the violation with the minimal
	// fingerprint (init-closure violations, scanned in their
	// deterministic order, take priority), and Exhausted reports full
	// coverage. Census results are schedule-invariant, which is what the
	// serial/parallel parity harness asserts.
	CensusViolations bool
	// Reduce enables partial-order reduction: at each state only a
	// persistent set of processes is scheduled, pruned further by sleep
	// sets (see reduce.go and DESIGN.md). Reduction requires an acyclic
	// macro-step graph, so it silently falls back to the unreduced
	// search for programs with loops (run lang.Unroll first) or more
	// than 64 processes, and it is disabled under TargetLabels
	// (reduction preserves violations and final states, not arbitrary
	// intermediate global label combinations). Because commuting
	// independent steps changes context-switch counts, a reduced search
	// always runs with an unbounded context bound: MaxContexts is
	// forced to 0, which only ever adds behaviours, so SAFE+Exhausted
	// remains conclusive for any bound and UNSAFE witnesses are real.
	// With Workers >= 1 a reduced serial search races the unreduced
	// parallel one (first conclusive result wins), trading the
	// deterministic-counts contract for wall-clock.
	Reduce bool
	// Workers selects intra-query parallel checking: 0 serial, n >= 1
	// that many work-stealing workers, negative all CPUs. See
	// ra.Options.Workers for the determinism contract.
	Workers int
	// StealSeed seeds the parallel checker's steal-order RNG; see
	// ra.Options.StealSeed.
	StealSeed int64
	// Obs, when non-nil, receives the search counters ("sc.states",
	// "sc.transitions", "sc.dedup_hits", "sc.dedup_misses",
	// "sc.macro_steps") and gauges ("sc.max_depth",
	// "sc.max_contexts_used"). Repeated Check calls against the same
	// recorder accumulate, so the VBMC restart ladder reports totals.
	Obs *obs.Recorder
}

// Result is the outcome of a bounded SC model-checking run.
type Result struct {
	Violation     bool
	TargetReached bool
	Trace         *trace.Trace
	States        int
	Transitions   int
	// Violations counts the violating macro-steps encountered: at most
	// 1 in the default stop-at-first mode, the full census under
	// CensusViolations.
	Violations int
	// Exhausted is true if every quiescent state reachable within the
	// context bound was covered, so "no violation" is conclusive for
	// that bound.
	Exhausted bool
	// TimedOut is true when the Deadline or a cancelled Ctx cut the
	// search short.
	TimedOut bool
}

// deadlineStride is how many DFS entries pass between cancellation
// polls: checking the context on every entry is measurable, so it is
// sampled. The step counter (unlike the visited-state count) advances
// on every entry including dedup hits, so the check fires even when
// the search stops discovering new states.
const deadlineStride = 1024

// Check explores the SC transition system of the program at macro-step
// granularity under the context bound. The DFS runs on an explicit
// heap-allocated stack, so restart-ladder rounds with deep macro-step
// paths cannot overflow the goroutine stack.
func (s *System) Check(opts Options) Result {
	span := opts.Obs.StartPhase("sc.check")
	span.SetAttrInt("max_contexts", int64(opts.MaxContexts))
	defer span.End()
	if opts.Reduce {
		if len(opts.TargetLabels) > 0 || !s.ReduceApplies() {
			opts.Reduce = false
		} else {
			opts.MaxContexts = 0
		}
	}
	if w := resolveWorkers(opts.Workers); w >= 1 {
		span.SetAttrInt("workers", int64(w))
		if opts.Reduce {
			return s.raceReduced(opts, w)
		}
		return s.checkParallel(opts, w)
	}
	e := newChecker(s, opts)
	// The final flush lands the run's totals in the stats block, so the
	// last telemetry sample matches the Result exactly. Stats accumulate
	// across restart-ladder rounds like the counters do.
	defer e.flushStats(0)
	e.exhausted = true
	// Fold the wall-clock deadline into the cancellation context; the
	// search polls only ctx.Err() from here on.
	if !opts.Deadline.IsZero() {
		base := opts.Ctx
		if base == nil {
			base = context.Background()
		}
		var cancel context.CancelFunc
		e.ctx, cancel = context.WithDeadline(base, opts.Deadline)
		defer cancel()
	} else if opts.Ctx != nil {
		e.ctx = opts.Ctx
	}
	// A context that is already expired aborts before the first state:
	// restart-ladder rounds scheduled after an expired budget must not
	// burn a deadlineStride of search each.
	if e.ctx != nil && e.ctx.Err() != nil {
		e.result.TimedOut = true
		e.result.Exhausted = false
		return e.result
	}
	for i, oc := range e.in.initClosure(s.Init()) {
		if oc.violation {
			e.in.release(oc.cfg)
			e.result.Violation = true
			e.result.Violations++
			// Init-closure violations are scanned in a deterministic
			// order, so "the first one" is a schedule-invariant witness;
			// it outranks any search violation under the census.
			if !e.initWitness && !e.hasWit {
				e.initWitness = true
				e.witRoot = i
			}
			if !e.opts.CensusViolations {
				break
			}
			continue
		}
		if e.search(i, oc.cfg) {
			break
		}
	}
	e.result.Exhausted = e.exhausted && !e.result.TargetReached &&
		!(e.result.Violation && !e.opts.CensusViolations)
	e.result.Trace = e.witness()
	return e.result
}

// newChecker builds a serial checker with its counters bound to
// opts.Obs (nil-safe when Obs is nil).
func newChecker(s *System, opts Options) *scChecker {
	e := &scChecker{
		sys:     s,
		opts:    opts,
		in:      &interp{sys: s, logAcc: opts.Reduce},
		visited: fp.NewSet(opts.ExactDedup),
		bestVFP: ^uint64(0),
	}
	if opts.Reduce {
		if opts.ExactDedup {
			e.rmEx = make(map[string]uint64)
		} else {
			e.rm = make(map[uint64]uint64)
		}
	}
	e.cStates = opts.Obs.Counter("sc.states")
	e.cTransitions = opts.Obs.Counter("sc.transitions")
	e.cDedupHits = opts.Obs.Counter("sc.dedup_hits")
	e.cDedupMisses = opts.Obs.Counter("sc.dedup_misses")
	e.cMacroSteps = opts.Obs.Counter("sc.macro_steps")
	e.gMaxDepth = opts.Obs.Gauge("sc.max_depth")
	e.gMaxContexts = opts.Obs.Gauge("sc.max_contexts_used")
	e.stats = opts.Obs.Search()
	return e
}

// witness replays the recorded witness path, if any, into a trace.
func (e *scChecker) witness() *trace.Trace {
	switch {
	case e.initWitness:
		return e.sys.replayPath(e.witRoot, nil)
	case e.hasWit:
		return e.sys.replayPath(e.witRoot, e.witPath)
	}
	return nil
}

// setWitness records the current path, extended by step when it is
// non-nil, as the witness to replay.
func (e *scChecker) setWitness(step *pathStep) {
	e.hasWit = true
	e.witRoot = e.root
	e.witPath = append(e.witPath[:0], e.path...)
	if step != nil {
		e.witPath = append(e.witPath, *step)
	}
}

type scChecker struct {
	sys       *System
	opts      Options
	in        *interp
	ctx       context.Context // nil when the search has no deadline/cancel scope
	visited   *fp.Set         // dedup fingerprints (exact keys under ExactDedup)
	keyBuf    []byte          // exact-mode key scratch
	steps     int             // DFS entries, for cancellation sampling
	dedupHits int             // visited-set hits, for telemetry flushes
	result    Result
	exhausted bool

	// The DFS: root indexes the initial closure, path holds the
	// macro-steps from it to the state being expanded, kids is one
	// stack of children shared by all frames and stack the frames.
	root  int
	path  []pathStep
	kids  []scChild
	stack []scFrame

	// The witness, replayed into a trace when the search ends: the
	// initial-closure index and path recorded by setWitness (hasWit),
	// or an init-closure violation (initWitness, path empty).
	witRoot int
	witPath []pathStep
	hasWit  bool

	// bestVFP is the smallest violation fingerprint seen so far by the
	// census; initWitness pins the witness to an init-closure violation,
	// which outranks any search violation. directed/stopAtVFP turn the
	// census into the parallel checker's witness-regeneration replay
	// (see ra.regenWitness for the pattern).
	bestVFP     uint64
	initWitness bool
	directed    bool
	stopAtVFP   uint64

	// Reduced-search state (Options.Reduce): the visited maps store the
	// first-visit sleep mask per state (fingerprint or exact keyed),
	// psQueue/orderBuf/execFoot are reusable scratch. See reduce.go.
	rm         map[uint64]uint64
	rmEx       map[string]uint64
	rmKeyBytes int64
	psQueue    []int
	orderBuf   []int
	execFoot   locFoot

	cStates, cTransitions    *obs.Counter
	cDedupHits, cDedupMisses *obs.Counter
	cMacroSteps              *obs.Counter
	gMaxDepth, gMaxContexts  *obs.Gauge

	stats *obs.SearchStats // live telemetry; nil when Obs is nil
	mark  flushMark        // totals as of the last stats flush
}

// flushMark remembers the totals already pushed into the SearchStats
// block, so each flush adds only the delta since the previous one.
type flushMark struct {
	states, transitions, probes, hits, violations int
}

// flushStats pushes the since-last-flush deltas into the live telemetry
// block, plus the current frontier depth and visited-set occupancy. It
// runs on the deadline-poll cadence and once at search end, never per
// state.
func (e *scChecker) flushStats(depth int) {
	if e.stats == nil {
		return
	}
	violations := e.result.Violations
	e.stats.Add(
		int64(e.result.States-e.mark.states),
		int64(e.result.Transitions-e.mark.transitions),
		int64(e.steps-e.mark.probes),
		int64(e.dedupHits-e.mark.hits),
		int64(violations-e.mark.violations),
	)
	e.mark = flushMark{
		states:      e.result.States,
		transitions: e.result.Transitions,
		probes:      e.steps,
		hits:        e.dedupHits,
		violations:  violations,
	}
	e.stats.SetFrontier(int64(depth))
	if e.opts.Reduce {
		n, b := e.reducedVisited()
		e.stats.SetVisited(int64(n), b)
	} else {
		e.stats.SetVisited(int64(e.visited.Len()), e.visited.ApproxBytes())
	}
}

// scChild is one accepted macro-step out of an expanded state: the
// successor configuration, the step that produced it, and the context
// count it is entered with. Violating macro-steps stop the search
// during expansion and never become children.
type scChild struct {
	cfg      *Config
	step     pathStep
	contexts int
	// sleep is the child's inherited sleep mask (reduced search only).
	sleep uint64
}

// scFrame is one explicit-stack DFS frame: its children are
// kids[lo:hi], next is the first one not yet entered, and depth is the
// frame's path length.
type scFrame struct {
	lo, next, hi int
	depth        int
}

// search drives the DFS from initial-closure state root on an explicit
// stack; it returns true when the search should stop (violation/target
// found, state cap hit, or deadline expired).
func (e *scChecker) search(root int, cfg *Config) bool {
	e.root = root
	e.path = e.path[:0]
	e.kids = e.kids[:0]
	if e.expandAny(cfg, 0, 0, 0) {
		return true
	}
	if len(e.kids) == 0 {
		return false
	}
	stack := append(e.stack[:0], scFrame{hi: len(e.kids)})
	defer func() { e.stack = stack[:0] }()
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next == f.hi {
			e.kids = e.kids[:f.lo]
			stack = stack[:len(stack)-1]
			continue
		}
		k := e.kids[f.next]
		f.next++
		depth := f.depth + 1
		e.path = append(e.path[:f.depth], k.step)
		lo := len(e.kids)
		if e.expandAny(k.cfg, k.contexts, depth, k.sleep) {
			return true
		}
		if len(e.kids) > lo {
			// f is invalid after this append (the stack may move).
			stack = append(stack, scFrame{lo: lo, next: lo, hi: len(e.kids), depth: depth})
		}
	}
	return false
}

// expandAny dispatches a node expansion to the reduced or unreduced
// path, then parks the node's configuration: its children are all
// built, and the witness is replayed from the path. sleep is only
// meaningful under Options.Reduce.
func (e *scChecker) expandAny(c *Config, contexts, depth int, sleep uint64) bool {
	var done bool
	if e.opts.Reduce {
		done = e.expandReduced(c, depth, sleep)
	} else {
		done = e.expand(c, contexts, depth)
	}
	e.in.release(c)
	return done
}

// expand visits one state: dedup, counters, caps and target checks,
// then the scan over its macro-steps. It pushes the accepted children
// onto e.kids and reports whether the search is done. contexts counts
// completed+current scheduling blocks; depth counts macro-steps on the
// current path.
func (e *scChecker) expand(c *Config, contexts, depth int) bool {
	e.steps++
	if e.steps%deadlineStride == 0 {
		e.flushStats(depth)
		if e.ctx != nil && e.ctx.Err() != nil {
			e.exhausted = false
			e.result.TimedOut = true
			return true
		}
	}
	// Order-independent dedup (the serial/parallel parity discipline,
	// mirroring ra): under a context bound the contexts-used coordinate
	// is folded into the key and the Visit budget is constant, so
	// whether a node is explored depends only on the node itself, never
	// on discovery order.
	h, key := e.sys.dedup(c, e.opts.ctxCoord(contexts), e.visited.Exact(), e.keyBuf[:0])
	e.keyBuf = key
	if !e.visited.VisitHash(h, key, 0) {
		e.dedupHits++
		e.cDedupHits.Inc()
		return false
	}
	e.result.States++
	e.cStates.Inc()
	e.cDedupMisses.Inc()
	e.gMaxDepth.SetMax(int64(depth))
	e.gMaxContexts.SetMax(int64(contexts))
	if e.opts.MaxStates > 0 && e.result.States >= e.opts.MaxStates {
		e.exhausted = false
		return true
	}
	if e.targetReached(c) {
		e.result.TargetReached = true
		e.setWitness(nil)
		return true
	}
	ord := 0 // macro-step ordinal within this node, for MixOrdinal
	for _, p := range e.scanOrder(c) {
		if e.sys.status(c, p) != statusReady {
			continue
		}
		nc := contexts
		if c.cur != p {
			nc++
			if e.opts.MaxContexts > 0 && nc > e.opts.MaxContexts {
				continue
			}
		}
		e.cMacroSteps.Inc()
		for j, oc := range e.in.macroStep(c, p) {
			vord := ord
			ord++
			e.result.Transitions++
			e.cTransitions.Inc()
			step := pathStep{int32(p), int32(j)}
			if oc.violation {
				if e.violation(oc, step, fp.MixOrdinal(h, vord)) {
					return true
				}
				continue
			}
			e.kids = append(e.kids, scChild{cfg: oc.cfg, step: step, contexts: nc})
		}
	}
	return false
}

// violation accounts one violating macro-step with fingerprint vfp and
// keeps its path as the witness where the mode asks for it; it reports
// whether the search stops.
func (e *scChecker) violation(oc outcome, step pathStep, vfp uint64) bool {
	e.in.release(oc.cfg)
	e.result.Violation = true
	e.result.Violations++
	switch {
	case e.directed:
		if vfp == e.stopAtVFP {
			e.setWitness(&step)
			return true
		}
	case !e.opts.CensusViolations:
		e.setWitness(&step)
		return true
	case !e.initWitness && (!e.hasWit || vfp < e.bestVFP):
		// Census witness: minimal fingerprint wins, the
		// schedule-independent tie-break shared with the parallel
		// checker.
		e.bestVFP = vfp
		e.setWitness(&step)
	}
	return false
}

// ctxCoord is the contexts coordinate of the dedup key: the count
// under a context bound, none (-1) without one.
func (o *Options) ctxCoord(contexts int) int {
	if o.MaxContexts > 0 {
		return contexts
	}
	return -1
}

func (e *scChecker) targetReached(c *Config) bool {
	return e.sys.targetAt(c, e.opts.TargetLabels)
}
