package sc

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ravbmc/internal/fp"
	"ravbmc/internal/obs"
	"ravbmc/internal/sched"
	"ravbmc/internal/trace"
)

// resolveWorkers maps Options.Workers to a pool width: 0 selects the
// serial checker, n >= 1 exactly n workers, negative all CPUs.
func resolveWorkers(w int) int {
	if w < 0 {
		return runtime.NumCPU()
	}
	return w
}

// errStopSearch halts the pool on a terminal condition: first violation
// (stop mode), the target configuration, or the MaxStates cap.
var errStopSearch = errors.New("sc: search stopped")

// testParallelExpandHook mirrors ra's hook: the worker-panic regression
// test injects a crash at the top of a parallel expansion.
var testParallelExpandHook func(worker, depth int)

// scPathNode is one link of a worker's path to a state: the
// macro-step that reached it from its parent. The root link holds the
// initial-closure index in step.idx. Chains are immutable and shared
// structurally between siblings.
type scPathNode struct {
	parent *scPathNode
	step   pathStep
}

// toTrace replays the chain root-first, extended by extra when it is
// non-nil (the violating macro-step, which never becomes a frontier
// item).
func (n *scPathNode) toTrace(s *System, extra *pathStep) *trace.Trace {
	var path []pathStep
	if extra != nil {
		path = append(path, *extra)
	}
	m := n
	for ; m.parent != nil; m = m.parent {
		path = append(path, m.step)
	}
	slices.Reverse(path)
	return s.replayPath(int(m.step.idx), path)
}

// scItem is one frontier item of the parallel check.
type scItem struct {
	cfg      *Config
	path     *scPathNode
	depth    int
	contexts int
}

// scParallel is the shared state of one parallel check; see
// ra.pexplorer for the pattern.
type scParallel struct {
	sys     *System
	opts    Options
	visited *fp.ShardedSet

	states      atomic.Int64
	transitions atomic.Int64
	violations  atomic.Int64
	dedupHits   atomic.Int64
	steps       atomic.Int64
	incomplete  atomic.Bool
	bestVFP     atomic.Uint64

	stopMu        sync.Mutex
	stopTrace     *trace.Trace
	targetReached bool

	// Per-worker interpreters, exact-key buffers and scan orders: the
	// zero-alloc probe guarantee holds per worker.
	interps []*interp
	bufs    [][]byte
	orders  [][]int

	cStates, cTransitions    *obs.Counter
	cDedupHits, cDedupMisses *obs.Counter
	cMacroSteps              *obs.Counter
	gMaxDepth, gMaxContexts  *obs.Gauge

	stats   *obs.SearchStats
	flushMu sync.Mutex
	mark    flushMark
}

// checkParallel partitions the macro-step DFS across a work-stealing
// pool. The dedup discipline makes the explored node set
// schedule-invariant, so under CensusViolations a full run reproduces
// the serial States/Transitions/Violations exactly and the witness —
// regenerated serially from the minimal violation fingerprint — is
// byte-identical. Stop-mode searches report whichever worker won.
func (s *System) checkParallel(opts Options, workers int) Result {
	p := &scParallel{
		sys:     s,
		opts:    opts,
		visited: fp.NewShardedSet(opts.ExactDedup),
		interps: make([]*interp, workers),
		bufs:    make([][]byte, workers),
		orders:  make([][]int, workers),
	}
	for w := range p.interps {
		p.interps[w] = &interp{sys: s}
	}
	p.bestVFP.Store(^uint64(0))
	p.cStates = opts.Obs.Counter("sc.states")
	p.cTransitions = opts.Obs.Counter("sc.transitions")
	p.cDedupHits = opts.Obs.Counter("sc.dedup_hits")
	p.cDedupMisses = opts.Obs.Counter("sc.dedup_misses")
	p.cMacroSteps = opts.Obs.Counter("sc.macro_steps")
	p.gMaxDepth = opts.Obs.Gauge("sc.max_depth")
	p.gMaxContexts = opts.Obs.Gauge("sc.max_contexts_used")
	p.stats = opts.Obs.Search()

	ctx := opts.Ctx
	if !opts.Deadline.IsZero() {
		base := ctx
		if base == nil {
			base = context.Background()
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(base, opts.Deadline)
		defer cancel()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		return Result{TimedOut: true}
	}

	// The initial closure is scanned serially in its deterministic
	// order, exactly like the serial checker: its violations are counted
	// (and, in stop mode, terminal) before any worker starts.
	var res Result
	var roots []scItem
	initWitness := false
	for i, oc := range (&interp{sys: s}).initClosure(s.Init()) {
		if oc.violation {
			res.Violation = true
			res.Violations++
			if res.Trace == nil {
				res.Trace = s.replayPath(i, nil)
				initWitness = true
			}
			if !opts.CensusViolations {
				return res
			}
			continue
		}
		roots = append(roots, scItem{
			cfg:  oc.cfg,
			path: &scPathNode{step: pathStep{idx: int32(i)}},
		})
	}

	pool := sched.NewSteal[scItem](workers, opts.StealSeed)
	err := pool.Run(ctx, roots, p.expand)
	var pe *sched.PanicError
	if errors.As(err, &pe) {
		panic(pe)
	}

	res.States = int(p.states.Load())
	res.Transitions = int(p.transitions.Load())
	res.Violations += int(p.violations.Load())
	res.Violation = res.Violations > 0
	p.stopMu.Lock()
	res.TargetReached = p.targetReached
	if p.stopTrace != nil && res.Trace == nil {
		res.Trace = p.stopTrace
	}
	p.stopMu.Unlock()
	if err != nil && !errors.Is(err, errStopSearch) {
		res.TimedOut = true
	}
	res.Exhausted = !p.incomplete.Load() && !res.TimedOut &&
		!res.TargetReached && !(res.Violation && !opts.CensusViolations)
	if opts.CensusViolations && p.violations.Load() > 0 && !initWitness &&
		!res.TargetReached && !res.TimedOut {
		// Census witness from the search (no init-closure violation
		// outranks it): replay serially for the canonical path of the
		// minimal violation fingerprint.
		res.Trace = s.regenWitness(opts, p.bestVFP.Load())
	}
	p.finalFlush()
	return res
}

// expand visits one frontier item: the same dedup, counters, caps,
// target and macro-step scan as the serial checker's expand.
func (p *scParallel) expand(ctx context.Context, w int, it scItem, push func(scItem), f sched.Frontier) error {
	if hook := testParallelExpandHook; hook != nil {
		hook(w, it.depth)
	}
	if p.steps.Add(1)%deadlineStride == 0 {
		p.flush(f)
	}
	in := p.interps[w]
	// Every child is built by the end of the expansion: park the item.
	defer in.release(it.cfg)
	h, buf := p.sys.dedup(it.cfg, p.opts.ctxCoord(it.contexts), p.visited.Exact(), p.bufs[w][:0])
	p.bufs[w] = buf
	if !p.visited.VisitHash(h, buf, 0) {
		p.dedupHits.Add(1)
		p.cDedupHits.Inc()
		return nil
	}
	states := p.states.Add(1)
	p.cStates.Inc()
	p.cDedupMisses.Inc()
	p.gMaxDepth.SetMax(int64(it.depth))
	p.gMaxContexts.SetMax(int64(it.contexts))
	if p.opts.MaxStates > 0 && states >= int64(p.opts.MaxStates) {
		p.incomplete.Store(true)
		return errStopSearch
	}
	if p.sys.targetAt(it.cfg, p.opts.TargetLabels) {
		p.stopMu.Lock()
		if !p.targetReached {
			p.targetReached = true
			p.stopTrace = it.path.toTrace(p.sys, nil)
		}
		p.stopMu.Unlock()
		return errStopSearch
	}
	c := it.cfg
	p.orders[w] = p.sys.scanOrder(p.orders[w], c, p.opts.ReverseProcs)
	ord := 0
	for _, proc := range p.orders[w] {
		if p.sys.status(c, proc) != statusReady {
			continue
		}
		nc := it.contexts
		if c.cur != proc {
			nc++
			if p.opts.MaxContexts > 0 && nc > p.opts.MaxContexts {
				continue
			}
		}
		p.cMacroSteps.Inc()
		for j, oc := range in.macroStep(c, proc) {
			vord := ord
			ord++
			p.transitions.Add(1)
			p.cTransitions.Inc()
			step := pathStep{int32(proc), int32(j)}
			if oc.violation {
				in.release(oc.cfg)
				p.violations.Add(1)
				if !p.opts.CensusViolations {
					p.stopMu.Lock()
					if p.stopTrace == nil {
						p.stopTrace = it.path.toTrace(p.sys, &step)
					}
					p.stopMu.Unlock()
					return errStopSearch
				}
				storeMin(&p.bestVFP, fp.MixOrdinal(h, vord))
				continue
			}
			push(scItem{
				cfg:      oc.cfg,
				path:     &scPathNode{parent: it.path, step: step},
				depth:    it.depth + 1,
				contexts: nc,
			})
		}
	}
	return nil
}

// flush pushes since-last-flush deltas into the live telemetry block;
// the mark lives under flushMu so concurrent flushes never double-count
// and the sampled totals only ever grow.
func (p *scParallel) flush(f sched.Frontier) {
	if p.stats == nil {
		return
	}
	p.flushMu.Lock()
	cur := flushMark{
		states:      int(p.states.Load()),
		transitions: int(p.transitions.Load()),
		probes:      int(p.steps.Load()),
		hits:        int(p.dedupHits.Load()),
		violations:  int(p.violations.Load()),
	}
	p.stats.Add(
		int64(cur.states-p.mark.states),
		int64(cur.transitions-p.mark.transitions),
		int64(cur.probes-p.mark.probes),
		int64(cur.hits-p.mark.hits),
		int64(cur.violations-p.mark.violations),
	)
	p.mark = cur
	p.flushMu.Unlock()
	if f != nil {
		p.stats.SetFrontier(f.Pending())
	}
	p.stats.SetVisited(int64(p.visited.Len()), p.visited.ApproxBytes())
}

// finalFlush lands the run's totals after the pool has drained.
func (p *scParallel) finalFlush() {
	if p.stats == nil {
		return
	}
	p.flush(nil)
	p.stats.SetFrontier(0)
}

// regenWitness reruns the census serially in directed mode, stopping at
// the violation whose fingerprint the parallel census selected; its
// path is the canonical witness the serial census records. Telemetry
// and budgets are stripped from the replay.
func (s *System) regenWitness(opts Options, vfp uint64) *trace.Trace {
	o := opts
	o.Workers = 0
	o.Obs = nil
	o.Ctx = nil
	o.Deadline = time.Time{}
	o.MaxStates = 0
	o.Reduce = false
	e := newChecker(s, o)
	e.directed = true
	e.stopAtVFP = vfp
	e.exhausted = true
	for i, oc := range e.in.initClosure(s.Init()) {
		if oc.violation {
			continue
		}
		if e.search(i, oc.cfg) {
			break
		}
	}
	return e.witness()
}

// targetAt reports whether every process listed in targets is at its
// label in c; shared by the serial and parallel checkers.
func (s *System) targetAt(c *Config, targets map[string]string) bool {
	if len(targets) == 0 {
		return false
	}
	for name, label := range targets {
		pi := s.Prog.ProcIndex(name)
		if pi < 0 {
			return false
		}
		if s.Prog.Procs[pi].LabelAt(c.pcs[pi]) != label {
			return false
		}
	}
	return true
}

// storeMin lowers a to v if v is smaller (lock-free running minimum).
func storeMin(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v >= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
