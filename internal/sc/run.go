package sc

import (
	"fmt"

	"ravbmc/internal/lang"
	"ravbmc/internal/trace"
)

// outcome is the result of one macro step: the configuration at the next
// quiescent point of the stepped process (or at a violation). events is
// filled only by a recording interpreter; accLo:accHi spans the step's
// shared accesses in the interpreter's accOut when it logs them.
type outcome struct {
	cfg          *Config
	events       []trace.Event
	violation    bool
	accLo, accHi int
}

// interp is one interpreter with its reusable scratch. The search runs
// it with record off: no trace event is built and a macro-step costs no
// allocation once the free list and buffers are warm. Witnesses come
// from a recording interpreter replaying the search path (replayPath).
type interp struct {
	sys *System
	// record builds the trace events of every outcome (witness replay).
	record bool
	// logAcc logs each outcome's shared accesses: the reduced search's
	// dynamic footprint.
	logAcc bool
	// free is the config free list: release parks a config nothing
	// references any more, and clone takes parked ones first.
	free []*Config

	out    []outcome     // macroStep result, reused by the next call
	evs    []trace.Event // events of the running branch (record only)
	acc    []int32       // shared accesses of the running branch (logAcc only)
	accOut []int32       // per-outcome access spans of the current step
}

// Access-log entries are a location bit (see reduce.go) shifted left by
// two, or-ed with these flags.
const (
	accRead  = 1
	accWrite = 2
)

// clone returns a copy of c, from the free list when one is parked.
func (in *interp) clone(c *Config) *Config {
	var d *Config
	if n := len(in.free); n > 0 {
		d = in.free[n-1]
		in.free = in.free[:n-1]
	} else {
		d = in.sys.newConfig()
	}
	d.copyFrom(c)
	return d
}

// release parks a config nothing references any more.
func (in *interp) release(c *Config) { in.free = append(in.free, c) }

// maxLocalSteps bounds a single macro step, guarding against local-only
// infinite loops in non-unrolled programs.
const maxLocalSteps = 1 << 16

// macroStep executes one visible operation of process p followed by the
// maximal run of local operations, branching on nondeterminism. Branches
// that fail an assume inside an atomic section are discarded (the atomic
// transition does not exist for those guesses); a failed assume outside
// an atomic section leaves the process parked at the assume. The result
// is valid until the next macroStep call. Each non-violating outcome's
// fingerprint sum is derived from c's.
func (in *interp) macroStep(c *Config, p int) []outcome {
	d := in.clone(c)
	d.cur = p
	in.out = in.out[:0]
	in.evs = in.evs[:0]
	in.acc = in.acc[:0]
	in.accOut = in.accOut[:0]
	in.run(d, p, 0, true, 0)
	for _, oc := range in.out {
		if !oc.violation {
			in.sys.stepHash(oc.cfg, c, p)
		}
	}
	return in.out
}

// initClosure runs the local prefix of every process (before the first
// visible operation), branching on nondeterminism. It returns the set of
// quiescent initial configurations, in a deterministic order, with
// their fingerprint sums computed from scratch.
func (in *interp) initClosure(c *Config) []outcome {
	configs := []outcome{{cfg: in.clone(c)}}
	for p := range in.sys.Prog.Procs {
		var next []outcome
		for _, oc := range configs {
			if oc.violation {
				next = append(next, oc)
				continue
			}
			in.out = in.out[:0]
			in.evs = append(in.evs[:0], oc.events...)
			in.acc = in.acc[:0]
			in.run(oc.cfg, p, 0, false, 0)
			next = append(next, in.out...)
		}
		configs = next
	}
	for _, oc := range configs {
		if !oc.violation {
			oc.cfg.h = in.sys.hash(oc.cfg)
		}
	}
	return configs
}

// emit records c as an outcome of the running branch.
func (in *interp) emit(c *Config, violation bool) {
	oc := outcome{cfg: c, violation: violation}
	if in.record {
		oc.events = append([]trace.Event(nil), in.evs...)
	}
	if in.logAcc {
		oc.accLo = len(in.accOut)
		in.accOut = append(in.accOut, in.acc...)
		oc.accHi = len(in.accOut)
	}
	in.out = append(in.out, oc)
}

// access logs one shared access of the running branch.
func (in *interp) access(bit int, flags int32) {
	if in.logAcc {
		in.acc = append(in.acc, int32(bit)<<2|flags)
	}
}

// run interprets process p on the owned configuration c until the next
// quiescent point. firstStep grants permission to execute one visible
// instruction; afterwards any visible instruction outside an atomic
// section is a quiescent point.
func (in *interp) run(c *Config, p int, atomicDepth int, firstStep bool, steps int) {
	s := in.sys
	code := s.code[p]
	regs := s.procRegs(c, p)
	nVars := len(s.Prog.Vars)
	for ; steps < maxLocalSteps; steps++ {
		pc := c.pcs[p]
		ins := &code[pc]
		if !firstStep && atomicDepth == 0 && ins.visible {
			in.emit(c, false)
			return
		}
		// src is the named instruction, consulted only to build events.
		src := &s.Prog.Procs[p].Code[pc]
		switch ins.op {
		case lang.OpTermProc:
			in.emit(c, false)
			return
		case lang.OpReadVar:
			v := c.mem[ins.loc]
			regs[ins.reg] = v
			in.access(ins.loc, accRead)
			if in.record {
				in.event(p, src, trace.Event{Kind: trace.KindRead, Var: src.Var, Reg: src.Reg, Val: v, HasVal: true})
			}
			c.pcs[p] = ins.next
		case lang.OpWriteVar:
			v := s.eval(ins.val, regs)
			c.mem[ins.loc] = v
			in.access(ins.loc, accWrite)
			if in.record {
				in.event(p, src, trace.Event{Kind: trace.KindWrite, Var: src.Var, Val: v, HasVal: true})
			}
			c.pcs[p] = ins.next
		case lang.OpCASVar:
			old := s.eval(ins.old, regs)
			if c.mem[ins.loc] != old {
				if atomicDepth > 0 || firstStep {
					in.release(c)
					return // transition does not exist under these guesses
				}
				// Park at the CAS; it may become enabled later.
				in.emit(c, false)
				return
			}
			nv := s.eval(ins.val, regs)
			c.mem[ins.loc] = nv
			in.access(ins.loc, accRead|accWrite)
			if in.record {
				in.event(p, src, trace.Event{Kind: trace.KindCAS, Var: src.Var,
					Old: old, HasOld: true, Val: nv, HasVal: true})
			}
			c.pcs[p] = ins.next
		case lang.OpFenceOp:
			// A release-acquire fence is a no-op under SC.
			if in.record {
				in.event(p, src, trace.Event{Kind: trace.KindFence, Detail: "fence (no-op under SC)"})
			}
			c.pcs[p] = ins.next
		case lang.OpLoadArrEl, lang.OpStoreArrEl:
			idx := s.eval(ins.index, regs)
			if idx < 0 || int(idx) >= s.Arrays[ins.loc].Size {
				if in.record {
					in.event(p, src, trace.Event{Kind: trace.KindViolation,
						Detail: fmt.Sprintf("%s[%d] out of bounds", src.Var, idx)})
				}
				in.emit(c, true)
				return
			}
			cell := s.arrOff[ins.loc] + int(idx)
			if ins.op == lang.OpLoadArrEl {
				v := c.arr[cell]
				regs[ins.reg] = v
				in.access(nVars+ins.loc, accRead)
				if in.record {
					in.event(p, src, trace.Event{Kind: trace.KindRead, Var: src.Var, Reg: src.Reg,
						Val: v, HasVal: true, Idx: int(idx), HasIdx: true})
				}
			} else {
				v := s.eval(ins.val, regs)
				c.arr[cell] = v
				in.access(nVars+ins.loc, accWrite)
				if in.record {
					in.event(p, src, trace.Event{Kind: trace.KindWrite, Var: src.Var,
						Val: v, HasVal: true, Idx: int(idx), HasIdx: true})
				}
			}
			c.pcs[p] = ins.next
		case lang.OpAtomicBegin:
			atomicDepth++
			c.pcs[p] = ins.next
		case lang.OpAtomicEnd:
			atomicDepth--
			c.pcs[p] = ins.next
		case lang.OpAssignReg:
			regs[ins.reg] = s.eval(ins.val, regs)
			c.pcs[p] = ins.next
		case lang.OpNondetReg:
			// High-to-low: in translated programs the "interesting"
			// guesses (view-altering read, tracked write, publish) are
			// the high values, and trying them first reaches weak
			// behaviours — and therefore bugs — much earlier in the DFS.
			// The last branch takes c itself instead of a clone.
			ne, na := len(in.evs), len(in.acc)
			for v := ins.hi; v >= ins.lo; v-- {
				d := c
				if v != ins.lo {
					d = in.clone(c)
				}
				s.procRegs(d, p)[ins.reg] = v
				d.pcs[p] = ins.next
				if in.record {
					in.evs = in.evs[:ne]
					in.event(p, src, trace.Event{Kind: trace.KindLocal, Reg: src.Reg,
						Val: v, HasVal: true, Choice: true})
				}
				in.acc = in.acc[:na]
				in.run(d, p, atomicDepth, false, steps+1)
			}
			if ins.hi < ins.lo {
				in.release(c)
			}
			in.evs, in.acc = in.evs[:ne], in.acc[:na]
			return
		case lang.OpAssumeCond:
			if s.eval(ins.cond, regs) == 0 {
				if atomicDepth > 0 {
					in.release(c)
					return // infeasible guess: discard the atomic branch
				}
				in.emit(c, false)
				return
			}
			c.pcs[p] = ins.next
		case lang.OpAssertCond:
			if s.eval(ins.cond, regs) == 0 {
				if in.record {
					in.event(p, src, trace.Event{Kind: trace.KindViolation,
						Detail: "assert failed: " + src.Cond.String()})
				}
				in.emit(c, true)
				return
			}
			c.pcs[p] = ins.next
		case lang.OpCJmp:
			if s.eval(ins.cond, regs) != 0 {
				c.pcs[p] = ins.next
			} else {
				c.pcs[p] = ins.els
			}
		case lang.OpJmp:
			c.pcs[p] = ins.next
		default:
			panic(fmt.Sprintf("sc: unknown opcode %s", ins.op))
		}
		firstStep = false
	}
	// Local divergence: treat as stuck (drop the branch) — only possible
	// for non-unrolled programs with local-only loops.
	in.emit(c, false)
}

// event appends a witness event of process p at instruction src. The
// structured fields carry the data; the text rendering is derived
// lazily (Event.Text), and only violations carry an explicit Detail.
func (in *interp) event(p int, src *lang.Instr, ev trace.Event) {
	ev.Proc = in.sys.Prog.Procs[p].Name
	ev.Label = src.Label
	in.evs = append(in.evs, ev)
}

// replayPath rebuilds the witness of a search path by re-running it
// with recording on: root indexes the initial closure, each step names
// the process and the index of the outcome taken. Runs are
// deterministic, so the events are exactly those of the searched path.
func (s *System) replayPath(root int, path []pathStep) *trace.Trace {
	in := &interp{sys: s, record: true}
	oc := in.initClosure(s.Init())[root]
	events := oc.events
	c := oc.cfg
	for _, st := range path {
		oc := in.macroStep(c, int(st.proc))[st.idx]
		events = append(events, oc.events...)
		c = oc.cfg
	}
	return &trace.Trace{Events: events}
}

// pathStep is one macro-step of a search path: the stepped process and
// the index of the outcome taken among macroStep's results.
type pathStep struct {
	proc, idx int32
}
