// Package sc implements sequential-consistency semantics for the
// language and a context-bounded explicit-state model checker in the
// spirit of Qadeer–Rehof bounded-context model checking. It plays the
// role CBMC 5.10 + Lazy CSeq play for VBMC in the paper: a sound and
// complete decision procedure for assertion reachability of bounded
// (loop-unrolled) SC programs with nondeterminism, under a bound on the
// number of contexts.
//
// The checker explores at the granularity of "macro steps": one globally
// visible operation (shared read/write/CAS/array access, or a whole
// atomic block) followed by the maximal run of purely local operations.
// Local operations commute with every operation of other processes, so
// restricting preemption to visible points preserves reachability — this
// is the paper's optimisation that a process "does not context switch
// until it writes to a shared variable", generalised to all visible
// operations.
package sc

import (
	"encoding/binary"
	"iter"

	"ravbmc/internal/fp"
	"ravbmc/internal/lang"
)

// System pre-computes indices for SC execution of a compiled program.
// Shared arrays and all register files are flattened into one backing
// slice per configuration: configurations are cloned constantly during
// search, and one contiguous copy beats dozens of small ones.
type System struct {
	Prog   *lang.CompiledProgram
	VarIdx map[string]int
	ArrIdx map[string]int
	Arrays []lang.ArrayDecl
	RegIdx []map[string]int
	// arrOff[i] is the offset of array i in Config.arr; arrTotal the
	// flattened length. regOff likewise for per-process register files,
	// with a final regTotal sentinel, so process p's registers are
	// regs[regOff[p]:regOff[p+1]]. nShared is the number of shared
	// values (scalars and array cells) at the front of Config.vals.
	arrOff   []int
	arrTotal int
	regOff   []int
	regTotal int
	nShared  int

	// code[p] is process p's code with every name resolved to a slot and
	// every expression compiled into nodes (see expr.go); the
	// interpreter never consults the name maps.
	code  [][]cinstr
	nodes []cnode

	// Partial-order-reduction dependence tables, built lazily on first
	// reduced search (see reduce.go).
	reduceState
}

// NewSystem prepares a compiled program for SC execution.
func NewSystem(cp *lang.CompiledProgram) *System {
	s := &System{Prog: cp, VarIdx: map[string]int{}, ArrIdx: map[string]int{}}
	for i, v := range cp.Vars {
		s.VarIdx[v] = i
	}
	for i, a := range cp.Arrays {
		s.ArrIdx[a.Name] = i
		s.Arrays = append(s.Arrays, a)
		s.arrOff = append(s.arrOff, s.arrTotal)
		s.arrTotal += a.Size
	}
	for _, pr := range cp.Procs {
		m := make(map[string]int, len(pr.Regs))
		for i, r := range pr.Regs {
			m[r] = i
		}
		s.RegIdx = append(s.RegIdx, m)
		s.regOff = append(s.regOff, s.regTotal)
		s.regTotal += len(pr.Regs)
	}
	s.regOff = append(s.regOff, s.regTotal)
	s.nShared = len(cp.Vars) + s.arrTotal
	for p := range cp.Procs {
		s.code = append(s.code, s.resolveProc(p))
	}
	return s
}

// Config is an SC machine configuration: one shared store, per-process
// program counters and register files, and the identity of the process
// holding the current context. mem, arr and regs are windows into one
// backing slice, so a clone is two copies.
type Config struct {
	vals []lang.Value // mem, arr and regs back to back
	mem  []lang.Value // shared scalars
	arr  []lang.Value // all shared arrays, flattened
	pcs  []int
	regs []lang.Value // all register files, flattened
	cur  int          // process holding the context; -1 before the first step
	// h is the fingerprint sum of the configuration's dedup key: the
	// sum mod 2^64 of slotHash over keySlots. Set by initClosure and
	// macroStep, valid at quiescent points only.
	h uint64
}

// newConfig allocates a zeroed configuration.
func (s *System) newConfig() *Config {
	nm := len(s.Prog.Vars)
	vals := make([]lang.Value, nm+s.arrTotal+s.regTotal)
	return &Config{
		vals: vals,
		mem:  vals[:nm:nm],
		arr:  vals[nm : nm+s.arrTotal : nm+s.arrTotal],
		regs: vals[nm+s.arrTotal:],
		pcs:  make([]int, len(s.Prog.Procs)),
		cur:  -1,
	}
}

// Init returns the initial configuration: all variables, array cells and
// registers 0 (or the array's declared init value).
func (s *System) Init() *Config {
	c := s.newConfig()
	for i, a := range s.Arrays {
		if a.Init != 0 {
			cells := c.arr[s.arrOff[i] : s.arrOff[i]+a.Size]
			for j := range cells {
				cells[j] = a.Init
			}
		}
	}
	return c
}

// copyFrom overwrites d with c; both belong to the same System.
func (d *Config) copyFrom(c *Config) {
	copy(d.vals, c.vals)
	copy(d.pcs, c.pcs)
	d.cur = c.cur
	d.h = c.h
}

// reg returns the flattened index of register ri of process p.
func (s *System) reg(p, ri int) int { return s.regOff[p] + ri }

// Key returns a canonical binary encoding of the full configuration,
// dead registers included.
func (c *Config) Key() string {
	var buf []byte
	for _, v := range c.vals {
		buf = appendVal(buf, v)
	}
	for _, pc := range c.pcs {
		buf = appendVal(buf, lang.Value(pc))
	}
	return string(appendVal(buf, lang.Value(c.cur+1)))
}

// appendVal encodes one value: 0..250 as a single byte, anything else as
// 0xFE plus eight little-endian bytes.
func appendVal(buf []byte, v lang.Value) []byte {
	if v >= 0 && v <= 250 {
		return append(buf, byte(v))
	}
	var b [9]byte
	b[0] = 0xFE
	binary.LittleEndian.PutUint64(b[1:], uint64(v))
	return append(buf, b[:]...)
}

// The dedup key is a list of slots, each holding one value: index i of
// Config.vals (a shared scalar, an array cell or a register), the pc of
// process p at pcSlot(p), the context holder at curSlot, and, under a
// context bound, the contexts used at ctxSlot. The exact key and the
// fingerprint sum Config.h range over the same slots, listed once by
// keySlots.
func (s *System) pcSlot(p int) int { return s.nShared + s.regTotal + p }
func (s *System) curSlot() int     { return s.pcSlot(len(s.Prog.Procs)) }
func (s *System) ctxSlot() int     { return s.curSlot() + 1 }

// keySlots yields the (slot, value) pairs of c's dedup key in key
// order: shared values, pcs, the registers of live processes, and the
// context holder. A terminated process's registers are dead and left
// out; the pcs before them say which register windows follow, so the
// encoded key stays injective.
func (s *System) keySlots(c *Config) iter.Seq2[int, lang.Value] {
	return func(yield func(int, lang.Value) bool) {
		for i, v := range c.vals[:s.nShared] {
			if !yield(i, v) {
				return
			}
		}
		for p, pc := range c.pcs {
			if !yield(s.pcSlot(p), lang.Value(pc)) {
				return
			}
		}
		for p, pc := range c.pcs {
			if s.Prog.Procs[p].Terminated(pc) {
				continue
			}
			for i := s.nShared + s.regOff[p]; i < s.nShared+s.regOff[p+1]; i++ {
				if !yield(i, c.vals[i]) {
					return
				}
			}
		}
		yield(s.curSlot(), lang.Value(c.cur+1))
	}
}

// slotHash is the fingerprint contribution of value v at slot: a
// bijective mix of a per-slot offset plus the value, so the sum over a
// key's slots behaves like a random 64-bit function of the key. It has
// no random seed: fingerprints, and therefore census witnesses, are the
// same from run to run.
func slotHash(slot int, v lang.Value) uint64 {
	return fp.Mix64(uint64(slot+1)*0x9E3779B97F4A7C15 + uint64(v))
}

// hash returns the fingerprint sum of c computed from scratch.
func (s *System) hash(c *Config) uint64 {
	var h uint64
	for slot, v := range s.keySlots(c) {
		h += slotHash(slot, v)
	}
	return h
}

// stepHash sets d.h for the outcome d of a macro-step of process p from
// c. It diffs only what p can change: the shared values, p's registers
// (all of them leave the key when p terminates), p's pc and the context
// holder. p is live in c.
func (s *System) stepHash(d, c *Config, p int) {
	h := c.h
	for i, v := range d.vals[:s.nShared] {
		if old := c.vals[i]; v != old {
			h += slotHash(i, v) - slotHash(i, old)
		}
	}
	lo, hi := s.nShared+s.regOff[p], s.nShared+s.regOff[p+1]
	if s.Prog.Procs[p].Terminated(d.pcs[p]) {
		for i := lo; i < hi; i++ {
			h -= slotHash(i, c.vals[i])
		}
	} else {
		for i := lo; i < hi; i++ {
			if v, old := d.vals[i], c.vals[i]; v != old {
				h += slotHash(i, v) - slotHash(i, old)
			}
		}
	}
	if pc, old := d.pcs[p], c.pcs[p]; pc != old {
		h += slotHash(s.pcSlot(p), lang.Value(pc)) - slotHash(s.pcSlot(p), lang.Value(old))
	}
	if d.cur != c.cur {
		h += slotHash(s.curSlot(), lang.Value(d.cur+1)) - slotHash(s.curSlot(), lang.Value(c.cur+1))
	}
	d.h = h
}

// DedupKey appends the exact search key of c to buf: terminated
// processes' registers are dead and therefore masked.
func (s *System) DedupKey(c *Config, buf []byte) []byte {
	_, buf = s.dedup(c, -1, true, buf)
	return buf
}

// dedup returns the visited-set fingerprint of c entered having used
// ctx contexts and, when exact is set, appends its exact key to buf. A
// negative ctx means no context bound: the count is left out of both.
// Every SC engine dedups through here, so the serial, parallel,
// reduced and witness-regenerating searches agree on fingerprints.
func (s *System) dedup(c *Config, ctx int, exact bool, buf []byte) (uint64, []byte) {
	h := c.h
	if ctx >= 0 {
		h += slotHash(s.ctxSlot(), lang.Value(ctx))
	}
	if exact {
		for _, v := range s.keySlots(c) {
			buf = appendVal(buf, v)
		}
		if ctx >= 0 {
			buf = appendVal(buf, lang.Value(ctx))
		}
	}
	return fp.Mix64(h), buf
}

// Mem returns the value of the named shared variable.
func (s *System) Mem(c *Config, name string) lang.Value { return c.mem[s.VarIdx[name]] }

// RegValue returns the value of the named register of the named process.
func (s *System) RegValue(c *Config, proc, reg string) lang.Value {
	pi := s.Prog.ProcIndex(proc)
	if pi < 0 {
		return 0
	}
	if i, ok := s.RegIdx[pi][reg]; ok {
		return c.regs[s.reg(pi, i)]
	}
	return 0
}

// Terminated reports whether every process has terminated.
func (s *System) Terminated(c *Config) bool {
	for p := range s.Prog.Procs {
		if !s.Prog.Procs[p].Terminated(c.pcs[p]) {
			return false
		}
	}
	return true
}

// scanOrder fills buf with the canonical process scan order at c: the
// context holder first, then declaration (or reversed) order. Trying
// the holder first explores near-serial schedules before heavily
// preempted ones, so counterexamples that deviate from a serial run in
// few, late places (the typical shape of mutual-exclusion bugs) are
// found early.
func (s *System) scanOrder(buf []int, c *Config, reverse bool) []int {
	order := buf[:0]
	if c.cur >= 0 {
		order = append(order, c.cur)
	}
	n := len(s.Prog.Procs)
	for i := 0; i < n; i++ {
		p := i
		if reverse {
			p = n - 1 - i
		}
		if p != c.cur {
			order = append(order, p)
		}
	}
	return order
}

// procStatus classifies what process p can do next from c.
type procStatus int

const (
	statusReady      procStatus = iota // at a visible instruction
	statusTerminated                   // at the term sink
	statusStuck                        // at a false assume or a blocked CAS
)

// status inspects p without modifying c. It must be called only at
// quiescent points (pc at a visible instruction, term, or assume).
func (s *System) status(c *Config, p int) procStatus {
	in := &s.code[p][c.pcs[p]]
	switch in.op {
	case lang.OpTermProc:
		return statusTerminated
	case lang.OpAssumeCond:
		if s.eval(in.cond, s.procRegs(c, p)) == 0 {
			return statusStuck
		}
		return statusReady
	case lang.OpCASVar:
		if c.mem[in.loc] != s.eval(in.old, s.procRegs(c, p)) {
			return statusStuck
		}
		return statusReady
	default:
		return statusReady
	}
}

// InitialConfigs returns the quiescent initial configurations: the
// initial state with every process's local prefix executed, one per
// combination of initial nondeterministic choices. Prefixes that fail
// an assertion are dropped.
func (s *System) InitialConfigs() []*Config {
	var out []*Config
	for _, oc := range (&interp{sys: s}).initClosure(s.Init()) {
		if !oc.violation {
			out = append(out, oc.cfg)
		}
	}
	return out
}

// MacroSteps exposes the macro-step successors of process p, for
// outcome enumeration by other packages; violating branches are
// dropped.
func (s *System) MacroSteps(c *Config, p int) []*Config {
	if s.status(c, p) != statusReady {
		return nil
	}
	var out []*Config
	for _, oc := range (&interp{sys: s}).macroStep(c, p) {
		if !oc.violation {
			out = append(out, oc.cfg)
		}
	}
	return out
}
