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
	// flattened length. regOff likewise for per-process register files.
	arrOff   []int
	arrTotal int
	regOff   []int
	regTotal int

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
}

// reg returns the flattened index of register ri of process p.
func (s *System) reg(p, ri int) int { return s.regOff[p] + ri }

// Key returns a canonical binary encoding of the full configuration.
func (c *Config) Key() string { return string(c.appendKey(nil, nil)) }

// appendKey encodes the configuration into buf; when dead is non-nil it
// holds, per process, the flattened start offset of the process's
// registers or -1 when the process has terminated (its registers are
// dead and masked out), with a final total-length sentinel.
func (c *Config) appendKey(buf []byte, dead []int) []byte {
	for _, v := range c.mem {
		buf = appendVal(buf, v)
	}
	for _, v := range c.arr {
		buf = appendVal(buf, v)
	}
	for _, pc := range c.pcs {
		buf = appendVal(buf, lang.Value(pc))
	}
	if dead == nil {
		for _, v := range c.regs {
			buf = appendVal(buf, v)
		}
	} else {
		for p := 0; p < len(dead)-1; p++ {
			off := dead[p]
			if off < 0 {
				buf = append(buf, 0xFD)
				continue
			}
			end := dead[p+1]
			if end < 0 {
				// Find the next live offset or the sentinel.
				for q := p + 2; ; q++ {
					if dead[q] >= 0 {
						end = dead[q]
						break
					}
				}
			}
			for _, v := range c.regs[off:end] {
				buf = appendVal(buf, v)
			}
		}
	}
	buf = appendVal(buf, lang.Value(c.cur+1))
	return buf
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

// DedupKey appends the search key to buf: terminated processes'
// registers are dead and therefore masked.
func (s *System) DedupKey(c *Config, buf []byte) []byte {
	out, _ := s.dedupKey(c, buf, nil)
	return out
}

// dedupKey is DedupKey with a caller-owned scratch slice for the
// per-process dead-register offsets; the (possibly grown) scratch is
// returned for reuse, so hot callers pay no allocation per state.
func (s *System) dedupKey(c *Config, buf []byte, scratch []int) ([]byte, []int) {
	dead := scratch[:0]
	for p := range s.Prog.Procs {
		if s.Prog.Procs[p].Terminated(c.pcs[p]) {
			dead = append(dead, -1)
		} else {
			dead = append(dead, s.regOff[p])
		}
	}
	dead = append(dead, s.regTotal)
	return c.appendKey(buf, dead), dead
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
