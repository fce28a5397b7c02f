package sc

import (
	"fmt"

	"ravbmc/internal/lang"
)

// cinstr is a lang.Instr with its names resolved once, at NewSystem:
// the search interprets these and never looks a name up.
type cinstr struct {
	op lang.Op
	// loc is the shared variable's index in Config.mem, or the array's
	// index in System.Arrays for array accesses.
	loc int
	// reg is the destination register's slot in the process's register
	// file.
	reg                   int
	val, old, index, cond int32 // compiled expressions; -1 when unused
	lo, hi                lang.Value
	next, els             int
	visible               bool // lang.Instr.GloballyVisible
}

// cnode is one node of a compiled expression. Nodes live in
// System.nodes and refer to their operands by index; a register
// operand is a slot in the process's register file.
type cnode struct {
	kind  nodeKind
	v     lang.Value // constant value, or register slot
	x, y  int32      // operand nodes
	unary lang.UnOp
	bin   lang.BinOp
}

type nodeKind uint8

const (
	nodeConst nodeKind = iota
	nodeReg
	nodeUnary
	nodeBinary
)

// resolveProc resolves process p's code against the System's index
// maps. A name missing from them resolves like a failed map lookup did
// in the name-based interpreter: slot 0.
func (s *System) resolveProc(p int) []cinstr {
	pr := s.Prog.Procs[p]
	regs := s.RegIdx[p]
	out := make([]cinstr, len(pr.Code))
	for pc := range pr.Code {
		in := &pr.Code[pc]
		ci := cinstr{
			op:      in.Op,
			reg:     regs[in.Reg],
			val:     s.compileExpr(in.Val, regs),
			old:     s.compileExpr(in.Old, regs),
			index:   s.compileExpr(in.Index, regs),
			cond:    s.compileExpr(in.Cond, regs),
			lo:      in.Lo,
			hi:      in.Hi,
			next:    in.Next,
			els:     in.Else,
			visible: in.GloballyVisible(),
		}
		switch in.Op {
		case lang.OpLoadArrEl, lang.OpStoreArrEl:
			ci.loc = s.ArrIdx[in.Var]
		default:
			ci.loc = s.VarIdx[in.Var]
		}
		out[pc] = ci
	}
	return out
}

// compileExpr appends e to s.nodes and returns its root, or -1 for a
// nil expression. A register the process does not declare compiles to
// the constant 0: lang.Expr.Eval reads unknown registers as 0.
func (s *System) compileExpr(e lang.Expr, regs map[string]int) int32 {
	var n cnode
	switch x := e.(type) {
	case nil:
		return -1
	case lang.Const:
		n = cnode{kind: nodeConst, v: x.V}
	case lang.Reg:
		if slot, ok := regs[x.Name]; ok {
			n = cnode{kind: nodeReg, v: lang.Value(slot)}
		} else {
			n = cnode{kind: nodeConst}
		}
	case lang.Unary:
		n = cnode{kind: nodeUnary, unary: x.Op, x: s.compileExpr(x.X, regs)}
	case lang.Binary:
		n = cnode{kind: nodeBinary, bin: x.Op, x: s.compileExpr(x.L, regs), y: s.compileExpr(x.R, regs)}
	default:
		panic(fmt.Sprintf("sc: unknown expression %T", e))
	}
	s.nodes = append(s.nodes, n)
	return int32(len(s.nodes) - 1)
}

// procRegs returns process p's register file within c.
func (s *System) procRegs(c *Config, p int) []lang.Value {
	return c.regs[s.regOff[p]:s.regOff[p+1]]
}

// eval evaluates compiled expression i over a process's register file
// with lang.Expr.Eval's total semantics: division and remainder by zero
// yield 0, && and || short-circuit, comparisons yield 0 or 1.
func (s *System) eval(i int32, regs []lang.Value) lang.Value {
	n := &s.nodes[i]
	switch n.kind {
	case nodeConst:
		return n.v
	case nodeReg:
		return regs[n.v]
	case nodeUnary:
		x := s.eval(n.x, regs)
		switch n.unary {
		case lang.OpNot:
			return truth(x == 0)
		case lang.OpNeg:
			return -x
		}
		panic(fmt.Sprintf("sc: bad unary op %d", n.unary))
	}
	l := s.eval(n.x, regs)
	switch n.bin {
	case lang.OpAnd:
		if l == 0 {
			return 0
		}
		return truth(s.eval(n.y, regs) != 0)
	case lang.OpOr:
		if l != 0 {
			return 1
		}
		return truth(s.eval(n.y, regs) != 0)
	}
	r := s.eval(n.y, regs)
	switch n.bin {
	case lang.OpAdd:
		return l + r
	case lang.OpSub:
		return l - r
	case lang.OpMul:
		return l * r
	case lang.OpDiv:
		if r == 0 {
			return 0
		}
		return l / r
	case lang.OpMod:
		if r == 0 {
			return 0
		}
		return l % r
	case lang.OpEq:
		return truth(l == r)
	case lang.OpNe:
		return truth(l != r)
	case lang.OpLt:
		return truth(l < r)
	case lang.OpLe:
		return truth(l <= r)
	case lang.OpGt:
		return truth(l > r)
	case lang.OpGe:
		return truth(l >= r)
	}
	panic(fmt.Sprintf("sc: bad binary op %d", n.bin))
}

func truth(b bool) lang.Value {
	if b {
		return 1
	}
	return 0
}
