// Package core implements the paper's primary contribution: the
// polynomial code-to-code translation [[.]]_K (Sec. 5, Fig. 4,
// Algorithms 1–5) from a program under RA with a budget of K view
// switches to a program under SC, together with the VBMC driver that
// feeds the translated program to the bounded SC model checker.
//
// # Data structures (paper "Data Structures" paragraph)
//
// For each shared variable x the translated program carries, per
// process, a local View record (registers _vt_x, _vv_x, _vl_x — the
// paper's view_x_t, view_x_v, view_x_l). Globally it carries:
//
//   - _ms_var[K], _ms_t_x[K], _ms_v_x[K]: the array message_store of K
//     Message records, flattened per field. The l component of stored
//     views is omitted: publish requires all view_y_l to be true
//     (Algorithm 3 line 3), so it would always store true.
//   - _avail_x[1+S_x]: the paper's avail_x time-stamp pool. The paper
//     uses S_x = 2K for read/write programs; we extend the budget to
//     S_x = 2K + (#CAS/fence statements on x) because every successful
//     RMW permanently consumes the time-stamp adjacent to the message it
//     reads, even when it causes no view switch (the paper omits the
//     CAS translation "for ease of presentation").
//   - _messages_used, _s_RA: the paper's counters.
//
// Initialisation (Algorithm 1's Main) is folded into declarations:
// _avail_x cells start at 1 (true); cell 0 (the initial time-stamp) is
// never requested because new stamps are drawn from [1+view_x_t, S_x]
// with view_x_t ≥ 0, so an explicit Main process would be inert and is
// not emitted.
//
// # Statement translation
//
// Each source read/write/CAS/fence becomes one atomic block (the
// statement granularity at which Lazy CSeq schedules); cai statements,
// assignments, assert and term are kept unchanged (Fig. 4). Fences are
// translated as CAS operations on the distinguished variable "_fence"
// that read any current value and write its successor (paper Sec. 6).
package core

import (
	"fmt"

	"ravbmc/internal/lang"
)

// Reserved names used by the translation.
const (
	msVarArr    = "_ms_var"
	msgsUsedVar = "_messages_used"
	sRAVar      = "_s_RA"
	fenceVar    = "_fence"
)

// temp registers added to every process.
var tempRegs = []string{"_ch", "_ns", "_av", "_pub", "_mu", "_mn", "_mv", "_mt", "_sra"}

// translator carries the per-program translation state.
type translator struct {
	k      int
	vars   []string       // source shared variables, plus _fence if used
	varID  map[string]int // variable -> id stored in _ms_var
	stamps map[string]int // variable -> S_x (highest usable time-stamp)
	// probe selects the VBMC driver's under-approximate probe variant:
	// every write claims a stamp (counterexample paths need tracked
	// writes anyway, since both publishing and view merging require
	// exact views), within probeWindow above the view. Its guesses are a
	// subset of the full translation's, so any counterexample it finds is
	// a genuine one, while "no bug" falls through to the full translation.
	probe bool
	// dropped counts the statements the probe variant leaves out of the
	// full translation (the untracked-write branches).
	dropped int
}

// probeWindow restricts a probe's tracked-write stamp to
// [view_x_t+1, view_x_t+probeWindow] instead of the full pool:
// near-serial counterexamples live at window 2.
const probeWindow = 2

// Translate applies [[.]]_K to an RA-fragment program, returning the SC
// program whose (K+n)-context-bounded reachability coincides with the
// K-view-bounded RA reachability of prog. The output size is linear in
// |prog| and polynomial in K and |X|. The output is not validated here:
// lang.Compile validates it on the way to every search, so a translator
// bug surfaces there.
func Translate(prog *lang.Program, k int) (*lang.Program, error) {
	out, _, err := translate(prog, k, false)
	return out, err
}

// TranslateProbe returns the under-approximate probe translation the
// VBMC driver searches before the full one (tracked writes, stamp window
// probeWindow). dropped is the number of statements Translate emits that
// the probe does not, so probe.CountStmts()+dropped is the full
// translation's statement count without building it.
func TranslateProbe(prog *lang.Program, k int) (probe *lang.Program, dropped int, err error) {
	return translate(prog, k, true)
}

func translate(prog *lang.Program, k int, probe bool) (*lang.Program, int, error) {
	if k < 0 {
		return nil, 0, fmt.Errorf("core: negative view bound %d", k)
	}
	if err := prog.ValidateRA(); err != nil {
		return nil, 0, err
	}
	tr := &translator{k: k, varID: map[string]int{}, stamps: map[string]int{}, probe: probe}
	tr.vars = append(tr.vars, prog.Vars...)
	if programUsesFence(prog) {
		tr.vars = append(tr.vars, fenceVar)
	}
	for i, x := range tr.vars {
		tr.varID[x] = i
	}
	loopFree := lang.MaxLoopDepth(prog) == 0
	for _, x := range tr.vars {
		rmw := countRMW(prog, x)
		if rmw > 0 && !loopFree {
			// Every executed CAS/fence permanently consumes a stamp, so
			// a static stamp pool is only sound when each statement runs
			// at most once. lang.Unroll establishes that.
			return nil, 0, fmt.Errorf("core: program %q uses CAS/fence inside loops; unroll it first", prog.Name)
		}
		budget := 2 * k
		if loopFree {
			// In a loop-free program each write statement executes at
			// most once, so at most countWrites(x) stamps of x can ever
			// be claimed; any reachable modification order is realisable
			// by giving each tracked write its final mo-rank as stamp.
			if w := countWrites(prog, x); w < budget {
				budget = w
			}
		}
		tr.stamps[x] = budget + rmw
	}

	out := &lang.Program{Name: prog.Name + "_vbmc"}
	out.AddVar(msgsUsedVar)
	out.AddVar(sRAVar)
	storeSize := max(k, 1)
	out.AddArray(msVarArr, storeSize, 0)
	for _, x := range tr.vars {
		out.AddArray("_ms_t_"+x, storeSize, 0)
		out.AddArray("_ms_v_"+x, storeSize, 0)
		out.AddArray("_avail_"+x, tr.stamps[x]+1, 1)
	}

	for _, pr := range prog.Procs {
		np := &lang.Proc{Name: pr.Name, Regs: append([]string(nil), pr.Regs...)}
		for _, x := range tr.vars {
			np.Regs = append(np.Regs, "_vt_"+x, "_vv_"+x, "_vl_"+x)
		}
		np.Regs = append(np.Regs, tempRegs...)
		// init_proc(): view_x_l = true; view_x_t and view_x_v start 0,
		// which registers already are.
		for _, x := range tr.vars {
			np.Add(lang.AssignS("_vl_"+x, lang.C(1)))
		}
		body, err := tr.stmts(pr.Body)
		if err != nil {
			return nil, 0, fmt.Errorf("core: process %s: %w", pr.Name, err)
		}
		np.Body = append(np.Body, body...)
		out.Procs = append(out.Procs, np)
	}
	return out, tr.dropped, nil
}

func programUsesFence(p *lang.Program) bool {
	found := false
	walkStmts(p, func(s lang.Stmt) {
		if _, ok := s.(lang.Fence); ok {
			found = true
		}
	})
	return found
}

// countRMW counts CAS statements on x (or fences when x is _fence):
// each consumes one time-stamp when it executes.
func countRMW(p *lang.Program, x string) int {
	n := 0
	walkStmts(p, func(s lang.Stmt) {
		switch t := s.(type) {
		case lang.CAS:
			if t.Var == x {
				n++
			}
		case lang.Fence:
			if x == fenceVar {
				n++
			}
		}
	})
	return n
}

// countWrites counts write statements on x.
func countWrites(p *lang.Program, x string) int {
	n := 0
	walkStmts(p, func(s lang.Stmt) {
		if w, ok := s.(lang.Write); ok && w.Var == x {
			n++
		}
	})
	return n
}

func walkStmts(p *lang.Program, f func(lang.Stmt)) {
	var rec func(body []lang.Stmt)
	rec = func(body []lang.Stmt) {
		for _, s := range body {
			f(s)
			switch t := s.(type) {
			case lang.If:
				rec(t.Then)
				rec(t.Else)
			case lang.While:
				rec(t.Body)
			case lang.Atomic:
				rec(t.Body)
			}
		}
	}
	for _, pr := range p.Procs {
		rec(pr.Body)
	}
}

// stmts translates a statement sequence (the map [[i]]_K of Fig. 4).
func (tr *translator) stmts(body []lang.Stmt) ([]lang.Stmt, error) {
	var out []lang.Stmt
	for _, s := range body {
		ts, err := tr.stmt(s)
		if err != nil {
			return nil, err
		}
		out = append(out, ts...)
	}
	return out, nil
}

// block wraps a translated statement body in an atomic section and
// clears the scratch registers on the way out: scratch values are dead
// after the block, and resetting them lets the explicit-state backend
// merge states that differ only in leftover scratch contents.
func (tr *translator) block(label string, body []lang.Stmt) lang.Stmt {
	for _, r := range tempRegs {
		body = append(body, lang.AssignS(r, lang.C(0)))
	}
	return lang.LabelS(label, lang.Atomic{Body: body})
}

func (tr *translator) stmt(s lang.Stmt) ([]lang.Stmt, error) {
	switch t := s.(type) {
	case lang.Read:
		return []lang.Stmt{tr.block(t.Lbl, tr.readBody(t.Var, t.Reg))}, nil
	case lang.Write:
		return []lang.Stmt{tr.block(t.Lbl, tr.writeBody(t.Var, t.Val))}, nil
	case lang.CAS:
		return []lang.Stmt{tr.block(t.Lbl, tr.casBody(t.Var, t.Old, t.New))}, nil
	case lang.Fence:
		return []lang.Stmt{tr.block(t.Lbl, tr.casBody(fenceVar, nil, nil))}, nil
	case lang.Assign, lang.Nondet, lang.Assume, lang.Assert, lang.Term:
		return []lang.Stmt{s}, nil
	case lang.If:
		then, err := tr.stmts(t.Then)
		if err != nil {
			return nil, err
		}
		els, err := tr.stmts(t.Else)
		if err != nil {
			return nil, err
		}
		return []lang.Stmt{lang.If{Lbl: t.Lbl, Cond: t.Cond, Then: then, Else: els}}, nil
	case lang.While:
		body, err := tr.stmts(t.Body)
		if err != nil {
			return nil, err
		}
		return []lang.Stmt{lang.While{Lbl: t.Lbl, Cond: t.Cond, Body: body}}, nil
	default:
		return nil, fmt.Errorf("statement %T not in the RA fragment", s)
	}
}

// readBody is Algorithm 4 + Algorithm 5 (Update_View): guess whether the
// read is view-altering; if so pick a published message of x at or above
// the current view time-stamp, merge time-stamps and values component-
// wise, and count the view switch; either way the register receives the
// (possibly updated) local copy view_x_v.
func (tr *translator) readBody(x, reg string) []lang.Stmt {
	alter := []lang.Stmt{
		// assume(s_RA < K)
		lang.ReadS("_sra", sRAVar),
		lang.AssumeS(lang.Lt(lang.R("_sra"), lang.C(lang.Value(tr.k)))),
	}
	alter = append(alter, tr.updateView(x)...)
	alter = append(alter,
		lang.WriteS(sRAVar, lang.Add(lang.R("_sra"), lang.C(1))),
	)
	return []lang.Stmt{
		lang.NondetS("_ch", 0, 1),
		lang.IfS(lang.Eq(lang.R("_ch"), lang.C(1)), alter...),
		lang.AssignS(reg, lang.R("_vv_"+x)),
	}
}

// updateView is Algorithm 5: choose message_num, check it is a message
// of x whose time-stamp dominates the current view of x, require all
// local time-stamps to be exact (view_y_l), and merge.
func (tr *translator) updateView(x string) []lang.Stmt {
	out := []lang.Stmt{
		// message_num <- nondet(0, messages_used-1)
		lang.NondetS("_mn", 0, lang.Value(max(tr.k, 1)-1)),
		lang.ReadS("_mu", msgsUsedVar),
		lang.AssumeS(lang.Lt(lang.R("_mn"), lang.R("_mu"))),
		// assume(m_var == &x)
		lang.LoadS("_mv", msVarArr, lang.R("_mn")),
		lang.AssumeS(lang.Eq(lang.R("_mv"), lang.C(lang.Value(tr.varID[x])))),
		// assume(view_x_l); assume(view_x_t <= m_view_x_t)
		lang.AssumeS(lang.Eq(lang.R("_vl_"+x), lang.C(1))),
		lang.LoadS("_mt", "_ms_t_"+x, lang.R("_mn")),
		lang.AssumeS(lang.Le(lang.R("_vt_"+x), lang.R("_mt"))),
	}
	for _, y := range tr.vars {
		out = append(out,
			lang.AssumeS(lang.Eq(lang.R("_vl_"+y), lang.C(1))),
			lang.LoadS("_mt", "_ms_t_"+y, lang.R("_mn")),
			lang.IfS(lang.Le(lang.R("_vt_"+y), lang.R("_mt")),
				lang.LoadS("_mv", "_ms_v_"+y, lang.R("_mn")),
				lang.AssignS("_vv_"+y, lang.R("_mv")),
				lang.AssignS("_vt_"+y, lang.R("_mt")),
			),
		)
	}
	return out
}

// writeBody is Algorithm 2: either guess that this write's time-stamp is
// one of the S_x tracked stamps (claim a fresh stamp above the view,
// optionally publishing the new view to the message store), or record
// only the value and mark the time-stamp stale.
func (tr *translator) writeBody(x string, val lang.Expr) []lang.Stmt {
	sx := lang.Value(tr.stamps[x])
	var stampChoice []lang.Stmt
	if tr.probe {
		// Probe variant: stamp within a small window above the view.
		stampChoice = []lang.Stmt{
			lang.NondetS("_ns", 1, probeWindow),
			lang.AssignS("_ns", lang.Add(lang.R("_vt_"+x), lang.R("_ns"))),
			lang.AssumeS(lang.Le(lang.R("_ns"), lang.C(sx))),
		}
	} else {
		// new_stamp <- nondet(1+view_x_t, S_x); assume(avail_x[new_stamp]).
		// The value is flipped (S_x+1-_ns) so that the backend's
		// high-first branch order tries LOW stamps first: on the
		// near-serial counterexample paths the modification order
		// follows the temporal order, and low stamps are the ones that
		// keep later comparisons satisfiable.
		stampChoice = []lang.Stmt{
			lang.NondetS("_ns", 1, sx),
			lang.AssignS("_ns", lang.Sub(lang.C(sx+1), lang.R("_ns"))),
			lang.AssumeS(lang.Ge(lang.R("_ns"), lang.Add(lang.R("_vt_"+x), lang.C(1)))),
		}
	}
	tracked := append(stampChoice,
		lang.LoadS("_av", "_avail_"+x, lang.R("_ns")),
		lang.AssumeS(lang.Eq(lang.R("_av"), lang.C(1))),
		lang.StoreS("_avail_"+x, lang.R("_ns"), lang.C(0)),
		lang.AssignS("_vt_"+x, lang.R("_ns")),
		lang.AssignS("_vl_"+x, lang.C(1)),
		lang.AssignS("_vv_"+x, val),
		// if (*) publish(x, view). The flip (1-_pub) makes the backend's
		// high-first branch order try NOT publishing first: counter-
		// example paths publish only one or two late writes, so the
		// search reaches them by flipping the latest publish decisions
		// during backtracking instead of wading through maximally
		// published prefixes.
		lang.NondetS("_pub", 0, 1),
		lang.AssignS("_pub", lang.Sub(lang.C(1), lang.R("_pub"))),
		lang.IfS(lang.Eq(lang.R("_pub"), lang.C(1)), tr.publish(x)...),
	)
	untracked := []lang.Stmt{
		lang.AssignS("_vv_"+x, val),
		lang.AssignS("_vl_"+x, lang.C(0)),
	}
	if tr.stamps[x] == 0 {
		// No tracked stamps exist (K == 0 and no RMW on x): only the
		// untracked branch is feasible. The degenerate nondet is the
		// block's only visible operation (assignments emit no events) and
		// exists solely so witness lifting sees the write happen.
		return append([]lang.Stmt{lang.NondetS("_ch", 0, 0)}, untracked...)
	}
	if tr.probe {
		// Both variants emit stampChoice as three flat statements, so the
		// probe leaves out exactly the _ch nondet, the if-else and the
		// untracked branch.
		tr.dropped += 2 + len(untracked)
		return tracked
	}
	return []lang.Stmt{
		lang.NondetS("_ch", 0, 1),
		lang.IfElseS(lang.Eq(lang.R("_ch"), lang.C(1)), tracked, untracked),
	}
}

// publish is Algorithm 3: require every component of the local view to
// be exact, require space in the message store, and append the view.
func (tr *translator) publish(x string) []lang.Stmt {
	var out []lang.Stmt
	for _, y := range tr.vars {
		out = append(out, lang.AssumeS(lang.Eq(lang.R("_vl_"+y), lang.C(1))))
	}
	out = append(out,
		lang.ReadS("_mu", msgsUsedVar),
		lang.AssumeS(lang.Lt(lang.R("_mu"), lang.C(lang.Value(tr.k)))),
		lang.StoreS(msVarArr, lang.R("_mu"), lang.C(lang.Value(tr.varID[x]))),
	)
	for _, y := range tr.vars {
		out = append(out,
			lang.StoreS("_ms_t_"+y, lang.R("_mu"), lang.R("_vt_"+y)),
			lang.StoreS("_ms_v_"+y, lang.R("_mu"), lang.R("_vv_"+y)),
		)
	}
	out = append(out, lang.WriteS(msgsUsedVar, lang.Add(lang.R("_mu"), lang.C(1))))
	return out
}

// casBody extends the paper's translation to CAS (omitted there "for
// ease of presentation") and implements fences as value-agnostic CAS on
// the _fence variable. The read part mirrors readBody (possibly
// view-altering, constrained to the expected value); the write part is
// forced to claim exactly time-stamp view_x_t+1, which models the RA
// rule's adjacency requirement (no message at t+1). old==nil and
// val==nil select the fence variant: any value matches and the written
// value is the read value plus one.
func (tr *translator) casBody(x string, old, val lang.Expr) []lang.Stmt {
	out := []lang.Stmt{
		lang.NondetS("_ch", 0, 1),
	}
	alter := []lang.Stmt{
		lang.ReadS("_sra", sRAVar),
		lang.AssumeS(lang.Lt(lang.R("_sra"), lang.C(lang.Value(tr.k)))),
	}
	alter = append(alter, tr.updateView(x)...)
	alter = append(alter, lang.WriteS(sRAVar, lang.Add(lang.R("_sra"), lang.C(1))))
	out = append(out, lang.IfS(lang.Eq(lang.R("_ch"), lang.C(1)), alter...))
	if old != nil {
		out = append(out, lang.AssumeS(lang.Eq(lang.R("_vv_"+x), old)))
	}
	newVal := val
	if newVal == nil {
		newVal = lang.Add(lang.R("_vv_"+x), lang.C(1))
	}
	out = append(out,
		// The write part: exactly the adjacent stamp view_x_t + 1.
		lang.AssumeS(lang.Eq(lang.R("_vl_"+x), lang.C(1))),
		lang.AssignS("_ns", lang.Add(lang.R("_vt_"+x), lang.C(1))),
		lang.AssumeS(lang.Le(lang.R("_ns"), lang.C(lang.Value(tr.stamps[x])))),
		lang.LoadS("_av", "_avail_"+x, lang.R("_ns")),
		lang.AssumeS(lang.Eq(lang.R("_av"), lang.C(1))),
		lang.StoreS("_avail_"+x, lang.R("_ns"), lang.C(0)),
		lang.AssignS("_vt_"+x, lang.R("_ns")),
		lang.AssignS("_vl_"+x, lang.C(1)),
		lang.AssignS("_vv_"+x, newVal),
		lang.NondetS("_pub", 0, 1),
		lang.AssignS("_pub", lang.Sub(lang.C(1), lang.R("_pub"))),
		lang.IfS(lang.Eq(lang.R("_pub"), lang.C(1)), tr.publish(x)...),
	)
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
