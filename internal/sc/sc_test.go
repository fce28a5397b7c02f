package sc

import (
	"testing"

	"ravbmc/internal/lang"
)

func check(t *testing.T, p *lang.Program, opts Options) Result {
	t.Helper()
	cp, err := lang.Compile(p)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return NewSystem(cp).Check(opts)
}

func TestStoreBufferingForbiddenUnderSC(t *testing.T) {
	// SB under SC forbids a==0 && b==0: the checker process observes the
	// published reads and asserts at least one of them is non-zero.
	res := NewSystem(lang.MustCompile(mustSB())).Check(Options{})
	if res.Violation {
		t.Fatalf("SC forbids the SB weak outcome, but checker found: %v", res.Trace)
	}
	if !res.Exhausted {
		t.Fatalf("search not exhausted")
	}
}

// mustSB builds SB where a dedicated checker process asserts the weak
// outcome never happens: each reader publishes its register, and a
// checker that has seen both published values asserts they are not both
// zero.
func mustSB() *lang.Program {
	p := lang.NewProgram("sb_checked", "x", "y", "outa", "outb", "flaga", "flagb")
	p.AddProc("p0", "a").Add(
		lang.WriteC("x", 1),
		lang.ReadS("a", "y"),
		lang.WriteS("outa", lang.R("a")),
		lang.WriteC("flaga", 1),
	)
	p.AddProc("p1", "b").Add(
		lang.WriteC("y", 1),
		lang.ReadS("b", "x"),
		lang.WriteS("outb", lang.R("b")),
		lang.WriteC("flagb", 1),
	)
	chk := p.AddProc("chk", "fa", "fb", "va", "vb")
	chk.Add(
		lang.ReadS("fa", "flaga"), lang.AssumeS(lang.Eq(lang.R("fa"), lang.C(1))),
		lang.ReadS("fb", "flagb"), lang.AssumeS(lang.Eq(lang.R("fb"), lang.C(1))),
		lang.ReadS("va", "outa"), lang.ReadS("vb", "outb"),
		lang.AssertS(lang.Or(lang.Ne(lang.R("va"), lang.C(0)), lang.Ne(lang.R("vb"), lang.C(0)))),
	)
	return p
}

func TestInterleavingBugFoundUnderSC(t *testing.T) {
	// Unsynchronised counter: both read 0 and both write 1; an assert
	// that the final value is 2 after both increments fails.
	p := lang.NewProgram("count", "c", "f0", "f1")
	for i, name := range []string{"p0", "p1"} {
		flag := []string{"f0", "f1"}[i]
		p.AddProc(name, "r").Add(
			lang.ReadS("r", "c"),
			lang.WriteS("c", lang.Add(lang.R("r"), lang.C(1))),
			lang.WriteC(flag, 1),
		)
	}
	chk := p.AddProc("chk", "a", "b", "v")
	chk.Add(
		lang.ReadS("a", "f0"), lang.AssumeS(lang.Eq(lang.R("a"), lang.C(1))),
		lang.ReadS("b", "f1"), lang.AssumeS(lang.Eq(lang.R("b"), lang.C(1))),
		lang.ReadS("v", "c"),
		lang.AssertS(lang.Eq(lang.R("v"), lang.C(2))),
	)
	res := check(t, p, Options{})
	if !res.Violation {
		t.Fatalf("lost-update bug must be found under SC")
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatalf("violation must come with a trace")
	}
}

func TestContextBoundHidesAndRevealsBug(t *testing.T) {
	// The lost-update interleaving needs p0 and p1 to interleave at the
	// read/write boundary: schedule p0 (read), p1 (read+write), p0
	// (write), chk — at least 4 contexts. With MaxContexts 2 the bug is
	// unreachable (chk alone needs a context after a writer).
	p := lang.NewProgram("count2", "c", "f0", "f1")
	for i, name := range []string{"p0", "p1"} {
		flag := []string{"f0", "f1"}[i]
		p.AddProc(name, "r").Add(
			lang.ReadS("r", "c"),
			lang.WriteS("c", lang.Add(lang.R("r"), lang.C(1))),
			lang.WriteC(flag, 1),
		)
	}
	chk := p.AddProc("chk", "a", "b", "v")
	chk.Add(
		lang.ReadS("a", "f0"), lang.AssumeS(lang.Eq(lang.R("a"), lang.C(1))),
		lang.ReadS("b", "f1"), lang.AssumeS(lang.Eq(lang.R("b"), lang.C(1))),
		lang.ReadS("v", "c"),
		lang.AssertS(lang.Eq(lang.R("v"), lang.C(2))),
	)
	resLow := check(t, p, Options{MaxContexts: 2})
	if resLow.Violation {
		t.Fatalf("2 contexts cannot even complete both writers and the checker")
	}
	resHigh := check(t, p, Options{MaxContexts: 6})
	if !resHigh.Violation {
		t.Fatalf("6 contexts must reveal the lost-update bug")
	}
}

func TestAtomicBlockIsIndivisible(t *testing.T) {
	// Two processes atomically increment c; atomicity makes the final
	// value always 2, so the checker never fails.
	p := lang.NewProgram("atomic_count", "c", "f0", "f1")
	for i, name := range []string{"p0", "p1"} {
		flag := []string{"f0", "f1"}[i]
		p.AddProc(name, "r").Add(
			lang.AtomicS(
				lang.ReadS("r", "c"),
				lang.WriteS("c", lang.Add(lang.R("r"), lang.C(1))),
			),
			lang.WriteC(flag, 1),
		)
	}
	chk := p.AddProc("chk", "a", "b", "v")
	chk.Add(
		lang.ReadS("a", "f0"), lang.AssumeS(lang.Eq(lang.R("a"), lang.C(1))),
		lang.ReadS("b", "f1"), lang.AssumeS(lang.Eq(lang.R("b"), lang.C(1))),
		lang.ReadS("v", "c"),
		lang.AssertS(lang.Eq(lang.R("v"), lang.C(2))),
	)
	res := check(t, p, Options{})
	if res.Violation {
		t.Fatalf("atomic increments cannot lose updates: %v", res.Trace)
	}
	if !res.Exhausted {
		t.Fatalf("search must be exhaustive")
	}
}

func TestAssumeInsideAtomicDiscardsBranch(t *testing.T) {
	// The atomic block guesses v and assumes v==3; only that branch
	// survives, so the assert v==3 afterwards holds.
	p := lang.NewProgram("guess", "x")
	p.AddProc("p0", "v").Add(
		lang.AtomicS(
			lang.NondetS("v", 0, 5),
			lang.AssumeS(lang.Eq(lang.R("v"), lang.C(3))),
			lang.WriteS("x", lang.R("v")),
		),
		lang.AssertS(lang.Eq(lang.R("v"), lang.C(3))),
	)
	res := check(t, p, Options{})
	if res.Violation {
		t.Fatalf("assume inside atomic must filter guesses: %v", res.Trace)
	}
}

func TestBlockedCASUnblocks(t *testing.T) {
	// p1's CAS waits for x==1 which p0 provides; afterwards p1 asserts
	// success is observable.
	p := lang.NewProgram("caswait", "x", "y")
	p.AddProc("p0").Add(lang.WriteC("x", 1))
	p.AddProc("p1", "r").Add(
		lang.CASS("x", lang.C(1), lang.C(2)),
		lang.ReadS("r", "x"),
		lang.AssertS(lang.Eq(lang.R("r"), lang.C(2))),
	)
	res := check(t, p, Options{})
	if res.Violation {
		t.Fatalf("CAS must unblock and see its own write: %v", res.Trace)
	}
	// And the CAS does complete in some run: target its final label.
	cp := lang.MustCompile(p)
	sys := NewSystem(cp)
	res2 := sys.Check(Options{TargetLabels: map[string]string{"p1": "p1#3"}})
	if !res2.TargetReached {
		t.Fatalf("p1 must be able to run to completion")
	}
}

func TestArraysAndBoundsViolation(t *testing.T) {
	p := lang.NewProgram("arr")
	p.AddArray("a", 3, 7)
	p.AddProc("p0", "i", "v").Add(
		lang.LoadS("v", "a", lang.C(2)),
		lang.AssertS(lang.Eq(lang.R("v"), lang.C(7))),
		lang.StoreS("a", lang.C(1), lang.C(9)),
		lang.LoadS("v", "a", lang.C(1)),
		lang.AssertS(lang.Eq(lang.R("v"), lang.C(9))),
	)
	res := check(t, p, Options{})
	if res.Violation {
		t.Fatalf("array init/store/load mismatch: %v", res.Trace)
	}

	q := lang.NewProgram("arr_oob")
	q.AddArray("a", 3, 0)
	q.AddProc("p0", "i", "v").Add(
		lang.NondetS("i", 0, 4),
		lang.LoadS("v", "a", lang.R("i")),
	)
	res2 := check(t, q, Options{})
	if !res2.Violation {
		t.Fatalf("out-of-bounds access must be reported")
	}
}

func TestNondetBranchesAllExplored(t *testing.T) {
	// assert(v != k) must fail for every k in range; pick one.
	p := lang.NewProgram("nd", "x")
	p.AddProc("p0", "v").Add(
		lang.NondetS("v", 0, 9),
		lang.AssertS(lang.Ne(lang.R("v"), lang.C(7))),
	)
	res := check(t, p, Options{})
	if !res.Violation {
		t.Fatalf("nondet branch v=7 must be explored")
	}
}

func TestFenceIsNoOpUnderSC(t *testing.T) {
	p := lang.NewProgram("fence_sc", "x")
	p.AddProc("p0", "r").Add(
		lang.WriteC("x", 1),
		lang.FenceS(),
		lang.ReadS("r", "x"),
		lang.AssertS(lang.Eq(lang.R("r"), lang.C(1))),
	)
	res := check(t, p, Options{})
	if res.Violation {
		t.Fatalf("fence must not disturb SC execution: %v", res.Trace)
	}
}

func TestKeyEncodings(t *testing.T) {
	p := lang.NewProgram("k", "x")
	p.AddProc("p0", "r").Add(lang.AssignS("r", lang.C(1000000)), lang.WriteS("x", lang.R("r")))
	sys := NewSystem(lang.MustCompile(p))
	inits := sys.InitialConfigs() // local prefix (the big assign) executed
	if len(inits) != 1 {
		t.Fatalf("expected 1 initial config, got %d", len(inits))
	}
	c := inits[0]
	k1 := c.Key()
	for _, d := range sys.MacroSteps(c, 0) {
		if d.Key() == k1 {
			t.Error("distinct states share a key")
		}
		if sys.Mem(d, "x") != 1000000 {
			t.Errorf("large value lost: %d", sys.Mem(d, "x"))
		}
	}
}

// TestDedupKeyMasksDeadRegistersBeforeLiveProcess: a terminated
// process's registers are dead even when a lower-numbered process is
// still live, so configurations differing only there share a key.
func TestDedupKeyMasksDeadRegistersBeforeLiveProcess(t *testing.T) {
	p := lang.NewProgram("dead_mid", "x")
	p.AddProc("p0", "a").Add(lang.ReadS("a", "x"))
	p.AddProc("p1", "b").Add(lang.AssignS("b", lang.C(1)))
	p.AddProc("p2", "c").Add(lang.ReadS("c", "x"))
	sys := NewSystem(lang.MustCompile(p))
	inits := sys.InitialConfigs()
	if len(inits) != 1 {
		t.Fatalf("expected 1 initial config, got %d", len(inits))
	}
	c := inits[0]
	if sys.status(c, 0) != statusReady || sys.status(c, 1) != statusTerminated ||
		sys.status(c, 2) != statusReady {
		t.Fatal("want p0 and p2 live, p1 terminated")
	}
	d := sys.newConfig()
	d.copyFrom(c)
	d.regs[sys.reg(1, 0)] = 7
	if string(sys.DedupKey(c, nil)) != string(sys.DedupKey(d, nil)) {
		t.Error("configs differing only in a terminated process's registers have distinct keys")
	}
}
