package sc_test

import (
	"strings"
	"testing"

	"ravbmc/internal/benchmarks"
	"ravbmc/internal/core"
	"ravbmc/internal/lang"
	"ravbmc/internal/litmus"
	"ravbmc/internal/sc"
)

// hashWalkCap bounds the states walked per program: the translated
// Table 1 rows reach millions of states, so their walk covers the first
// hashWalkCap in DFS order (terminations included); the hash probe
// program and the translated CAS litmus shapes are walked whole.
const hashWalkCap = 50_000

// TestIncrementalFingerprintMatchesScratch walks reachable states
// through the initial closure and macro-steps, the only places the
// fingerprint sum is set, and checks at each state that the
// incrementally derived sum equals one computed from scratch over the
// dedup key's slots.
func TestIncrementalFingerprintMatchesScratch(t *testing.T) {
	progs := []*lang.Program{hashProbeProgram()}
	translate := func(p *lang.Program) {
		tp, err := core.Translate(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, tp)
	}
	for _, lt := range litmus.Classic() {
		if strings.Contains(strings.ToUpper(lt.Name), "CAS") {
			translate(lt.Prog)
		}
	}
	for _, name := range []string{
		"bakery", "burns", "dekker", "lamport",
		"peterson_0", "peterson_0(3)", "sim_dekker", "szymanski_0",
	} {
		if testing.Short() && name != "dekker" {
			continue
		}
		p, err := benchmarks.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		translate(lang.Unroll(p, 2))
	}
	for _, p := range progs {
		sys := sc.NewSystem(lang.MustCompile(p))
		seen := map[string]bool{}
		stack := sys.InitialConfigs()
		var buf []byte
		for len(stack) > 0 && len(seen) < hashWalkCap {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if got, want := c.HashSum(), sys.HashFromScratch(c); got != want {
				t.Fatalf("%s: incremental hash %#x, from scratch %#x at state %d", p.Name, got, want, len(seen))
			}
			buf = sys.DedupKey(c, buf[:0])
			if seen[string(buf)] {
				continue
			}
			seen[string(buf)] = true
			for q := range p.Procs {
				stack = append(stack, sys.MacroSteps(c, q)...)
			}
		}
		t.Logf("%s: %d states, whole space: %v", p.Name, len(seen), len(stack) == 0)
	}
}

// hashProbeProgram exercises every way a macro-step changes the key:
// nondet branching, a CAS that can block, array loads and stores at
// guessed indices, an atomic section, and processes terminating early,
// in the middle and last, so their registers leave the key.
func hashProbeProgram() *lang.Program {
	p := lang.NewProgram("hash_probe", "x", "y")
	p.AddArray("a", 3, 7)
	p.AddProc("p0", "r", "s").Add(
		lang.NondetS("r", 0, 2),
		lang.StoreS("a", lang.R("r"), lang.C(300)),
		lang.CASS("x", lang.C(0), lang.C(1)),
		lang.LoadS("s", "a", lang.C(1)),
		lang.WriteS("y", lang.R("s")),
	)
	p.AddProc("p1", "u").Add(
		lang.AssignS("u", lang.C(-5)),
		lang.WriteS("y", lang.R("u")),
	)
	p.AddProc("p2", "v", "w").Add(
		lang.AtomicS(
			lang.ReadS("v", "x"),
			lang.NondetS("w", 1, 2),
			lang.WriteS("x", lang.R("w")),
			lang.StoreS("a", lang.C(0), lang.R("v")),
		),
		lang.ReadS("v", "y"),
		lang.CASS("y", lang.R("v"), lang.C(1<<40)),
	)
	return p
}
