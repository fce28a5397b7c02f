package sc_test

import (
	"testing"

	"ravbmc/internal/core"
	"ravbmc/internal/fp"
	"ravbmc/internal/lang"
	"ravbmc/internal/litmus"
	"ravbmc/internal/sc"
)

// TestSearchPerStateZeroAllocs guards the search's hot path: with
// witness events built only on replay, slot-resolved code and recycled
// configurations, a state costs no allocation. What remains per Check
// is set-up and the visited set's amortised growth, which must stay
// within one allocation per state.
func TestSearchPerStateZeroAllocs(t *testing.T) {
	if fp.RaceEnabled {
		t.Skip("allocation guards are meaningless under -race")
	}
	var prog *lang.Program
	for _, lt := range litmus.Classic() {
		if lt.Name == "SB+fences" {
			prog = lt.Prog
		}
	}
	const k = 2
	translated, err := core.Translate(prog, k)
	if err != nil {
		t.Fatal(err)
	}
	sys := sc.NewSystem(lang.MustCompile(translated))
	opts := sc.Options{MaxContexts: k + len(prog.Procs)}
	var res sc.Result
	allocs := testing.AllocsPerRun(2, func() { res = sys.Check(opts) })
	if res.Violation || !res.Exhausted {
		t.Fatalf("SB+fences at K=%d must be SAFE and exhausted: %+v", k, res)
	}
	perState := allocs / float64(res.States)
	t.Logf("%d states, %.0f allocs per Check, %.4f per state", res.States, allocs, perState)
	if perState > 1 {
		t.Errorf("%.3f allocs per state, want <= 1", perState)
	}
}
