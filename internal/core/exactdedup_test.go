package core

import (
	"testing"

	"ravbmc/internal/benchmarks"
)

// TestRunExactDedupParity checks Options.ExactDedup reaches the SC
// backend through every tier (probe ladder and final run) without
// changing the pipeline's verdicts or search sizes. Equal counts also
// guard the fingerprint: its slots must not drift from the exact key's,
// and it must not collide on these spaces.
func TestRunExactDedupParity(t *testing.T) {
	for _, tc := range []struct {
		bench string
		want  Verdict
	}{
		{"peterson_0", Unsafe},
		{"sim_dekker_4", Safe}, // safe: exercises the final uncapped run
		{"peterson_0(3)", Unsafe},
		{"szymanski_1(3)", Unsafe},
		{"tbar_4(3)", Safe},
		{"peterson_4(2)", Safe},
	} {
		p, err := benchmarks.ByName(tc.bench)
		if err != nil {
			t.Fatal(err)
		}
		fpRes, err := Run(p, Options{K: 2, Unroll: 2})
		if err != nil {
			t.Fatal(err)
		}
		exRes, err := Run(p, Options{K: 2, Unroll: 2, ExactDedup: true})
		if err != nil {
			t.Fatal(err)
		}
		if fpRes.Verdict != tc.want || exRes.Verdict != tc.want {
			t.Errorf("%s: verdicts fp=%v ex=%v, want %v", tc.bench, fpRes.Verdict, exRes.Verdict, tc.want)
		}
		if fpRes.States != exRes.States || fpRes.Transitions != exRes.Transitions {
			t.Errorf("%s: stats diverge: fp %d/%d vs ex %d/%d", tc.bench,
				fpRes.States, fpRes.Transitions, exRes.States, exRes.Transitions)
		}
	}
}
