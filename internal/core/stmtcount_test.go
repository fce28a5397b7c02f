package core_test

import (
	"fmt"
	"testing"

	"ravbmc/internal/benchmarks"
	"ravbmc/internal/core"
	"ravbmc/internal/lang"
	"ravbmc/internal/litmus"
	"ravbmc/internal/obs"
)

// TestProbeTranslatedStmts: a probe hit reports the full translation's
// statement count without building it, as the probe's count plus the
// statements the probe dropped. The sum must equal Translate's count on
// every quick row of Tables 1–8 and on every classic litmus shape at
// K 0–3, and Run must report it on a probe-caught bug.
func TestProbeTranslatedStmts(t *testing.T) {
	type query struct {
		name string
		prog *lang.Program
		k, l int
	}
	var qs []query
	add := func(name string, k, l int) {
		prog, err := benchmarks.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, query{name, prog, k, l})
	}
	for _, n := range []string{"dekker", "peterson_0", "sim_dekker"} {
		add(n, 2, 2)
	}
	for _, n := range []int{3, 4} {
		add(fmt.Sprintf("peterson_1(%d)", n), 4, 2)
		add(fmt.Sprintf("szymanski_1(%d)", n), 2, 2)
		for _, proto := range []string{"peterson_2", "peterson_3", "szymanski_2"} {
			add(fmt.Sprintf("%s(%d)", proto, n), 2, 2)
		}
	}
	for _, l := range []int{1, 2, 4} {
		add("tbar_4", 2, l)
		add("peterson_4(2)", 2, l)
	}
	for _, lt := range litmus.Classic() {
		for k := 0; k <= 3; k++ {
			qs = append(qs, query{lt.Name, lt.Prog, k, 0})
		}
	}
	for _, q := range qs {
		src := q.prog
		if q.l > 0 {
			src = lang.Unroll(src, q.l)
		}
		src = lang.EnsureLabels(src)
		full, err := core.Translate(src, q.k)
		if err != nil {
			t.Fatal(err)
		}
		probe, dropped, err := core.TranslateProbe(src, q.k)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := probe.CountStmts()+dropped, full.CountStmts(); got != want {
			t.Errorf("%s K=%d L=%d: probe %d + dropped %d = %d, want the full count %d",
				q.name, q.k, q.l, probe.CountStmts(), dropped, got, want)
		}
	}

	prog, err := benchmarks.ByName("dekker")
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.Translate(lang.EnsureLabels(lang.Unroll(prog, 2)), 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(prog, core.Options{K: 2, Unroll: 2, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if hits := res.Report.Counters["core.probe_hits"]; res.Verdict != core.Unsafe || hits != 1 {
		t.Fatalf("dekker: verdict %v with %d probe hits, want a probe-caught UNSAFE", res.Verdict, hits)
	}
	if res.TranslatedStmts != full.CountStmts() {
		t.Errorf("dekker: TranslatedStmts %d, want %d", res.TranslatedStmts, full.CountStmts())
	}
}
