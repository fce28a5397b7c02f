package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"ravbmc/internal/benchmarks"
	"ravbmc/internal/fp"
	"ravbmc/internal/lang"
	"ravbmc/internal/sc"
	"ravbmc/internal/trace"
)

// traceDigest is the SHA-256 of a trace's JSONL export ("-" for none).
func traceDigest(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	if tr == nil {
		return "-"
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf, trace.Meta{Toolchain: "test"}); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestStatesIndependentOfTimeout: the timeout is only the global cutoff.
// A run it does not cut short reports the same verdict, work counts and
// witness at every timeout, because every round of the schedule is
// bounded in states, never in wall-clock time.
func TestStatesIndependentOfTimeout(t *testing.T) {
	if fp.RaceEnabled {
		t.Skip("the race detector slows the search enough for the 10 s cutoff to fire")
	}
	prog, err := benchmarks.ByName("peterson_0(3)")
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		verdict             Verdict
		states, transitions int
		trace, witness      string
	}
	var first outcome
	for i, timeout := range []time.Duration{0, 10 * time.Second, 60 * time.Second} {
		res, err := Run(prog, Options{K: 2, Unroll: 2, Timeout: timeout})
		if err != nil {
			t.Fatal(err)
		}
		if res.TimedOut {
			t.Fatalf("timeout %v fired; the test needs a run that finishes", timeout)
		}
		got := outcome{res.Verdict, res.States, res.Transitions,
			traceDigest(t, res.Trace), traceDigest(t, res.Witness)}
		if i == 0 {
			first = got
			continue
		}
		if got != first {
			t.Errorf("timeout %v: %+v, want %+v as at timeout 0", timeout, got, first)
		}
	}
	if first.verdict != Unsafe {
		t.Errorf("peterson_0(3): verdict %v, want UNSAFE", first.verdict)
	}
}

// TestSafeRunCost: a SAFE run costs little more than the paper's single
// full-bound search of the full translation, which alone decides it.
// The probe's ladder rounds may add at most 55% on top.
func TestSafeRunCost(t *testing.T) {
	prog, err := benchmarks.ByName("peterson_4(2)")
	if err != nil {
		t.Fatal(err)
	}
	const k, l = 2, 2
	res, err := Run(prog, Options{K: k, Unroll: l})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Safe {
		t.Fatalf("peterson_4(2): verdict %v, want SAFE", res.Verdict)
	}
	translated, err := Translate(lang.EnsureLabels(lang.Unroll(prog, l)), k)
	if err != nil {
		t.Fatal(err)
	}
	final := sc.NewSystem(lang.MustCompile(translated)).Check(sc.Options{MaxContexts: k + len(prog.Procs)})
	if !final.Exhausted || final.Violation {
		t.Fatalf("full-bound search: exhausted=%v violation=%v, want an exhausted SAFE search",
			final.Exhausted, final.Violation)
	}
	if limit := 1.55 * float64(final.States); float64(res.States) > limit {
		t.Errorf("SAFE run explored %d states, %.2fx the final search's %d; want at most 1.55x",
			res.States, float64(res.States)/float64(final.States), final.States)
	}
}

// TestUnsafeRunCost: a bug the probe can reach costs the probe's rounds
// and nothing more. The budgets are a tenth of what a schedule that
// searched a narrower stamp window first explored (410,175 and 510,771
// states) before reaching the same probe.
func TestUnsafeRunCost(t *testing.T) {
	for _, c := range []struct {
		name   string
		budget int
	}{
		{"peterson_0(3)", 10_000},
		{"szymanski_1(3)", 100_000},
	} {
		prog, err := benchmarks.ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(prog, Options{K: 2, Unroll: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != Unsafe {
			t.Fatalf("%s: verdict %v, want UNSAFE", c.name, res.Verdict)
		}
		if res.States > c.budget {
			t.Errorf("%s: UNSAFE run explored %d states, want at most %d", c.name, res.States, c.budget)
		}
	}
}
