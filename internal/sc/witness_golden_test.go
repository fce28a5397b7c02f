package sc_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ravbmc/internal/benchmarks"
	"ravbmc/internal/core"
	"ravbmc/internal/lang"
	"ravbmc/internal/litmus"
	"ravbmc/internal/trace"
)

var updateGolden = flag.Bool("update-witness-golden", false,
	"rewrite testdata/witness_digests.txt from the current engine")

const witnessGoldenFile = "testdata/witness_digests.txt"

// goldenQuery is one UNSAFE query whose witnesses are pinned.
type goldenQuery struct {
	name string
	prog *lang.Program
	k, l int
}

// goldenQueries are the Table 1 rows and szymanski_1(3) at K=2 L=2 plus
// four UNSAFE classic litmus shapes at K=3.
func goldenQueries(t *testing.T) []goldenQuery {
	t.Helper()
	var qs []goldenQuery
	for _, name := range []string{
		"bakery", "burns", "dekker", "lamport", "peterson_0", "peterson_0(3)",
		"sim_dekker", "szymanski_0", "szymanski_1(3)",
	} {
		p, err := benchmarks.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, goldenQuery{name: name, prog: p, k: 2, l: 2})
	}
	want := map[string]bool{"RWC": true, "IRIW": true, "2+2W": true, "SB+1fence": true}
	for _, lt := range litmus.Classic() {
		if want[lt.Name] {
			qs = append(qs, goldenQuery{name: "litmus/" + lt.Name, prog: lt.Prog, k: 3})
		}
	}
	if len(qs) != 13 {
		t.Fatalf("golden query list has %d entries, want 13", len(qs))
	}
	return qs
}

// witnessDigest is the SHA-256 of a trace's JSONL export under a fixed
// header (the toolchain field is pinned so the digest does not depend
// on the build).
func witnessDigest(t *testing.T, tr *trace.Trace, q goldenQuery, engine string) string {
	t.Helper()
	var buf bytes.Buffer
	meta := trace.Meta{Toolchain: "golden", Program: q.name, Engine: engine, K: q.k}
	if err := tr.WriteJSONL(&buf, meta); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestWitnessGoldenDigests pins the SC counterexample of the translated
// program and the lifted RA witness of every golden query: the search
// records no events and rebuilds its witness by replaying the DFS path,
// so any drift in that replay changes these bytes. The serial/parallel
// parity harness cannot see such drift, since both sides replay alike.
// Under -short only the litmus shapes run.
func TestWitnessGoldenDigests(t *testing.T) {
	if *updateGolden && testing.Short() {
		t.Fatal("-update-witness-golden needs the full query list; drop -short")
	}
	var got []string
	for _, q := range goldenQueries(t) {
		if testing.Short() && !strings.HasPrefix(q.name, "litmus/") {
			continue
		}
		res, err := core.Run(q.prog, core.Options{K: q.k, Unroll: q.l})
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		if res.Verdict != core.Unsafe || res.Trace == nil {
			t.Fatalf("%s: verdict %v, want UNSAFE with a trace", q.name, res.Verdict)
		}
		if !res.WitnessValidated {
			t.Fatalf("%s: witness not validated: %s", q.name, res.WitnessErr)
		}
		got = append(got, fmt.Sprintf("%s %s %s", q.name,
			witnessDigest(t, res.Trace, q, "sc"), witnessDigest(t, res.Witness, q, "replay")))
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(witnessGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		data := "# query sha256(sc trace JSONL) sha256(replayed RA witness JSONL)\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(witnessGoldenFile, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(witnessGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want[strings.Fields(line)[0]] = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, line := range got {
		name := strings.Fields(line)[0]
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no entry in %s", name, witnessGoldenFile)
		} else if line != w {
			t.Errorf("witness drift:\n got  %s\n want %s", line, w)
		}
	}
}
