package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// vbmcdBin is built once for the tests that start a daemon.
var vbmcdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	vbmcdBin = filepath.Join(dir, "vbmcd")
	out, err := exec.Command("go", "build", "-o", vbmcdBin, "ravbmc/cmd/vbmcd").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("building vbmcd: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// slice is the tiny slice of each workload the self-tests run.
var slice = map[string]int{"table-unsafe": 3, "table-safe": 1, "litmus-k3": 6, "vbmcd-mix": 8}

type declared struct {
	Name, Unit string
}

type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []declared `json:"end_to_end"`
	PerLayer  []declared `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// runCLI runs one workload slice through the command's entry point and
// decodes its last line.
func runCLI(t *testing.T, workload string, trace string) (rows int, final struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]metric
}) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", workload, "-seed", "7", "-seconds", "0", "-trace", trace,
		"-vbmcd", vbmcdBin, "-out", t.TempDir(), "-limit", fmt.Sprint(slice[workload])}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s -trace %s: exit %d\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatal(err)
	}
	for _, l := range lines[:len(lines)-1] {
		if !strings.HasPrefix(l, `{"row":`) {
			t.Errorf("%s: stray output line %q", workload, l)
		}
	}
	return len(lines) - 1, final
}

// TestMetricsPrintWithUnits runs every workload's slice untraced and
// traced and checks that each prints exactly the metrics BENCHMARK.json
// declares, with the declared units, and no failure.
func TestMetricsPrintWithUnits(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(inprocs)+1 {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(bj.Workloads), len(inprocs)+1)
	}
	for _, w := range bj.Workloads {
		for trace, want := range map[string][]declared{"0": bj.EndToEnd, "1": bj.PerLayer} {
			rows, final := runCLI(t, w.Name, trace)
			if !final.Correct || final.Failed != 0 || final.Attempted == 0 || rows == 0 {
				t.Errorf("%s -trace %s: correct=%v attempted=%d failed=%d rows=%d",
					w.Name, trace, final.Correct, final.Attempted, final.Failed, rows)
			}
			if len(final.Metrics) != len(want) {
				t.Errorf("%s -trace %s: %d metrics, want %d", w.Name, trace, len(final.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := final.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s -trace %s: metric %s missing", w.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s -trace %s: %s unit %q, want %q", w.Name, trace, d.Name, m.Unit, d.Unit)
				}
			}
		}
	}
}

// TestWrongExpectationFails plants a wrong expected verdict and checks
// that the run counts it, in process and through vbmcd.
func TestWrongExpectationFails(t *testing.T) {
	w := inproc{
		name: "wrong", minQuery: 0,
		queries: func(int64, int) ([]query, error) {
			qs, err := tableQueries("w", tableSafeRows[:1], 0)
			qs[0].Want = "UNSAFE" // tbar_4 is SAFE
			return qs, err
		},
	}
	res, err := w.run(config{Workload: "wrong", Seconds: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || float64(res.Failed)/float64(res.Attempted) <= 0 {
		t.Errorf("in process: fail ratio %d/%d, want above 0", res.Failed, res.Attempted)
	}

	streams := mixStreams(3, 4, 2)
	streams[0].Progs[0].Want = map[string]string{"SAFE": "UNSAFE", "UNSAFE": "SAFE"}[streams[0].Progs[0].Want]
	replies, _, _, _, err := servedPass(config{Vbmcd: vbmcdBin}, streams, nil)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, rs := range replies {
		for _, r := range rs {
			if judgeReply("wrong", r).Failure != "" {
				failed++
			}
		}
	}
	if failed == 0 {
		t.Error("served: a wrong expected verdict raised no failure")
	}
}

// TestSeedFixesInputs checks that the seed alone fixes the litmus
// sample and the vbmcd request streams.
func TestSeedFixesInputs(t *testing.T) {
	names := func(qs []query) []string {
		var out []string
		for _, q := range qs {
			out = append(out, q.ID)
		}
		return out
	}
	a, b, c := litmusQueries(11, 0), litmusQueries(11, 0), litmusQueries(12, 0)
	if !reflect.DeepEqual(names(a), names(b)) {
		t.Error("litmus sample differs for the same seed")
	}
	if reflect.DeepEqual(names(a), names(c)) {
		t.Error("litmus sample is the same for seeds 11 and 12")
	}
	if n := len(a) - len(lightClassics("")); n < 100 {
		t.Errorf("litmus sample has %d generated tests, want at least 100", n)
	}
	shape := func(ss []stream) string {
		var sb strings.Builder
		for _, s := range ss {
			for _, it := range s.Items {
				sb.WriteString(s.Progs[it.Prog].Program)
				json.NewEncoder(&sb).Encode(it)
			}
		}
		return sb.String()
	}
	x, y, z := mixStreams(11, streamLen, streamFresh), mixStreams(11, streamLen, streamFresh), mixStreams(12, streamLen, streamFresh)
	if shape(x) != shape(y) {
		t.Error("vbmcd streams differ for the same seed")
	}
	if shape(x) == shape(z) {
		t.Error("vbmcd streams are the same for seeds 11 and 12")
	}
	seen := map[string]int{}
	for c, s := range x {
		for _, q := range s.Progs {
			if other, ok := seen[q.Program]; ok {
				t.Errorf("program %s is fresh for clients %d and %d", q.Program, other, c)
			}
			seen[q.Program] = c
		}
	}
}

// TestStatesRepeat checks that two passes of the in-process slices
// explore exactly the same number of states per query, and that a
// served repeat is always answered from the cache.
func TestStatesRepeat(t *testing.T) {
	for _, name := range []string{"table-unsafe", "table-safe", "litmus-k3"} {
		w := inprocByName(name)
		qs, err := w.queries(5, slice[name])
		if err != nil {
			t.Fatal(err)
		}
		one, two := make([]measured, len(qs)), make([]measured, len(qs))
		w.minQuery = 0
		w.pass(qs, one)
		w.pass(qs, two)
		for i, q := range qs {
			if one[i].res.States != two[i].res.States || one[i].res.States == 0 {
				t.Errorf("%s %s: states %d then %d", name, q.Program, one[i].res.States, two[i].res.States)
			}
		}
	}

	streams := mixStreams(5, 12, 5)
	replies, _, _, _, err := servedPass(config{Vbmcd: vbmcdBin}, streams, nil)
	if err != nil {
		t.Fatal(err)
	}
	for c, rs := range replies {
		for i, r := range rs {
			fresh := streams[c].Items[i].Fresh
			if d := r.disposition(); (d == "computed") != fresh {
				t.Errorf("client %d request %d (fresh=%v) was %s", c, i, fresh, d)
			}
		}
	}
}

func inprocByName(name string) inproc {
	for _, w := range inprocs {
		if w.name == name {
			return w
		}
	}
	panic("no in-process workload " + name)
}

// TestQuantile pins the interpolation the percentiles use.
func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); got < 3.69 || got > 3.71 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
	if got := geomean([]float64{1, 4}); got != 2 {
		t.Errorf("geomean = %v, want 2", got)
	}
}
