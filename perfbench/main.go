// Command perfbench is the repository's benchmark. It runs one named
// workload of the VBMC pipeline at the defaults of `vbmc -bench X -k K
// -l L` (no timeout, serial search, no -reduce, no -tmai) or of a
// freshly started vbmcd, checks every verdict against a known answer,
// prints one JSON row per query and, as its last line, the run's
// metrics:
//
//	perfbench -workload table-safe -seed 1 -seconds 15 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
// verdict percentiles, states, alloc_mb, peak_rss_mb); with -trace 1 a
// separate traced run times the calls into each layer from this
// package's own code and prints the per-layer metrics. run.py builds
// this package and vbmcd from source and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metric is one named figure of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is one query's outcome, printed so a single-row regression shows
// without diffing anything.
type row struct {
	Workload string  `json:"workload"`
	Query    string  `json:"query"`
	Program  string  `json:"program"`
	K        int     `json:"k"`
	L        int     `json:"l"`
	Verdict  string  `json:"verdict"`
	Want     string  `json:"want"`
	Seconds  float64 `json:"seconds"`
	States   int     `json:"states"`
	Reps     int     `json:"reps,omitempty"`
	Cache    string  `json:"cache"`
	Failure  string  `json:"failure,omitempty"`
}

// result is what one run of a workload produces.
type result struct {
	Attempted, Failed int
	Metrics           map[string]metric
	Rows              []row
	// Spans is the traced run's span log (nil untraced).
	Spans *tracer
}

func (r *result) set(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// add records a query outcome: every row is one attempt, and a row
// with a failure reason counts against the run.
func (r *result) add(rw row) {
	r.Rows = append(r.Rows, rw)
	r.Attempted++
	if rw.Failure != "" {
		r.Failed++
	}
}

// config is one invocation.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Vbmcd is the vbmcd binary (vbmcd-mix and the traced runs' served
	// probe).
	Vbmcd string
	// OutDir receives the traced run's span file.
	OutDir string
	// Limit keeps only the first Limit queries of each list (0 = all);
	// the self-tests run tiny slices with it.
	Limit int
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.Workload, "workload", "", "workload name: "+workloadNames())
	fs.Int64Var(&cfg.Seed, "seed", 1, "seed for the litmus sample and the vbmcd request streams")
	fs.Float64Var(&cfg.Seconds, "seconds", 15, "measuring time; a workload repeats passes while another fits")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&cfg.Vbmcd, "vbmcd", "", "path to the vbmcd binary")
	fs.StringVar(&cfg.OutDir, "out", ".bench_out", "directory for the traced run's span file")
	fs.IntVar(&cfg.Limit, "limit", 0, "keep only the first n queries of each list (0 = all; for self-tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	cfg.Trace = traceFlag == 1
	w, ok := workload(cfg.Workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.Workload, workloadNames())
		return 2
	}
	res, err := w(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if res.Spans != nil {
		path := filepath.Join(cfg.OutDir, fmt.Sprintf("%s-seed%d.spans.jsonl", cfg.Workload, cfg.Seed))
		if err := res.Spans.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		for _, ls := range res.Spans.selfTimes() {
			fmt.Fprintf(stderr, "self %-22s %10.4f s over %d spans\n", ls.name, ls.self, ls.count)
		}
	}
	enc := json.NewEncoder(stdout)
	for _, rw := range res.Rows {
		if err := enc.Encode(map[string]row{"row": rw}); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0 && res.Attempted > 0, res.Attempted, res.Failed, res.Metrics}
	if err := enc.Encode(final); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// inprocs are the workloads verified in the benchmark's own process;
// vbmcd-mix is the served one. Why each exists is recorded in
// BENCHMARK.json.
var inprocs = []inproc{
	{
		name: "table-unsafe", warm: "peterson_0", minQuery: 500 * time.Millisecond,
		queries: func(_ int64, limit int) ([]query, error) { return tableQueries("tu", tableUnsafeRows, limit) },
	},
	{
		name: "table-safe", warm: "tbar_4", minQuery: 500 * time.Millisecond, overheadAll: true,
		queries: func(_ int64, limit int) ([]query, error) { return tableQueries("ts", tableSafeRows, limit) },
	},
	{
		name: "litmus-k3", warm: "MP", minQuery: 150 * time.Millisecond,
		queries: func(seed int64, limit int) ([]query, error) { return litmusQueries(seed, limit), nil },
	},
}

const mixName = "vbmcd-mix"

func workload(name string) (func(config) (result, error), bool) {
	if name == mixName {
		return mix, true
	}
	for _, w := range inprocs {
		if w.name == name {
			return w.run, true
		}
	}
	return nil, false
}

func workloadNames() string {
	var names []string
	for _, w := range inprocs {
		names = append(names, w.name)
	}
	return strings.Join(append(names, mixName), ", ")
}
