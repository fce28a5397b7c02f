package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"ravbmc/internal/benchmarks"
	"ravbmc/internal/lang"
	"ravbmc/internal/litmus"
)

// query is one verification the benchmark asks for.
type query struct {
	ID      string
	Program string
	Prog    *lang.Program
	K, L    int
	// Want is the verdict fixed by the paper's table the row comes from
	// ("UNSAFE" for Tables 1-5, "SAFE" for Tables 6-8); empty for litmus
	// tests, which the RA oracle decides.
	Want string
	// Literature is a classic litmus shape's published RA verdict.
	Literature string
}

func verdictName(unsafe bool) string {
	if unsafe {
		return "UNSAFE"
	}
	return "SAFE"
}

// tableRow names one row of the paper's tables.
type tableRow struct {
	bench string
	k, l  int
}

// tableUnsafeRows are the eight Table 1 rows plus the Table 2 rare-bug
// row szymanski_1(3): every one UNSAFE, found by the probe ladder or
// the deepening rounds, with lift and replay on every query.
var tableUnsafeRows = []tableRow{
	{"bakery", 2, 2}, {"burns", 2, 2}, {"dekker", 2, 2}, {"lamport", 2, 2},
	{"peterson_0", 2, 2}, {"peterson_0(3)", 2, 2}, {"sim_dekker", 2, 2}, {"szymanski_0", 2, 2},
	{"szymanski_1(3)", 2, 2},
}

// tableSafeRows are the fenced SAFE rows of Tables 6-7 that finish in
// seconds; bakery_4 and lamport_4 are left out for run length alone.
var tableSafeRows = []tableRow{
	{"tbar_4", 2, 1}, {"tbar_4(3)", 2, 1}, {"peterson_4(2)", 2, 1}, {"peterson_4(2)", 2, 2},
}

// tableQueries resolves table rows; the expected verdict follows from
// the protocol version (_0 to _3 buggy, _4 fenced and correct).
func tableQueries(prefix string, rows []tableRow, limit int) ([]query, error) {
	var qs []query
	for i, r := range rows {
		p, err := benchmarks.ByName(r.bench)
		if err != nil {
			return nil, fmt.Errorf("table row %s: %w", r.bench, err)
		}
		want := "UNSAFE"
		if strings.HasSuffix(strings.SplitN(r.bench, "(", 2)[0], "_4") {
			want = "SAFE"
		}
		qs = append(qs, query{
			ID: fmt.Sprintf("%s%02d", prefix, i), Program: r.bench, Prog: p,
			K: r.k, L: r.l, Want: want,
		})
	}
	return trim(qs, limit), nil
}

func trim(qs []query, limit int) []query {
	if limit > 0 && len(qs) > limit {
		return qs[:limit]
	}
	return qs
}

// litmusK is the view bound of litmus-k3: the lowest K at which VBMC
// agrees with the RA oracle on the whole classic set (IRIW needs 3).
const litmusK = 3

// shape is a generated test's write profile: how many of its writes go
// to its busier variable and how many to the other. With the oracle
// class it predicts a test's cost: a SAFE test with four writes to one
// variable takes about a second at K=3, one with a single write 30 ms,
// and UNSAFE tests decide in about a millisecond.
type shape struct{ hi, lo int }

func shapeOf(p *lang.Program) shape {
	n := map[string]int{}
	for _, pr := range p.Procs {
		for _, st := range pr.Body {
			if w, ok := st.(lang.Write); ok {
				n[w.Var]++
			}
		}
	}
	a, b := n["x"], n["y"]
	if a < b {
		a, b = b, a
	}
	return shape{a, b}
}

// stratum is one cell of a sample design: oracle class and write shape.
type stratum struct {
	unsafe bool
	shape  shape
}

// Seeded samples draw a fixed number of tests from each stratum, so the
// seed changes which tests run but not the mix of costs: a sample drawn
// freely moved wall time by 20% and the slow-query percentile by 2x from
// seed to seed. The counts follow the corpus's shares. Seeded SAFE tests
// of litmus-k3 have at most two writes (under 0.2 s each at K=3); its
// heavier SAFE shapes come from litmusHeavy, the same on every seed, so
// the slow tail where verdict_p90_s falls does not move with the seed.
var (
	// litmusQuotas: litmus-k3's 120 UNSAFE and 20 SAFE seeded tests.
	// With about three quarters of the queries UNSAFE, the median query
	// sits inside the millisecond UNSAFE decisions, not at their edge.
	litmusQuotas = map[stratum]int{
		{true, shape{1, 0}}: 4, {true, shape{1, 1}}: 14, {true, shape{2, 0}}: 6,
		{true, shape{2, 1}}: 37, {true, shape{3, 0}}: 5, {true, shape{2, 2}}: 16,
		{true, shape{3, 1}}: 20, {true, shape{4, 0}}: 2, {true, shape{3, 2}}: 11,
		{true, shape{4, 1}}:  5,
		{false, shape{0, 0}}: 2, {false, shape{1, 0}}: 8, {false, shape{1, 1}}: 4,
		{false, shape{2, 0}}: 6,
	}
	// mixQuotas: each vbmcd-mix client's 20 UNSAFE and 55 SAFE fresh
	// programs, SAFE ones with at most two writes per variable (under
	// 0.25 s each): the served workload is about the layers around the
	// engine, and a pass holds too few computes to average a heavier
	// tail out.
	mixQuotas = map[stratum]int{
		{true, shape{1, 0}}: 1, {true, shape{1, 1}}: 3, {true, shape{2, 0}}: 2,
		{true, shape{2, 1}}: 5, {true, shape{2, 2}}: 3, {true, shape{3, 1}}: 4,
		{true, shape{3, 2}}:  2,
		{false, shape{0, 0}}: 4, {false, shape{1, 0}}: 17, {false, shape{1, 1}}: 10,
		{false, shape{2, 0}}: 16, {false, shape{2, 1}}: 8,
	}
)

// litmusHeavy are litmus-k3's generated SAFE tests of the heavier
// shapes: evenly spaced members, in corpus order, of the SAFE tests with
// writes split two and one between the variables (5), three to one (12),
// three and one (2), two and two (1), and four to one (2).
var litmusHeavy = []string{
	"lit00647", "lit01610", "lit02195", "lit02844", "lit03591",
	"lit00143", "lit00526", "lit00803", "lit01406", "lit01526", "lit01882",
	"lit02063", "lit02407", "lit02709", "lit03122", "lit03446", "lit03843",
	"lit00661", "lit02076", "lit01602", "lit00704", "lit02405",
}

// generated is the two-thread, three-ops-per-thread litmus corpus.
func generated() []litmus.Test { return litmus.Generated(3) }

// stratified draws each stratum's quota of tests from the corpus in a
// seed-fixed order, skipping the indices in taken (which it extends).
// It returns corpus indices in draw order with their strata.
func stratified(gen []litmus.Test, rng *rand.Rand, quotas map[stratum]int, taken map[int]bool) (idx []int, cell map[int]stratum) {
	left := map[stratum]int{}
	total := 0
	for st, n := range quotas {
		left[st] = n
		total += n
	}
	cell = map[int]stratum{}
	for _, i := range rng.Perm(len(gen)) {
		if total == 0 {
			break
		}
		sh := shapeOf(gen[i].Prog)
		if taken[i] || left[stratum{true, sh}]+left[stratum{false, sh}] == 0 {
			continue
		}
		st := stratum{litmus.Oracle(gen[i]), sh}
		if left[st] == 0 {
			continue
		}
		left[st]--
		total--
		taken[i] = true
		idx = append(idx, i)
		cell[i] = st
	}
	return idx, cell
}

// litmusQueries is litmus-k3's query list: the light classic shapes,
// then the generated tests (seeded sample and litmusHeavy) in corpus
// order.
func litmusQueries(seed int64, limit int) []query {
	qs := lightClassics("lc-")
	gen := generated()
	taken := map[int]bool{}
	heavy := map[string]bool{}
	for _, n := range litmusHeavy {
		heavy[n] = true
	}
	for i, t := range gen {
		if heavy[t.Name] {
			taken[i] = true
		}
	}
	seeded, _ := stratified(gen, rand.New(rand.NewSource(seed)), litmusQuotas, taken)
	idx := append([]int(nil), seeded...)
	for i := range gen {
		if heavy[gen[i].Name] {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	for _, i := range idx {
		qs = append(qs, query{ID: "lg-" + gen[i].Name, Program: gen[i].Name, Prog: gen[i].Prog, K: litmusK})
	}
	if limit > 0 {
		// A tiny slice keeps both origins: light classics, then
		// generated tests.
		var classic, gens []query
		for _, q := range qs {
			switch {
			case q.Literature == "":
				gens = append(gens, q)
			default:
				classic = append(classic, q)
			}
		}
		half := (limit + 1) / 2
		return append(trim(classic, half), trim(gens, limit-half)...)
	}
	return qs
}

// heavyClassic are the two fenced classic shapes whose K=3 search takes
// 6 to 9 s each. They are left out of litmus-k3 for run length alone:
// they would be two thirds of its time, where the workload is about
// tiny queries, and table-safe already measures long SAFE searches.
var heavyClassic = map[string]bool{"SB+fences": true, "2F-SB": true}

// lightClassics returns the other 16 classic shapes at K=3, each with
// its literature verdict, under the given ID prefix. Every layer
// applies to some of them, and all of them decide in about half a
// second.
func lightClassics(prefix string) []query {
	var qs []query
	for _, t := range litmus.Classic() {
		if heavyClassic[t.Name] {
			continue
		}
		qs = append(qs, query{
			ID: prefix + t.Name, Program: t.Name, Prog: t.Prog, K: litmusK,
			Literature: verdictName(t.Unsafe),
		})
	}
	return qs
}

// vbmcd-mix stream shape: each of the two clients sends streamLen
// requests, streamFresh of them (its mixQuotas sample) for programs it
// has not sent before. With 70% repeats answered by the cache, 8% fresh
// UNSAFE and 22% fresh SAFE programs, the median request falls inside
// the cache answers and the 90th percentile inside the SAFE computes,
// not on the edge between two modes.
const (
	mixClients  = 2
	streamLen   = 250
	streamFresh = 75
)

// item is one request of a client's stream.
type item struct {
	// Prog indexes the stream's programs; a repeat names the program of
	// an earlier fresh item of the same stream.
	Prog  int
	Fresh bool
	// K is the bound of a fresh request. A repeat with Shift asks at the
	// neighbouring K that monotonicity answers from the verdict the
	// client got back (UNSAFE at 2 answers 3, SAFE at 3 answers 2);
	// without Shift, or when no neighbour is answered, it asks at the
	// same K.
	K     int
	Shift bool
}

// stream is one client's closed-loop request sequence.
type stream struct {
	Items []item
	Progs []query // Want holds the RA oracle's verdict
}

// mixStreams builds the vbmcd-mix request streams from the seed. Fresh
// programs are disjoint between clients, so no request ever races
// another client's compute of the same key: hits and computes are a
// function of the streams alone.
func mixStreams(seed int64, n, fresh int) []stream {
	gen := generated()
	rng := rand.New(rand.NewSource(seed))
	taken := map[int]bool{}
	out := make([]stream, mixClients)
	for c := range out {
		idx, cell := stratified(gen, rng, mixQuotas, taken)
		// Half of each stratum is asked at K=2 and half at K=3 (the seed
		// picks which half gets an odd one out), so the seed does not
		// tilt the costs either.
		kOf, flip := map[int]int{}, map[stratum]int{}
		for _, i := range idx {
			st := cell[i]
			if _, ok := flip[st]; !ok {
				flip[st] = rng.Intn(2)
			}
			kOf[i] = 2 + flip[st]%2
			flip[st]++
		}
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		s := &out[c]
		for j, i := range idx[:fresh] {
			s.Progs = append(s.Progs, query{
				ID: fmt.Sprintf("c%d-%02d", c, j), Program: gen[i].Name, Prog: gen[i].Prog,
				K: kOf[i], Want: verdictName(cell[i].unsafe),
			})
		}
		// Item 0 is fresh; the other fresh positions are seed-chosen.
		isFresh := map[int]bool{0: true}
		for _, p := range rng.Perm(n - 1)[:fresh-1] {
			isFresh[p+1] = true
		}
		seen := 0
		for i := 0; i < n; i++ {
			if isFresh[i] {
				s.Items = append(s.Items, item{Prog: seen, Fresh: true, K: s.Progs[seen].K})
				seen++
				continue
			}
			j := rng.Intn(seen)
			s.Items = append(s.Items, item{Prog: j, K: s.Progs[j].K, Shift: rng.Intn(2) == 0})
		}
	}
	return out
}

// shiftedK is the bound a repeat asks at, given the verdict its
// program's fresh request got back.
func shiftedK(it item, got string) int {
	if !it.Shift {
		return it.K
	}
	switch {
	case it.K == 2 && got == "UNSAFE":
		return 3
	case it.K == 3 && got == "SAFE":
		return 2
	}
	return it.K
}
