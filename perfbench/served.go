package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ravbmc/internal/lang"
)

// daemon is a vbmcd process started with its defaults (an ephemeral
// port aside) and an empty in-memory cache.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	copied chan struct{} // closed once stdout is drained
}

// startDaemon starts vbmcd and returns once /healthz answers.
func startDaemon(bin string) (*daemon, error) {
	if bin == "" {
		return nil, fmt.Errorf("no vbmcd binary given (-vbmcd)")
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = io.Discard // one log line per request
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start vbmcd: %w", err)
	}
	d := &daemon{cmd: cmd, copied: make(chan struct{})}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	go func() {
		io.Copy(io.Discard, br) // returns at EOF, when vbmcd exits
		close(d.copied)
	}()
	const prefix = "vbmcd listening on "
	if err != nil || !strings.HasPrefix(line, prefix) {
		d.stop()
		return nil, fmt.Errorf("vbmcd did not report its address (%q, %v)", line, err)
	}
	d.base = strings.TrimSpace(strings.TrimPrefix(line, prefix))
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("vbmcd at %s not healthy after 10s", d.base)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains vbmcd with SIGTERM (killing it after 10s) and waits for
// the process to exit.
func (d *daemon) stop() error {
	sigErr := d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.copied:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.copied
	}
	waitErr := d.cmd.Wait()
	if sigErr != nil {
		return sigErr
	}
	return waitErr
}

// peakRSSMB reads a process's resident-set high-water mark.
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// verifyRequest and verifyResponse are the parts of vbmcd's /v1/verify
// API the benchmark uses.
type verifyRequest struct {
	Program string `json:"program"`
	Mode    string `json:"mode"`
	K       int    `json:"k"`
	Unroll  int    `json:"unroll,omitempty"`
}

type verifyResponse struct {
	Verdict          string  `json:"verdict"`
	States           int     `json:"states"`
	WitnessValidated bool    `json:"witness_validated"`
	Seconds          float64 `json:"seconds"`
	Cached           bool    `json:"cached"`
	Subsumed         bool    `json:"subsumed"`
	ElapsedSeconds   float64 `json:"elapsed_seconds"`
	Error            string  `json:"error"`
}

// reply is one request's outcome as the client saw it.
type reply struct {
	q       query // the program and the K actually asked
	resp    verifyResponse
	status  int
	err     error
	latency float64
	// parse is the time parser.Parse takes on the request's source
	// (traced runs only).
	parse float64
}

// disposition names where an answer came from.
func (r reply) disposition() string {
	switch {
	case r.err != nil || r.status != http.StatusOK:
		return "none"
	case r.resp.Subsumed:
		return "subsumed"
	case r.resp.Cached:
		return "hit"
	}
	return "computed"
}

// client is one closed-loop caller over a single connection, as each
// `vbmc -remote` caller waits for its reply.
type client struct {
	base string
	http *http.Client
	// before, when set, runs ahead of each request (the traced run's
	// span and parse timing).
	before func(q query, src string) func(r *reply)
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr}}
}

// verify sends one program at one K and times the round trip.
func (c *client) verify(q query) reply {
	src := lang.Canon(q.Prog)
	r := reply{q: q}
	var done func(*reply)
	if c.before != nil {
		done = c.before(q, src)
	}
	// Marshalling a struct of strings and ints cannot fail.
	body, _ := json.Marshal(verifyRequest{Program: src, Mode: "vbmc", K: q.K, Unroll: q.L})
	start := time.Now()
	resp, err := c.http.Post(c.base+"/v1/verify", "application/json", bytes.NewReader(body))
	if err == nil {
		r.status = resp.StatusCode
		err = json.NewDecoder(resp.Body).Decode(&r.resp)
		resp.Body.Close()
	}
	r.latency = time.Since(start).Seconds()
	r.err = err
	if done != nil {
		done(&r)
	}
	return r
}

// runStream sends a stream's requests in order, each after the previous
// reply: fresh programs at their K, repeats at the K the earlier reply
// makes answerable.
func (c *client) runStream(s stream) []reply {
	got := make([]string, len(s.Progs))
	out := make([]reply, 0, len(s.Items))
	for _, it := range s.Items {
		q := s.Progs[it.Prog]
		q.K = it.K
		if !it.Fresh {
			q.K = shiftedK(it, got[it.Prog])
		}
		r := c.verify(q)
		if it.Fresh {
			got[it.Prog] = r.resp.Verdict
		}
		out = append(out, r)
	}
	c.http.CloseIdleConnections()
	return out
}

// judgeReply checks a served answer against the RA oracle's verdict; a
// refused or failed request counts as a failure too.
func judgeReply(workload string, r reply) row {
	rw := row{
		Workload: workload, Query: r.q.ID, Program: r.q.Program, K: r.q.K, L: r.q.L,
		Verdict: r.resp.Verdict, Want: r.q.Want, Seconds: r.latency, States: r.resp.States,
		Cache: r.disposition(),
	}
	switch {
	case r.err != nil:
		rw.Failure = r.err.Error()
	case r.status != http.StatusOK:
		rw.Failure = fmt.Sprintf("HTTP %d: %s", r.status, r.resp.Error)
	case r.q.Literature != "" && r.q.Want != r.q.Literature:
		rw.Failure = fmt.Sprintf("RA oracle says %s, the literature %s", r.q.Want, r.q.Literature)
	case rw.Verdict != rw.Want:
		rw.Failure = fmt.Sprintf("verdict %s, want %s", rw.Verdict, rw.Want)
	case rw.Verdict == "UNSAFE" && !r.resp.WitnessValidated:
		rw.Failure = "witness not validated"
	}
	return rw
}

// servedPass starts a fresh vbmcd, runs every stream on its own client
// concurrently, and stops the daemon. It returns the replies per
// stream, the set-up and pass times, and the daemon's peak RSS.
func servedPass(cfg config, streams []stream, wrap func(*client)) (replies [][]reply, setup, wall, rss float64, err error) {
	start := time.Now()
	d, err := startDaemon(cfg.Vbmcd)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	setup = time.Since(start).Seconds()
	replies = make([][]reply, len(streams))
	var wg sync.WaitGroup
	passStart := time.Now()
	for i, s := range streams {
		c := newClient(d.base)
		if wrap != nil {
			wrap(c)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies[i] = c.runStream(s)
		}()
	}
	wg.Wait()
	wall = time.Since(passStart).Seconds()
	rss = peakRSSMB(d.cmd.Process.Pid)
	if err := d.stop(); err != nil {
		return nil, 0, 0, 0, fmt.Errorf("stop vbmcd: %w", err)
	}
	return replies, setup, wall, rss, nil
}

// mix is the vbmcd-mix workload.
func mix(cfg config) (result, error) {
	n, fresh := streamLen, streamFresh
	if cfg.Limit > 0 {
		n, fresh = cfg.Limit, (cfg.Limit+1)/2
	}
	streams := mixStreams(cfg.Seed, n, fresh)
	if cfg.Trace {
		return mixTraced(cfg, streams)
	}
	var setups, walls, rsss, allocs []float64
	var passes [][][]reply
	start := time.Now()
	for {
		passStart := time.Now()
		var before, after runtimeMem
		before.read()
		replies, setup, wall, rss, err := servedPass(cfg, streams, nil)
		if err != nil {
			return result{}, err
		}
		after.read()
		setups, walls, rsss = append(setups, setup), append(walls, wall), append(rsss, rss)
		allocs = append(allocs, float64(after.total-before.total)/1e6)
		passes = append(passes, replies)
		if time.Since(start)+time.Since(passStart) > time.Duration(cfg.Seconds*float64(time.Second)) && len(passes) >= 3 {
			break
		}
	}
	var res result
	var latencies []float64
	states := 0
	for c, s := range passes[0] {
		for i, r := range s {
			// A request's latency is its fastest over the passes: every
			// pass asks the same questions of an empty cache. Every
			// answer is checked.
			var ls []float64
			rw := judgeReply(cfg.Workload, r)
			for _, p := range passes {
				ls = append(ls, p[c][i].latency)
				if f := judgeReply(cfg.Workload, p[c][i]).Failure; f != "" {
					res.Failed++
					if rw.Failure == "" {
						rw.Failure = f
					}
				}
			}
			res.Attempted += len(passes)
			rw.Seconds = minimum(ls)
			rw.Query = fmt.Sprintf("%s#%03d", r.q.ID, i)
			res.Rows = append(res.Rows, rw)
			latencies = append(latencies, rw.Seconds)
			if rw.Cache == "computed" {
				states += r.resp.States
			}
		}
	}
	res.set("setup_s", median(setups), "s")
	res.set("wall_s", minimum(walls), "s")
	res.set("verdict_p50_s", quantile(latencies, 0.5), "s")
	res.set("verdict_p90_s", quantile(latencies, 0.9), "s")
	res.set("verdict_geomean_s", geomean(latencies), "s")
	res.set("states", float64(states), "count")
	res.set("alloc_mb", median(allocs), "MB")
	// A daemon's peak varies with how far its collector lags behind
	// under load; the smallest peak over identical passes is the one
	// that repeats.
	res.set("peak_rss_mb", minimum(rsss), "MB")
	return res, nil
}
