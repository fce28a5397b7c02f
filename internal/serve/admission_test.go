package serve

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"ravbmc/internal/cache"
	"ravbmc/internal/litmus"
)

// TestAdmitRefusesExpiredCtx: with a free worker slot and an expired
// context both ready, admission must refuse every time. A bare select
// picks between ready cases at random, so one try in four admitted the
// expired request before ctx was checked up front.
func TestAdmitRefusesExpiredCtx(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	release, err := s.admitRequest(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for try := 0; try < 50; try++ {
		for _, wait := range []bool{true, false} {
			rel, err := s.admitRequest(expired, wait)
			if err == nil {
				rel()
				t.Fatalf("try %d (wait=%v): expired request admitted", try, wait)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("try %d (wait=%v): err = %v, want deadline exceeded", try, wait, err)
			}
		}
	}
	if n, m := len(s.admit), len(s.work); n != 1 || m != 1 {
		t.Fatalf("refusals leaked tokens: admit=%d work=%d, want 1/1", n, m)
	}
}

// TestSpentDeadlineNotRunUnbounded: a deadline that has passed by the
// time the engines are configured must yield the deadline-exceeded
// answer. Passing time.Until(deadline) <= 0 on as the Timeout would
// run the query with no timeout at all.
func TestSpentDeadlineNotRunUnbounded(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	prog := litmus.Classic()[0].Prog
	req := VerifyRequest{Program: progSrc(prog), Mode: cache.ModeVBMC, K: 2}
	past := time.Now().Add(-time.Second)

	res := s.runLocal(context.Background(), s.newRun("verify", ""), req, prog, false, past, true)
	if res.status != http.StatusGatewayTimeout {
		t.Errorf("verify with a spent deadline: status %d, want %d", res.status, http.StatusGatewayTimeout)
	}

	xc := cache.ExecConfig{Timeout: time.Minute}
	_, _, _, err := s.runMinK(context.Background(), req, prog, past, xc)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("mink with a spent deadline: err = %v, want deadline exceeded", err)
	}
}
