package main

import (
	"errors"
	"net/http"
	"testing"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	// Exact samples, never interpolated: the median of an even count is
	// the lower middle sample.
	if got := percentile([]float64{1, 2, 3, 4}, 50); got != 2 {
		t.Errorf("median of 1..4 = %v, want 2", got)
	}
	if got := newDist([]float64{3, 1, 2}).p50(); got != 2 {
		t.Errorf("median of unsorted {3,1,2} = %v, want 2", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 99, true}, // 10 beyond p99
		{999, 95, true},  // 9 beyond p99: not enough
		{200, 95, true},  // 10 beyond p95: the epoch-churn cycle count
		{199, 90, true},
		{100, 90, true},
		{20, 50, true},
		{19, 0, false}, // 9 beyond even the median
		{0, 0, false},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%v has only %d samples beyond", c.n, got, beyond(c.n, got))
		}
	}
}

func TestErrorRateCountsFailuresAgainstAttempts(t *testing.T) {
	var tl tally
	tl.record(http.StatusCreated, http.StatusCreated, nil)                   // ok
	tl.record(http.StatusNoContent, http.StatusNoContent, nil)               // ok
	tl.record(http.StatusTooManyRequests, http.StatusCreated, nil)           // shed
	tl.record(http.StatusServiceUnavailable, http.StatusCreated, nil)        // shed
	tl.record(0, http.StatusCreated, errors.New("connection reset by peer")) // transport
	tl.record(http.StatusOK, http.StatusCreated, nil)                        // unexpected status
	if tl.attempted != 6 || tl.failed != 4 {
		t.Fatalf("tally = %+v, want 6 attempted, 4 failed", tl)
	}
	if got := tl.errorRate(); got != 4.0/6 {
		t.Errorf("error rate = %v, want %v", got, 4.0/6)
	}
	var sum tally
	sum.add(tl)
	sum.add(tally{attempted: 4})
	if got := sum.errorRate(); got != 0.4 {
		t.Errorf("combined error rate = %v, want 0.4", got)
	}
	if got := (tally{}).errorRate(); got != 0 {
		t.Errorf("empty error rate = %v, want 0", got)
	}
}

func TestStatCPUSecondsSumsUserAndSystemTime(t *testing.T) {
	// pid (comm) state ppid pgrp session tty tpgid flags minflt cminflt
	// majflt cmajflt utime stime ...; the name holds ") " to show the
	// fields are counted from the last parenthesis.
	line := []byte("4242 (me) (cd) S 1 4242 4242 0 -1 4194304 900 0 0 0 250 75 0 0 20 0 8 0\n")
	got, err := statCPUSeconds(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3.25; got != want {
		t.Errorf("CPU seconds = %v, want %v (325 ticks at 100 Hz)", got, want)
	}
	if _, err := statCPUSeconds([]byte("4242 (mecd) S 1 2")); err == nil {
		t.Error("a truncated stat line parsed without error")
	}
}

func TestStatTicksReadsStealAndTotal(t *testing.T) {
	stat := []byte("cpu  100 5 20 800 10 1 2 30 7 0\ncpu0 50 2 10 400 5 0 1 15 3 0\n")
	got, err := statTicks(stat)
	if err != nil {
		t.Fatal(err)
	}
	// Guest ticks (7) are already inside user and are not added again.
	if want := [2]uint64{30, 968}; got != want {
		t.Errorf("statTicks = %v, want %v", got, want)
	}
	if _, err := statTicks([]byte("intr 1 2 3\n")); err == nil {
		t.Error("a line that is not the all-CPU line parsed without error")
	}
}

func TestMergePoolsEveryWindow(t *testing.T) {
	win := func(steal, lat float64, failed int) *pass {
		return &pass{lat: map[string][]float64{opAdmit: {lat}}, steal: []float64{steal},
			t: tally{attempted: 10, failed: failed}, elapsed: 1, cpu: lat}
	}
	wins := []*pass{win(0.3, 3, 1), win(0, 1, 0), win(0.1, 2, 0)}
	var p pass
	p.merge(wins)
	if got := p.lat[opAdmit]; len(got) != 3 || got[0] != 3 || got[1] != 1 || got[2] != 2 {
		t.Errorf("latencies %v, want every window's [3 1 2] in window order", got)
	}
	if p.t.attempted != 30 || p.t.failed != 1 {
		t.Errorf("tally %+v, want every window's: 30 attempted, 1 failed", p.t)
	}
	if p.cpu != 6 || p.elapsed != 3 || len(p.steal) != 3 {
		t.Errorf("cpu %v elapsed %v windows %d, want 6, 3, 3", p.cpu, p.elapsed, len(p.steal))
	}
}
