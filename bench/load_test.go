package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopShowsStall drives the open-loop generator against a
// server that stalls every request for 100 ms once, the way a
// checkpoint under a global lock does. Arrivals keep their due times,
// so the ones that queue behind the stall report it; a closed loop
// would have shown the stall on two requests and nothing on the rest.
func TestOpenLoopShowsStall(t *testing.T) {
	const (
		rate    = 500.0
		seconds = 1.0
		stall   = 100 * time.Millisecond
	)
	var gate sync.Mutex
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := served.Add(1)
		gate.Lock()
		if n == 100 {
			time.Sleep(stall)
		}
		gate.Unlock()
		fmt.Fprintf(w, `{"entity_id":"x","members":["x"]}`)
	}))
	defer srv.Close()

	var ops []op
	var due []time.Duration
	for i := 0; i < int(rate*seconds); i++ {
		ops = append(ops, entityOp("x"))
		due = append(due, time.Duration(float64(i)/rate*float64(time.Second)))
	}
	planned := slices.Clone(due)
	chk := &checker{}
	c := &client{http: newHTTPClient(2), base: srv.URL, check: chk}
	ph := runPhase(context.Background(), c, ops, due, 2, time.Duration(seconds*float64(time.Second)), nil, nil)

	if chk.failed != 0 || ph.attempted != len(ops) || len(ph.latMS) != len(ops) {
		t.Fatalf("attempted %d, answered %d, failed %d: %v", ph.attempted, len(ph.latMS), chk.failed, chk.failures)
	}
	if !slices.Equal(due, planned) {
		t.Fatal("due times shifted during the run")
	}
	// At 500 arrivals a second some 50 arrive during the stall; each is
	// timed from its due time, so most of them show tens of milliseconds.
	slow := 0
	for _, v := range ph.latMS {
		if v > 20 {
			slow++
		}
	}
	if slow < 20 {
		t.Errorf("%d requests slower than 20 ms from due time, want the queue behind the stall (>= 20)", slow)
	}
	if max := ph.latMS[len(ph.latMS)-1]; max < ms(stall) {
		t.Errorf("max latency %.1f ms is shorter than the stall", max)
	}
	// The generator ran late exactly while every connection was stuck,
	// and says so.
	late := quantile(ph.lateMS, 0.99)
	if late < 20 || late > 2*ms(stall) {
		t.Errorf("late_ms_p99 = %.1f, want between 20 and %.0f", late, 2*ms(stall))
	}
	// Once the stall has drained the schedule is met again: nothing
	// was pushed back.
	if tail := quantile(ph.lateMS, 0.5); tail > 5 {
		t.Errorf("median lateness %.2f ms: the schedule did not recover", tail)
	}
	if ph.elapsed > time.Duration(1.5*seconds*float64(time.Second)) {
		t.Errorf("phase took %v for a %vs schedule", ph.elapsed, seconds)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a
		{ID: 4, Parent: 3, Name: "c", Start: 25, End: 35},
	}
	got := selfTimes(spans)
	want := map[string][2]int64{"op": {1, 60}, "a": {1, 20}, "b": {1, 20}, "c": {1, 10}}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

// TestWindowQuantile checks that one stalled window out of many does
// not move the statistic, and that a slower tail in every window does.
func TestWindowQuantile(t *testing.T) {
	build := func(tail float64) *phase {
		p := &phase{elapsed: 5 * time.Second}
		for w := 0; w < 10; w++ { // ten half-second windows of a hundred answers
			for i := 0; i < 100; i++ {
				lat := 1.0
				if i >= 90 {
					lat = tail
				}
				if w == 3 {
					lat = 80 // a stall covers this window
				}
				p.latMS = append(p.latMS, lat)
				p.atS = append(p.atS, float64(w)*0.5+float64(i)*0.004)
			}
		}
		p.sortByLatency()
		return p
	}
	if got := build(4).windowQuantile(0.95); got != 4 {
		t.Errorf("windowed p95 = %v, want 4: the stalled window must not count", got)
	}
	if got := build(9).windowQuantile(0.95); got != 9 {
		t.Errorf("windowed p95 = %v, want 9", got)
	}
	if got := build(4).windowQuantile(0.50); got != 1 {
		t.Errorf("windowed p50 = %v, want 1", got)
	}
	if got := quantile(build(4).latMS, 0.95); got != 80 {
		t.Errorf("plain p95 = %v: the fixture's stall should have moved it", got)
	}
}
