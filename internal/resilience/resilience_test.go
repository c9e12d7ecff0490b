package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"llm4em/internal/clock"
	"llm4em/internal/llm"
)

var errBoom = errors.New("boom")

func TestBreakerConsecutiveFailuresTrip(t *testing.T) {
	clk := new(clock.Manual)
	b := NewBreaker(BreakerOptions{ConsecutiveFailures: 3, Clock: clk})
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("attempt %d: breaker rejected while closed", i)
		}
		b.Report(errBoom)
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state after 2 failures = %v, want closed", got)
	}
	b.Allow()
	b.Report(errBoom)
	if got := b.State(); got != Open {
		t.Fatalf("state after 3rd consecutive failure = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request before cooldown")
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}
}

// report feeds the breaker n outcomes of the same kind, each admitted
// by Allow first.
func report(b *Breaker, n int, err error) {
	for i := 0; i < n; i++ {
		b.Allow()
		b.Report(err)
	}
}

func TestBreakerSuccessResetsConsecutive(t *testing.T) {
	clk := new(clock.Manual)
	b := NewBreaker(BreakerOptions{ConsecutiveFailures: 3, Clock: clk})
	for i := 0; i < 10; i++ {
		report(b, 2, errBoom)
		report(b, 1, nil) // breaks the streak
		// Each cycle lands in a fresh rolling window, so only the
		// consecutive-failure rule is in play (the 2/3 failure mix would
		// trip the rate rule once minSamples results accumulated).
		clk.Advance(window + time.Second)
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state = %v, want closed (streak never reached 3)", got)
	}
}

func TestBreakerErrorRateTrip(t *testing.T) {
	clk := new(clock.Manual)
	b := NewBreaker(BreakerOptions{
		ConsecutiveFailures: 1000, // only the rate can trip
		Clock:               clk,
	})
	// Alternate success/failure, one result short of minSamples: still
	// closed. The rate is only evaluated on failure reports.
	for i := 0; i < minSamples-1; i++ {
		if i%2 == 1 {
			report(b, 1, errBoom)
		} else {
			report(b, 1, nil)
		}
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state after %d samples = %v, want closed", minSamples-1, got)
	}
	// The minSamples-th result is a failure: 50% over a full sample trips.
	report(b, 1, errBoom)
	if got := b.State(); got != Open {
		t.Fatalf("state after %d samples at 50%% failure = %v, want open", minSamples, got)
	}
}

func TestBreakerErrorRateNeedsMinSamples(t *testing.T) {
	clk := new(clock.Manual)
	b := NewBreaker(BreakerOptions{
		ConsecutiveFailures: 1000,
		Clock:               clk,
	})
	// 100% failure rate but below minSamples, and below the streak rule.
	report(b, minSamples-1, errBoom)
	if got := b.State(); got != Closed {
		t.Fatalf("state with %d < minSamples failures = %v, want closed", minSamples-1, got)
	}
}

func TestBreakerWindowExpiresOldFailures(t *testing.T) {
	clk := new(clock.Manual)
	b := NewBreaker(BreakerOptions{
		ConsecutiveFailures: 1000,
		Clock:               clk,
	})
	report(b, minSamples-1, errBoom)
	// Let the failures age out of the rolling window entirely.
	clk.Advance(window + time.Second)
	// A full sample at a quarter failure rate: below errorRate on its
	// own, far above it if the aged-out failures still counted.
	report(b, minSamples*3/4, nil)
	report(b, minSamples/4, errBoom)
	if got := b.State(); got != Closed {
		t.Fatalf("state = %v, want closed: aged-out failures still counted", got)
	}
}

func TestBreakerHalfOpenProbeAndRecovery(t *testing.T) {
	clk := new(clock.Manual)
	b := NewBreaker(BreakerOptions{
		ConsecutiveFailures: 2,
		Cooldown:            time.Second,
		Clock:               clk,
	})
	b.Allow()
	b.Report(errBoom)
	b.Allow()
	b.Report(errBoom)
	if got := b.State(); got != Open {
		t.Fatalf("state = %v, want open", got)
	}

	// Cooldown not yet elapsed: rejected.
	clk.Advance(500 * time.Millisecond)
	if b.Allow() {
		t.Fatal("breaker admitted before cooldown elapsed")
	}

	// Cooldown elapsed: exactly one probe is admitted.
	clk.Advance(600 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker rejected the half-open probe")
	}
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	if b.Allow() {
		t.Fatal("breaker admitted a second request during the probe")
	}

	// Probe fails: re-open, wait another cooldown.
	b.Report(errBoom)
	if got := b.State(); got != Open {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if b.Trips() != 2 {
		t.Fatalf("trips = %d, want 2", b.Trips())
	}

	// Second probe succeeds: closed, traffic flows again.
	clk.Advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("breaker rejected the second probe")
	}
	b.Report(nil)
	if got := b.State(); got != Closed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	if !b.Allow() {
		t.Fatal("closed breaker rejected a request")
	}
}

func TestBreakerIgnoresContextErrors(t *testing.T) {
	clk := new(clock.Manual)
	b := NewBreaker(BreakerOptions{ConsecutiveFailures: 2, Clock: clk})
	for i := 0; i < 20; i++ {
		b.Allow()
		b.Report(context.Canceled)
		b.Allow()
		b.Report(fmt.Errorf("wrap: %w", context.DeadlineExceeded))
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state = %v, want closed: context errors must not trip", got)
	}
}

func TestShedderConcurrencyAndQueue(t *testing.T) {
	s := NewShedder(ShedOptions{MaxConcurrent: 2})
	ctx := context.Background()
	if err := s.Acquire(ctx); err != nil {
		t.Fatalf("acquire 1: %v", err)
	}
	if err := s.Acquire(ctx); err != nil {
		t.Fatalf("acquire 2: %v", err)
	}
	if got := s.InFlight(); got != 2 {
		t.Fatalf("inflight = %d, want 2", got)
	}

	// Four waiters per slot queue; the next caller is shed.
	const queue = 4 * 2
	queued := make(chan error, queue)
	for i := 0; i < queue; i++ {
		go func() { queued <- s.Acquire(ctx) }()
	}
	waitFor(t, func() bool { return s.Waiting() == queue })
	if err := s.Acquire(ctx); !errors.Is(err, ErrShed) {
		t.Fatalf("acquire beyond slots and queue err = %v, want ErrShed", err)
	}
	if s.Shed() != 1 {
		t.Fatalf("shed = %d, want 1", s.Shed())
	}

	// Each release lets one queued caller in.
	for i := 0; i < queue; i++ {
		s.Release()
		if err := <-queued; err != nil {
			t.Fatalf("queued acquire: %v", err)
		}
	}
	s.Release()
	s.Release()
	if got := s.InFlight(); got != 0 {
		t.Fatalf("inflight after releases = %d, want 0", got)
	}
}

func TestShedderContextCancelWhileQueued(t *testing.T) {
	s := NewShedder(ShedOptions{MaxConcurrent: 1})
	if err := s.Acquire(context.Background()); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() { queued <- s.Acquire(ctx) }()
	waitFor(t, func() bool { return s.Waiting() == 1 })
	cancel()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued acquire err = %v, want context.Canceled", err)
	}
	s.Release()
	// The cancelled waiter must not have consumed the freed slot.
	if err := s.Acquire(context.Background()); err != nil {
		t.Fatalf("acquire after cancel: %v", err)
	}
}

// stubClient counts calls and returns a scripted error.
type stubClient struct {
	mu    sync.Mutex
	calls int
	err   error
}

func (c *stubClient) Name() string { return "stub" }

func (c *stubClient) Chat([]llm.Message) (llm.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.err != nil {
		return llm.Response{}, c.err
	}
	return llm.Response{Content: "Yes."}, nil
}

func (c *stubClient) setErr(err error) {
	c.mu.Lock()
	c.err = err
	c.mu.Unlock()
}

func (c *stubClient) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

func TestGuardedClientFailsFastWhenOpen(t *testing.T) {
	clk := new(clock.Manual)
	stub := &stubClient{err: errBoom}
	g := Guard(stub, NewBreaker(BreakerOptions{ConsecutiveFailures: 2, Cooldown: time.Second, Clock: clk}))

	if _, err := g.Chat(nil); !errors.Is(err, errBoom) {
		t.Fatalf("first failure err = %v, want errBoom", err)
	}
	// The failure that trips the breaker already reports it open, so the
	// pipeline does not sleep a backoff only to be rejected.
	_, err := g.Chat(nil)
	if !errors.Is(err, ErrOpen) || !strings.Contains(err.Error(), errBoom.Error()) {
		t.Fatalf("tripping failure err = %v, want ErrOpen naming boom", err)
	}
	before := stub.count()
	if _, err := g.Chat(nil); !errors.Is(err, ErrOpen) {
		t.Fatalf("err after trip = %v, want ErrOpen", err)
	}
	if stub.count() != before {
		t.Fatal("open breaker still reached the inner client")
	}

	// Recovery: probe succeeds, traffic resumes.
	stub.setErr(nil)
	clk.Advance(2 * time.Second)
	if resp, err := g.Chat(nil); err != nil || resp.Content != "Yes." {
		t.Fatalf("probe call = %q, %v; want Yes., nil", resp.Content, err)
	}
	if g.Breaker().State() != Closed {
		t.Fatalf("state = %v, want closed after successful probe", g.Breaker().State())
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
