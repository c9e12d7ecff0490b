// Package resilience provides the fault-tolerance primitives wrapped
// around the LLM escalation path: a circuit breaker that fails fast
// during backend outages and a load-shedder that bounds concurrent
// escalations and their wait queue. Both are stdlib-only, allocation-
// free on the happy path, and deterministic under an injected clock so
// the chaos harness (internal/chaos) can drive them reproducibly.
package resilience

import (
	"cmp"
	"context"
	"errors"
	"sync"
	"time"

	"llm4em/internal/clock"
	"llm4em/internal/telemetry"
)

// ErrOpen is returned (wrapped) when the circuit breaker rejects a
// request without attempting it. It is deliberately NOT transient in
// the pipeline sense: retrying immediately would defeat the point of
// failing fast, so the retry loop gives up on first sight of it.
var ErrOpen = errors.New("resilience: circuit breaker open")

// State is a circuit breaker state.
type State int32

// Breaker states. The numeric values are exported on the
// em_llm_breaker_state gauge, so they are part of the observable
// contract: 0=closed, 1=half-open, 2=open.
const (
	Closed State = iota
	HalfOpen
	Open
)

// String returns the state's dashboard name.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case HalfOpen:
		return "half-open"
	case Open:
		return "open"
	}
	return "unknown"
}

// The error-rate rule: a closed breaker also trips when at least
// minSamples results landed in the rolling window and errorRate of
// them failed. The window is realised as two rotating half-window
// buckets.
const (
	errorRate  = 0.5
	minSamples = 20
	window     = 10 * time.Second
)

// BreakerOptions configures a Breaker. The zero value of every field
// selects a sensible default (see withDefaults).
type BreakerOptions struct {
	// ConsecutiveFailures trips the breaker after this many back-to-back
	// failures regardless of the windowed error rate (default 5).
	ConsecutiveFailures int
	// Cooldown is how long an open breaker waits before letting one
	// half-open probe through (default 2s). The probe's failure
	// re-opens the breaker; its success closes it.
	Cooldown time.Duration
	// Clock is the time the cooldown and the error-rate window run on
	// (default clock.Wall).
	Clock clock.Clock
	// Metrics receives breaker state and trip counts; zero value
	// disabled (Trips then reads the breaker's own counter).
	Metrics telemetry.ResilienceMetrics
}

func (o BreakerOptions) withDefaults() BreakerOptions {
	if o.ConsecutiveFailures <= 0 {
		o.ConsecutiveFailures = 5
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 2 * time.Second
	}
	o.Clock = cmp.Or(o.Clock, clock.Wall)
	o.Metrics.BreakerTrips = cmp.Or(o.Metrics.BreakerTrips, &telemetry.Counter{})
	return o
}

// bucket is one half-window of request outcomes.
type bucket struct {
	start    time.Time
	total    int
	failures int
}

// Breaker is a closed/open/half-open circuit breaker. Callers ask
// Allow before a request and Report the outcome after; both are
// cheap (one mutex) and allocation-free. Context cancellation errors
// reported to it are ignored — a caller giving up says nothing about
// backend health.
type Breaker struct {
	opts BreakerOptions

	mu       sync.Mutex
	state    State
	consec   int    // consecutive failures while closed
	cur      bucket // rotating half-window buckets
	prev     bucket
	openedAt time.Time
	probed   bool // this half-open period's probe was admitted
}

// NewBreaker builds a closed breaker.
func NewBreaker(opts BreakerOptions) *Breaker {
	b := &Breaker{opts: opts.withDefaults()}
	b.cur.start = b.opts.Clock.Now()
	b.opts.Metrics.BreakerState.Set(int64(Closed))
	return b
}

// Allow reports whether a request may proceed right now. An open
// breaker whose cooldown has elapsed transitions to half-open and
// admits one trial request; everything else is rejected until the
// probe closes it again.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.opts.Clock.Now().Sub(b.openedAt) < b.opts.Cooldown {
			return false
		}
		b.setStateLocked(HalfOpen)
		b.probed = false
		fallthrough
	case HalfOpen:
		if b.probed {
			return false
		}
		b.probed = true
		return true
	}
	return true
}

// Report records the outcome of a request previously admitted by
// Allow. A nil err is a success; context cancellation and deadline
// errors are ignored entirely. It reports whether a counted failure
// left the breaker open, so that a retry would only be rejected.
func (b *Breaker) Report(err error) (open bool) {
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	defer func() { open = err != nil && b.state == Open }()
	switch b.state {
	case HalfOpen:
		if err != nil {
			b.tripLocked()
			return
		}
		b.setStateLocked(Closed)
		b.consec = 0
		now := b.opts.Clock.Now()
		b.cur = bucket{start: now}
		b.prev = bucket{}
	case Closed:
		b.rotateLocked()
		b.cur.total++
		if err == nil {
			b.consec = 0
			return
		}
		b.cur.failures++
		b.consec++
		if b.consec >= b.opts.ConsecutiveFailures {
			b.tripLocked()
			return
		}
		total := b.cur.total + b.prev.total
		failures := b.cur.failures + b.prev.failures
		if total >= minSamples && float64(failures) >= errorRate*float64(total) {
			b.tripLocked()
		}
	case Open:
		// A late result from a request admitted before the trip; the
		// window restarts when the breaker closes, so drop it.
	}
	return
}

// rotateLocked advances the two half-window buckets past stale time.
func (b *Breaker) rotateLocked() {
	const half = window / 2
	now := b.opts.Clock.Now()
	for now.Sub(b.cur.start) >= half {
		b.prev = b.cur
		b.cur = bucket{start: b.cur.start.Add(half)}
		// If the breaker sat idle for more than a full window, fast-
		// forward instead of looping per half-window.
		if now.Sub(b.cur.start) >= window {
			b.prev = bucket{}
			b.cur = bucket{start: now}
		}
	}
}

func (b *Breaker) tripLocked() {
	b.setStateLocked(Open)
	b.openedAt = b.opts.Clock.Now()
	b.consec = 0
	b.opts.Metrics.BreakerTrips.Inc()
}

func (b *Breaker) setStateLocked(s State) {
	if b.state == s {
		return
	}
	b.state = s
	b.opts.Metrics.BreakerState.Set(int64(s))
}

// State returns the breaker's current state, promoting an open breaker
// whose cooldown has elapsed to half-open (so observers and fast-path
// checks see the same state a concurrent Allow would).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && b.opts.Clock.Now().Sub(b.openedAt) >= b.opts.Cooldown {
		b.setStateLocked(HalfOpen)
		b.probed = false
	}
	return b.state
}

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() uint64 { return b.opts.Metrics.BreakerTrips.Value() }

// Cooldown returns how long the breaker stays open before it admits a
// half-open probe: BreakerOptions.Cooldown or its default.
func (b *Breaker) Cooldown() time.Duration { return b.opts.Cooldown }
