package resilience

import (
	"cmp"
	"context"
	"errors"
	"sync/atomic"

	"llm4em/internal/telemetry"
)

// ErrShed is returned (wrapped) when the load-shedder rejects work
// because both the concurrency limit and the wait queue are full.
// Servers map it to 503 with a Retry-After hint.
var ErrShed = errors.New("resilience: overloaded, escalation shed")

// ShedOptions configures a Shedder.
type ShedOptions struct {
	// MaxConcurrent bounds escalations running at once (default 64).
	// Up to four times as many callers wait for a slot; the next one
	// is shed immediately rather than queued.
	MaxConcurrent int
	// Metrics receives the shed counter; zero value disabled (Shed
	// then reads the shedder's own counter).
	Metrics telemetry.ResilienceMetrics
}

func (o ShedOptions) withDefaults() ShedOptions {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 64
	}
	o.Metrics.Shed = cmp.Or(o.Metrics.Shed, &telemetry.Counter{})
	return o
}

// queuePerSlot is how many waiting callers a Shedder admits per
// concurrency slot before it sheds: 256 at the default 64 slots.
const queuePerSlot = 4

// Shedder is a concurrency limiter with a bounded wait queue: up to
// MaxConcurrent acquisitions proceed, up to queuePerSlot×MaxConcurrent
// more wait (still honouring their context), and everyone beyond that
// is rejected with ErrShed. Acquire/Release are allocation-free.
type Shedder struct {
	opts    ShedOptions
	slots   chan struct{} // buffered; a held token = a running escalation
	waiting atomic.Int64
}

// NewShedder builds a Shedder.
func NewShedder(opts ShedOptions) *Shedder {
	opts = opts.withDefaults()
	return &Shedder{
		opts:  opts,
		slots: make(chan struct{}, opts.MaxConcurrent),
	}
}

// Acquire takes a concurrency slot, waiting in the bounded queue if
// none is free. It returns ErrShed (wrapped) when the queue is full
// and ctx.Err() when the caller's context expires while waiting.
// Every nil return must be paired with exactly one Release.
func (s *Shedder) Acquire(ctx context.Context) error {
	select {
	case s.slots <- struct{}{}:
		return nil
	default:
	}
	if s.waiting.Add(1) > int64(queuePerSlot*cap(s.slots)) {
		s.waiting.Add(-1)
		s.opts.Metrics.Shed.Inc()
		return ErrShed
	}
	defer s.waiting.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot taken by a successful Acquire.
func (s *Shedder) Release() { <-s.slots }

// InFlight returns the number of currently held slots.
func (s *Shedder) InFlight() int { return len(s.slots) }

// Waiting returns the number of callers queued for a slot.
func (s *Shedder) Waiting() int { return int(s.waiting.Load()) }

// Shed returns how many acquisitions have been rejected.
func (s *Shedder) Shed() uint64 { return s.opts.Metrics.Shed.Value() }
