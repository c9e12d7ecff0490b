// Package clock is the time every deciding timer runs on: Wall, or a test's Manual.
package clock

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Clock reads the time and runs f after d; stop cancels f unless it has started.
type Clock interface {
	Now() time.Time
	AfterFunc(d time.Duration, f func()) (stop func() bool)
}

// Wall is the system clock.
var Wall Clock = wall{}

type wall struct{}

func (wall) Now() time.Time                                  { return time.Now() }
func (wall) AfterFunc(d time.Duration, f func()) func() bool { return time.AfterFunc(d, f).Stop }

// Manual moves only when Advance moves it; a zero Manual reads the epoch.
type Manual struct {
	mu      sync.Mutex
	added   sync.Cond // broadcast when a callback is scheduled
	now     atomic.Int64
	pending []*timer // by due time, then scheduling order
}
type timer struct {
	due time.Time
	f   func()
}

func (m *Manual) Now() time.Time { return time.Unix(0, m.now.Load()) }

func (m *Manual) AfterFunc(d time.Duration, f func()) func() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &timer{due: m.Now().Add(max(d, 0)), f: f}
	m.pending = append(m.pending, t)
	slices.SortStableFunc(m.pending, func(a, b *timer) int { return a.due.Compare(b.due) })
	m.added.Broadcast()
	return func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		n := len(m.pending)
		m.pending = slices.DeleteFunc(m.pending, func(p *timer) bool { return p == t })
		return len(m.pending) < n
	}
}

// Advance moves the clock d forward, running each callback due on the way (even one scheduled
// on the way) on the caller's goroutine at its due time: earliest first, ties in scheduling order.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	end := m.Now().Add(d)
	for len(m.pending) > 0 && !m.pending[0].due.After(end) {
		t := m.pending[0]
		m.pending = m.pending[1:]
		m.now.Store(t.due.UnixNano())
		m.mu.Unlock()
		t.f()
		m.mu.Lock()
	}
	m.now.Store(end.UnixNano())
}

// Next waits for a scheduled callback and returns the wait for the first.
func (m *Manual) Next() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.added.L = &m.mu; len(m.pending) == 0; {
		m.added.Wait()
	}
	return m.pending[0].due.Sub(m.Now())
}
