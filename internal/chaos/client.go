// Package chaos provides deterministic fault injection for the
// resilience layer's proof harness: a wrapping LLM client that
// injects latency spikes, transient error bursts, malformed replies,
// hangs and full outage windows, and a wrapping filesystem that
// injects short writes, fsync errors and ENOSPC into the WAL write
// path. Every injected fault is derived from a seed and the call
// ordinal through internal/detrand, so a chaos run replays
// identically — the differential tests depend on that to compare a
// faulted run against a healthy reference byte for byte.
package chaos

import (
	"cmp"
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"llm4em/internal/clock"
	"llm4em/internal/detrand"
	"llm4em/internal/llm"
	"llm4em/internal/pipeline"
)

// DefaultHangMax caps an injected hang when the caller's context has
// no deadline, so a chaos run can never wedge a test binary.
const DefaultHangMax = 30 * time.Second

// ClientOptions configures the fault mix. The rates partition the
// unit interval in field order — FailRate, then MalformedRate, then
// HangRate, then LatencyRate — so a call draws one fault at most;
// rates summing above 1 saturate rather than error.
type ClientOptions struct {
	// Seed namespaces the deterministic fault draw. Two clients with
	// the same seed and rates inject the same fault on the same call
	// ordinal.
	Seed uint64
	// FailRate is the probability a call fails with a transient error
	// (the pipeline retries it; the breaker counts it).
	FailRate float64
	// MalformedRate is the probability a call succeeds with garbage
	// content the answer parser cannot interpret.
	MalformedRate float64
	// HangRate is the probability a call blocks until the caller's
	// context is cancelled (or HangMax elapses).
	HangRate float64
	// HangMax bounds an injected hang. Defaults to DefaultHangMax.
	HangMax time.Duration
	// LatencyRate is the probability a call is delayed by
	// LatencySpike before passing through.
	LatencyRate float64
	// LatencySpike is the injected delay for latency faults.
	// Defaults to 10ms when LatencyRate is set.
	LatencySpike time.Duration
	// RetryAfter, when set, attaches a retry hint to injected
	// transient errors, exercising the pipeline's hint-honouring
	// backoff path.
	RetryAfter time.Duration
	// Clock is the time outage windows, hangs and latency spikes run on
	// (default clock.Wall).
	Clock clock.Clock
}

// Client wraps an inner LLM client with seeded fault injection. It
// implements llm.ContextClient; hangs and latency spikes honour the
// caller's context.
type Client struct {
	inner llm.Client
	opts  ClientOptions
	calls atomic.Uint64

	mu          sync.Mutex
	outage      bool
	outageUntil time.Time
	outaged     atomic.Uint64 // calls an outage failed
}

// Wrap returns a fault-injecting client around inner.
func Wrap(inner llm.Client, o ClientOptions) *Client {
	if o.HangMax <= 0 {
		o.HangMax = DefaultHangMax
	}
	if o.LatencyRate > 0 && o.LatencySpike <= 0 {
		o.LatencySpike = 10 * time.Millisecond
	}
	o.Clock = cmp.Or(o.Clock, clock.Wall)
	return &Client{inner: inner, opts: o}
}

// Name reports the inner model's name: the chaos wrapper impersonates
// the backend it wraps, so accounting and prompts are unchanged.
func (c *Client) Name() string { return c.inner.Name() }

// SetOutage switches a full outage window on or off. While on, every
// call fails with a transient error regardless of the fault rates —
// the harness's "backend is down" lever.
func (c *Client) SetOutage(on bool) {
	c.mu.Lock()
	c.outage = on
	c.outageUntil = time.Time{}
	c.mu.Unlock()
}

// OutageFor starts an outage window that clears itself after d.
func (c *Client) OutageFor(d time.Duration) {
	c.mu.Lock()
	c.outage = false
	c.outageUntil = c.opts.Clock.Now().Add(d)
	c.mu.Unlock()
}

func (c *Client) inOutage() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.outage {
		return true
	}
	return !c.outageUntil.IsZero() && c.opts.Clock.Now().Before(c.outageUntil)
}

// Outaged returns how many calls an outage window failed.
func (c *Client) Outaged() uint64 { return c.outaged.Load() }

// transient builds the injected error, attaching the RetryAfter hint
// when configured.
func (c *Client) transient(err error) error {
	if c.opts.RetryAfter > 0 {
		return pipeline.TransientAfter(err, c.opts.RetryAfter)
	}
	return pipeline.Transient(err)
}

// Chat satisfies llm.Client. Faults that need a context (hangs,
// delays) are bounded by HangMax/LatencySpike alone.
func (c *Client) Chat(messages []llm.Message) (llm.Response, error) {
	return c.ChatContext(context.Background(), messages)
}

// ChatContext draws at most one fault for this call, applies it, and
// otherwise passes through to the inner client.
func (c *Client) ChatContext(ctx context.Context, messages []llm.Message) (llm.Response, error) {
	n := c.calls.Add(1)
	if c.inOutage() {
		c.outaged.Add(1)
		return llm.Response{}, c.transient(fmt.Errorf("chaos: outage window (call %d)", n))
	}
	u := detrand.Unit("chaos-client", strconv.FormatUint(c.opts.Seed, 10), strconv.FormatUint(n, 10))
	switch {
	case u < c.opts.FailRate:
		return llm.Response{}, c.transient(fmt.Errorf("chaos: injected failure (call %d)", n))
	case u < c.opts.FailRate+c.opts.MalformedRate:
		return llm.Response{
			Content:          fmt.Sprintf("\x00\x7f%%chaos-malformed-%d%%\x00", n),
			PromptTokens:     1,
			CompletionTokens: 1,
		}, nil
	case u < c.opts.FailRate+c.opts.MalformedRate+c.opts.HangRate:
		if !pipeline.Sleep(ctx, c.opts.Clock, c.opts.HangMax) {
			return llm.Response{}, ctx.Err()
		}
		return llm.Response{}, c.transient(fmt.Errorf("chaos: hang expired after %v (call %d)", c.opts.HangMax, n))
	case u < c.opts.FailRate+c.opts.MalformedRate+c.opts.HangRate+c.opts.LatencyRate:
		if !pipeline.Sleep(ctx, c.opts.Clock, c.opts.LatencySpike) {
			return llm.Response{}, ctx.Err()
		}
		resp, err := llm.ChatContext(ctx, c.inner, messages)
		resp.Latency += c.opts.LatencySpike
		return resp, err
	}
	return llm.ChatContext(ctx, c.inner, messages)
}
