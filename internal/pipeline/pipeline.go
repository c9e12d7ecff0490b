// Package pipeline is the model-call engine under the batching
// dispatcher (internal/dispatch). An Engine answers prompts against an
// llm.Client: it deduplicates identical prompts through an in-memory
// LRU response cache keyed by (model, prompt), coalesces identical
// prompts in flight, and retries transient client errors with
// full-jitter backoff. ForEach is the bounded worker pool that callers
// — core.Matcher's per-pair submissions, the dispatcher's per-pair
// fallbacks, the experiment harness — fan work out on. Because all
// simulated models are deterministic at temperature 0, concurrency and
// response caching never change results — only how fast they arrive.
package pipeline

import (
	"cmp"
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"llm4em/internal/clock"
	"llm4em/internal/llm"
	"llm4em/internal/telemetry"
)

// Defaults used when an Options field is left at its zero value. LLM
// calls are latency-bound rather than CPU-bound, so the default
// worker count intentionally exceeds typical core counts.
const (
	DefaultWorkers    = 8
	DefaultCacheSize  = 1024
	DefaultMaxRetries = 2
	DefaultBackoff    = 50 * time.Millisecond
)

// Options tunes an Engine. The zero value selects sensible defaults;
// negative CacheSize disables caching and negative MaxRetries
// disables retrying.
type Options struct {
	// Workers is the worker-pool size callers fan the engine's client
	// calls out on with ForEach (default DefaultWorkers).
	Workers int
	// CacheSize is the capacity of the LRU response cache in entries
	// (default DefaultCacheSize; negative disables caching).
	CacheSize int
	// MaxRetries is how many times a transient client error is retried
	// before it is reported (default DefaultMaxRetries; negative
	// disables retrying).
	MaxRetries int
	// Backoff is the cap of the full-jitter sleep before the first
	// retry; the cap doubles with every further attempt (default
	// DefaultBackoff). The actual sleep is drawn uniformly from
	// [0, cap) so batched retries don't stampede the backend in
	// lockstep; a RetryAfter hint on the error overrides the draw.
	Backoff time.Duration
	// Clock is the time the backoff sleeps run on (default clock.Wall);
	// a dispatcher over the engine arms its flush timer on it too.
	Clock clock.Clock
	// Metrics are the telemetry instruments the engine records into
	// (call counts, per-attempt latency, retries, cache hits). The
	// zero value disables the latency histogram; the counters are then
	// the engine's own, since Stats reads them.
	Metrics telemetry.PipelineMetrics
}

// withDefaults resolves zero-valued fields to the package defaults.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = DefaultWorkers
	}
	if o.CacheSize == 0 {
		o.CacheSize = DefaultCacheSize
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = DefaultMaxRetries
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = DefaultBackoff
	}
	o.Clock = cmp.Or(o.Clock, clock.Wall)
	o.Metrics.Calls = cmp.Or(o.Metrics.Calls, &telemetry.Counter{})
	o.Metrics.Retries = cmp.Or(o.Metrics.Retries, &telemetry.Counter{})
	o.Metrics.CacheHits = cmp.Or(o.Metrics.CacheHits, &telemetry.Counter{})
	return o
}

// Stats counts what an Engine did. Cached prompts never reach the
// client, so ClientCalls + CacheHits equals the number of completed
// requests.
type Stats struct {
	// ClientCalls is the number of requests that reached the client
	// (retries of the same prompt count once).
	ClientCalls uint64
	// CacheHits is the number of requests answered from the cache,
	// including requests coalesced onto an identical in-flight prompt.
	CacheHits uint64
	// Retries is the number of extra attempts after transient errors.
	Retries uint64
}

// Engine executes prompts against one client with bounded
// concurrency, response caching and retry. An Engine is safe for
// concurrent use and may be reused across evaluations; reuse shares
// the response cache.
type Engine struct {
	client llm.Client
	opts   Options
	cache  *promptCache

	// rand is swapped in tests to pin the jitter draw.
	rand func() float64
}

// New returns an engine over the client with the given options.
func New(client llm.Client, opts Options) *Engine {
	o := opts.withDefaults()
	e := &Engine{client: client, opts: o, rand: rand.Float64}
	if o.CacheSize > 0 {
		e.cache = newPromptCache(o.CacheSize, o.Metrics.CacheHits)
	}
	return e
}

// Client returns the engine's underlying client.
func (e *Engine) Client() llm.Client { return e.client }

// Clock returns the clock the engine's timers run on.
func (e *Engine) Clock() clock.Clock { return e.opts.Clock }

// Workers returns the resolved worker-pool size.
func (e *Engine) Workers() int { return e.opts.Workers }

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		ClientCalls: e.opts.Metrics.Calls.Value(),
		CacheHits:   e.opts.Metrics.CacheHits.Value(),
		Retries:     e.opts.Metrics.Retries.Value(),
	}
}

// CompleteContext answers one prompt, consulting the cache first. The
// boolean reports whether the response was served from the cache (or
// coalesced onto an identical in-flight request) rather than by a
// fresh client call. The context bounds the client call, its retries
// and their backoff sleeps, and passes through to context-aware
// clients so a deadline cancels in-flight work. Identical concurrent
// prompts coalesce onto one call, which runs under the context of
// whichever caller started it.
func (e *Engine) CompleteContext(ctx context.Context, prompt string) (llm.Response, bool, error) {
	if e.cache == nil {
		resp, err := e.chat(ctx, prompt)
		return resp, false, err
	}
	key := e.client.Name() + "\x00" + prompt
	return e.cache.do(key, func() (llm.Response, error) {
		return e.chat(ctx, prompt)
	})
}

// Peek returns the cached response for a prompt without issuing a
// client call or waiting for an in-flight one: only completed cached
// responses report true. It lets layers above the engine — e.g. the
// cross-request batching dispatcher — consult the per-prompt cache
// before deciding how to route a request. Always false when caching
// is disabled.
func (e *Engine) Peek(prompt string) (llm.Response, bool) {
	if e.cache == nil {
		return llm.Response{}, false
	}
	return e.cache.peek(e.client.Name() + "\x00" + prompt)
}

// Seed installs a response for a prompt as if the client had answered
// it, so later identical prompts are served from the cache. The
// batching dispatcher uses it to layer per-pair answers extracted
// from a batched reply onto the per-pair prompt cache. Existing and
// in-flight entries are left untouched; a no-op when caching is
// disabled.
func (e *Engine) Seed(prompt string, resp llm.Response) {
	if e.cache == nil {
		return
	}
	e.cache.seed(e.client.Name()+"\x00"+prompt, resp)
}

// chat performs one client call with transient-error retry. Retries
// sleep a full-jitter draw from [0, cap) where the cap doubles per
// attempt, unless the error carries a RetryAfter hint, which is
// honoured exactly. The context bounds attempts and sleeps alike.
func (e *Engine) chat(ctx context.Context, prompt string) (llm.Response, error) {
	e.opts.Metrics.Calls.Inc()
	timed := e.opts.Metrics.CallSeconds != nil
	backoff := e.opts.Backoff
	msgs := []llm.Message{{Role: llm.User, Content: prompt}}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return llm.Response{}, err
		}
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		resp, err := llm.ChatContext(ctx, e.client, msgs)
		if timed {
			e.opts.Metrics.CallSeconds.ObserveSince(t0)
		}
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if attempt >= e.opts.MaxRetries || !IsTransient(err) {
			break
		}
		e.opts.Metrics.Retries.Inc()
		wait, hinted := RetryAfter(err)
		if !hinted {
			wait = time.Duration(e.rand() * float64(backoff))
		}
		if !Sleep(ctx, e.opts.Clock, wait) {
			return llm.Response{}, ctx.Err()
		}
		backoff *= 2
	}
	return llm.Response{}, lastErr
}

// Sleep waits d on clk and reports whether it did before ctx ended.
// The engine's retry backoff and the chaos client's faults wait
// through it.
func Sleep(ctx context.Context, clk clock.Clock, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	fired := make(chan struct{})
	stop := clk.AfterFunc(d, func() { close(fired) })
	defer stop()
	select {
	case <-fired:
		return true
	case <-ctx.Done():
		return false
	}
}

// ForEach runs job(0..n-1) on a bounded worker pool and returns the
// first error. After an error no new jobs start, in-flight jobs are
// awaited, and the error is returned. workers <= 0 selects
// GOMAXPROCS, the right bound for CPU-bound local work; callers with
// latency-bound jobs should pass an explicit larger pool.
func ForEach(n, workers int, job func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		errOnce sync.Once
		firstEr error
	)
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if stop.Load() {
					continue
				}
				if err := job(i); err != nil {
					errOnce.Do(func() { firstEr = err })
					stop.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n && !stop.Load(); i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return firstEr
}
