// Package dispatch implements a cross-request micro-batching
// dispatcher for LLM pair-matching calls. The cascade (internal/
// resolve) routes only the uncertain probability band to the model,
// but without this package each uncertain pair is its own client
// round-trip: under concurrent serving traffic the slowest ~6% of
// pairs serialize on per-pair latency. The paper's related work
// (Peeters et al., Section 8; "Match, Compare, or Select?") shows
// that packing several pairs into one batched prompt cuts the
// per-pair cost substantially — this dispatcher exploits that result
// across requests.
//
// A Dispatcher accumulates pairs submitted by many concurrent callers
// into a pending queue and flushes it as one batched prompt when
// either MaxBatchPairs pairs are waiting (size flush) or the oldest
// pair has waited FlushInterval (deadline flush). Each caller blocks
// on a per-pair future and receives exactly its own answer. Identical
// pairs in flight are deduplicated (single-flight across requests),
// layered on the engine's per-pair prompt cache: submissions first
// consult the cache, and per-pair answers extracted from a batched
// reply are seeded back into it so repeats never pay a second
// round-trip. A batched reply that does not contain a clean numbered
// answer for every pair falls back to individual per-pair prompts for
// that batch, so a model that ignores the batch format degrades to
// the unbatched path instead of mis-answering.
//
// Grouped compare/select prompts (DoGroupContext) are the other
// multi-pair prompt: one query's candidates in one round-trip. A batch
// of two or more pairs and a group share one executor — the
// round-trip, the strict split of the reply, the per-pair fallback,
// the usage shares and the cache seeding — and differ only in how the
// prompt is built and read and in which counters they feed.
//
// The paper's evaluations ride the same dispatcher: core.Matcher
// submits each pair as a batch of one, and core.BatchMatcher submits a
// whole test split to a dispatcher cutting BatchSize pairs per batched
// prompt, so their tables measure this strict parse, fallback and
// usage split.
//
// The dispatcher never changes which pairs are escalated — budgets
// and cost caps are applied by the caller before submission — only
// how many client round-trips the escalated pairs cost. A batch's
// client calls run under a context that is cancelled once no caller
// waits on any of its pairs any more; while one does, the batch runs
// to completion and seeds the cache. Close drains: pending pairs are
// flushed immediately and in-flight batches awaited, so graceful
// shutdown never abandons a waiting caller.
package dispatch

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"llm4em/internal/entity"
	"llm4em/internal/llm"
	"llm4em/internal/pipeline"
	"llm4em/internal/prompt"
	"llm4em/internal/telemetry"
)

// Defaults used when an Options field is left at its zero value.
const (
	// DefaultMaxBatchPairs is the default batch capacity. The paper's
	// batching experiments find diminishing cost returns and growing
	// accuracy loss beyond ~20 pairs per prompt.
	DefaultMaxBatchPairs = 16
	// DefaultFlushInterval bounds how long a pending pair waits for
	// batch-mates. Small against LLM latency (tens of ms to seconds),
	// large against the local cascade work (~10µs), so batches fill
	// under load without adding noticeable tail latency.
	DefaultFlushInterval = 2 * time.Millisecond
)

// Options tunes a Dispatcher. The zero value selects the defaults.
type Options struct {
	// MaxBatchPairs is the maximum number of pairs packed into one
	// batched prompt; reaching it flushes immediately (default
	// DefaultMaxBatchPairs). 1 cuts every pair as it arrives: one
	// per-pair prompt per round-trip, no flush timer.
	MaxBatchPairs int
	// FlushInterval is the longest a pending pair waits for batch-mates
	// before a partial batch is flushed (default DefaultFlushInterval),
	// timed on the engine's clock.
	FlushInterval time.Duration
	// Metrics are the telemetry instruments the dispatcher records
	// into (queue depth, batch sizes, flush reasons, per-pair wait
	// latency). The zero value disables them; the flush counters are
	// then the dispatcher's own, since Stats reads them.
	Metrics telemetry.DispatchMetrics
}

func (o Options) withDefaults() Options {
	if o.MaxBatchPairs <= 0 {
		o.MaxBatchPairs = DefaultMaxBatchPairs
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = DefaultFlushInterval
	}
	o.Metrics.SizeFlushes = cmp.Or(o.Metrics.SizeFlushes, &telemetry.Counter{})
	o.Metrics.DeadlineFlushes = cmp.Or(o.Metrics.DeadlineFlushes, &telemetry.Counter{})
	o.Metrics.DrainFlushes = cmp.Or(o.Metrics.DrainFlushes, &telemetry.Counter{})
	return o
}

// ErrClosed is returned by DoAllContext and DoGroupContext after Close.
var ErrClosed = errors.New("dispatch: dispatcher is closed")

// Result is the outcome of one submitted pair.
type Result struct {
	// Match is the parsed decision.
	Match bool
	// Answer is the per-pair answer text: the numbered line's answer
	// extracted from a batched reply, or the full model reply for
	// cached, singleton and fallback pairs.
	Answer string
	// Usage is the token and latency accounting. Batched pairs carry
	// an even share of the batch request (token and nanosecond
	// remainders go to the earliest pairs, so shares always sum to the
	// request exactly).
	Usage llm.Response
	// Cached reports that the answer came from the per-pair prompt
	// cache or was coalesced onto an identical in-flight pair.
	Cached bool
	// Batched reports that a batched prompt decided the pair.
	Batched bool
	// BatchID is the sequence number of the batched round-trip (0 when
	// not batched, grouped included); pairs sharing a BatchID rode the
	// same request.
	BatchID uint64
	// BatchSize is the number of pairs in that request.
	BatchSize int
	// FellBack reports that the pair's batch (or group) reply failed to
	// parse and the answer came from an individual per-pair prompt
	// instead.
	FellBack bool
	// Grouped reports that a grouped compare/select prompt decided the
	// pair (see DoGroupContext); GroupSize is the number of pairs that rode
	// that prompt.
	Grouped   bool
	GroupSize int
}

// Stats counts what a Dispatcher did.
type Stats struct {
	// Batches is the number of batched round-trips issued (≥2 pairs);
	// BatchedPairs the pairs they answered. Grouped prompts count in
	// none of Batches, BatchedPairs, ParseFallbacks or FallbackPairs.
	Batches      uint64
	BatchedPairs uint64
	// SinglePairCalls counts pairs flushed alone (no batch-mates
	// arrived in time), routed as ordinary per-pair prompts — served
	// by a client call or the prompt cache.
	SinglePairCalls uint64
	// ParseFallbacks counts batched replies that failed strict
	// parsing; FallbackPairs the pairs re-routed to individual
	// prompts because of them (counted at re-routing, whether or not
	// the individual call then succeeds).
	ParseFallbacks uint64
	FallbackPairs  uint64
	// SingleFlightHits counts submissions coalesced onto an identical
	// in-flight pair; CacheHits submissions — batched or grouped —
	// answered from the per-pair prompt cache before any round-trip.
	SingleFlightHits uint64
	CacheHits        uint64
	// SizeFlushes, DeadlineFlushes and DrainFlushes count why batches
	// were cut: a full queue, an expired FlushInterval, or Close.
	SizeFlushes     uint64
	DeadlineFlushes uint64
	DrainFlushes    uint64
}

// MeanBatchSize returns the average pairs per batched round-trip.
func (s Stats) MeanBatchSize() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.BatchedPairs) / float64(s.Batches)
}

// call is one submitted pair: the future its waiters block on plus
// the slots the executing batch fills in.
type call struct {
	pair  entity.Pair
	key   string // per-pair prompt — the dedupe and cache key
	ready chan struct{}
	res   Result
	err   error
	// enqueued is when the call entered the pending queue; only set
	// (and only read) when the wait-latency histogram is wired.
	enqueued time.Time
	// waiters counts the callers blocked on ready; b is the batch the
	// call rides once cut. Both are guarded by Dispatcher.mu.
	waiters int
	b       *batch
}

// batch is one cut batch. Its client calls run under ctx, which is
// cancelled once waiters — the sum of its calls' waiters — drops to
// zero.
type batch struct {
	calls   []*call
	seq     uint64
	waiters int // guarded by Dispatcher.mu
	ctx     context.Context
	cancel  context.CancelFunc
}

// join adds one waiter to the call. Caller holds mu.
func (c *call) join() {
	c.waiters++
	if c.b != nil {
		c.b.waiters++
	}
}

// joinable reports whether a new submission may wait on the call: not
// once its batch was cancelled for want of waiters. Caller holds mu.
func (c *call) joinable() bool { return c.b == nil || c.b.waiters > 0 }

// Dispatcher coalesces per-pair matching calls into batched prompts.
// Safe for concurrent use.
type Dispatcher struct {
	eng        *pipeline.Engine
	opts       Options
	buildPair  func(entity.Pair) string
	buildBatch func([]entity.Pair) string

	batchSeq atomic.Uint64
	stats    struct {
		batches, batchedPairs, singlePairCalls atomic.Uint64
		parseFallbacks, fallbackPairs          atomic.Uint64
		singleFlightHits, cacheHits            atomic.Uint64
	}

	mu         sync.Mutex
	pending    []*call
	inflight   map[string]*call // pending or executing, by per-pair prompt
	timerArmed bool
	closed     bool
	wg         sync.WaitGroup // executing batches
}

// New returns a dispatcher issuing requests through the engine.
// buildPair renders the ordinary per-pair prompt (the dedupe/cache
// key and the fallback request); buildBatch renders the batched
// prompt for a flush, and may be nil when MaxBatchPairs is 1. Both
// must be pure and safe for concurrent use.
func New(eng *pipeline.Engine, buildPair func(entity.Pair) string, buildBatch func([]entity.Pair) string, opts Options) *Dispatcher {
	return &Dispatcher{
		eng:        eng,
		opts:       opts.withDefaults(),
		buildPair:  buildPair,
		buildBatch: buildBatch,
		inflight:   map[string]*call{},
	}
}

// Stats returns a snapshot of the dispatcher's counters.
func (d *Dispatcher) Stats() Stats {
	return Stats{
		Batches:          d.stats.batches.Load(),
		BatchedPairs:     d.stats.batchedPairs.Load(),
		SinglePairCalls:  d.stats.singlePairCalls.Load(),
		ParseFallbacks:   d.stats.parseFallbacks.Load(),
		FallbackPairs:    d.stats.fallbackPairs.Load(),
		SingleFlightHits: d.stats.singleFlightHits.Load(),
		CacheHits:        d.stats.cacheHits.Load(),
		SizeFlushes:      d.opts.Metrics.SizeFlushes.Value(),
		DeadlineFlushes:  d.opts.Metrics.DeadlineFlushes.Value(),
		DrainFlushes:     d.opts.Metrics.DrainFlushes.Value(),
	}
}

// DoAllContext submits the pairs — typically one Resolve call's
// uncertain band — and blocks until every one is decided, returning
// results in input order. The pairs may be answered by several
// different batches (shared with other concurrent callers), by the
// prompt cache, or by per-pair fallbacks; the first error of any of
// them is returned. An expired context abandons this caller's wait and
// returns the context error; a batch nobody waits on any more is
// cancelled, one another caller still waits on runs to completion.
func (d *Dispatcher) DoAllContext(ctx context.Context, pairs []entity.Pair) ([]Result, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	// Prompts are built outside the queue lock: building is pure
	// string work, but it is the dominant cost of enqueueing.
	keys := make([]string, len(pairs))
	for i, p := range pairs {
		keys[i] = d.buildPair(p)
	}

	out := make([]Result, len(pairs))
	calls := make([]*call, len(pairs)) // nil where the cache answered
	shared := make([]bool, len(pairs))

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrClosed
	}
	for i, p := range pairs {
		// Layer 1: the per-pair prompt cache (previous unbatched
		// answers, seeded batched and grouped answers).
		if r, ok := d.peek(keys[i]); ok {
			out[i] = r
			continue
		}
		// Layer 2: single-flight — an identical pair already pending or
		// riding a live batch answers this submission too.
		if c, ok := d.inflight[keys[i]]; ok && c.joinable() {
			d.stats.singleFlightHits.Add(1)
			c.join()
			calls[i] = c
			shared[i] = true
			continue
		}
		// A cancelled twin still settling is replaced, not joined.
		c := &call{pair: p, key: keys[i], ready: make(chan struct{}), waiters: 1}
		if d.opts.Metrics.WaitSeconds != nil {
			c.enqueued = time.Now()
		}
		d.inflight[keys[i]] = c
		d.pending = append(d.pending, c)
		calls[i] = c
	}
	d.cutFullLocked()
	d.opts.Metrics.QueueDepth.Set(int64(len(d.pending)))
	if len(d.pending) > 0 && !d.timerArmed {
		d.timerArmed = true
		d.eng.Clock().AfterFunc(d.opts.FlushInterval, d.deadlineFlush)
	}
	d.mu.Unlock()

	var firstErr error
	for i, c := range calls {
		if c == nil {
			continue
		}
		select {
		case <-c.ready:
		case <-ctx.Done():
			d.abandon(calls[i:])
			return nil, cmp.Or(firstErr, ctx.Err())
		}
		if c.err != nil {
			if firstErr == nil {
				firstErr = c.err
			}
			continue
		}
		out[i] = c.res
		if shared[i] {
			out[i].Cached = true
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// peek answers a pair from the per-pair prompt cache, counting the
// hit.
func (d *Dispatcher) peek(key string) (Result, bool) {
	resp, ok := d.eng.Peek(key)
	if !ok {
		return Result{}, false
	}
	d.stats.cacheHits.Add(1)
	return Result{Match: prompt.ParseAnswer(resp.Content), Answer: resp.Content, Usage: resp, Cached: true}, true
}

// abandon drops one waiter from each call; a batch left with none is
// cancelled.
func (d *Dispatcher) abandon(calls []*call) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range calls {
		if c == nil {
			continue // answered from the cache
		}
		c.waiters--
		if c.b != nil {
			if c.b.waiters--; c.b.waiters == 0 {
				c.b.cancel()
			}
		}
	}
}

// cutFullLocked launches every full batch in the pending queue.
// Caller holds mu.
func (d *Dispatcher) cutFullLocked() {
	for len(d.pending) >= d.opts.MaxBatchPairs {
		batch := d.pending[:d.opts.MaxBatchPairs:d.opts.MaxBatchPairs]
		d.pending = d.pending[d.opts.MaxBatchPairs:]
		d.opts.Metrics.SizeFlushes.Inc()
		d.launchLocked(batch)
	}
}

// flushAllLocked launches everything pending, in MaxBatchPairs-sized
// chunks. Caller holds mu.
func (d *Dispatcher) flushAllLocked() {
	for len(d.pending) > 0 {
		n := len(d.pending)
		if n > d.opts.MaxBatchPairs {
			n = d.opts.MaxBatchPairs
		}
		batch := d.pending[:n:n]
		d.pending = d.pending[n:]
		d.launchLocked(batch)
	}
	d.pending = nil
}

// launchLocked starts one batch executing. Caller holds mu.
func (d *Dispatcher) launchLocked(calls []*call) {
	d.opts.Metrics.BatchPairs.Observe(float64(len(calls)))
	b := &batch{calls: calls, seq: d.batchSeq.Add(1)}
	b.ctx, b.cancel = context.WithCancel(context.Background())
	for _, c := range calls {
		c.b = b
		b.waiters += c.waiters
	}
	if b.waiters == 0 {
		b.cancel() // every waiter left while the pairs were pending
	}
	d.wg.Add(1)
	go d.execute(b)
}

// deadlineFlush fires when the oldest pending pair has waited
// FlushInterval: whatever is queued goes out as a (possibly partial)
// batch. A full queue may have been cut by a concurrent submission
// between the timer being armed and firing — then there is nothing
// left to do, and the next submission arms a fresh timer.
func (d *Dispatcher) deadlineFlush() {
	d.mu.Lock()
	d.timerArmed = false
	if d.closed {
		d.mu.Unlock()
		return // Close already drained the queue
	}
	if len(d.pending) > 0 {
		d.opts.Metrics.DeadlineFlushes.Inc()
		d.flushAllLocked()
	}
	d.opts.Metrics.QueueDepth.Set(int64(len(d.pending)))
	d.mu.Unlock()
}

// Close drains the dispatcher: pending pairs are flushed immediately
// — their waiters still receive real answers — and in-flight batches
// are awaited; a batch nobody waits on is cancelled, not waited out.
// Later submissions return ErrClosed. Idempotent and safe to call
// concurrently with submissions.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	if !d.closed {
		d.closed = true
		if len(d.pending) > 0 {
			d.opts.Metrics.DrainFlushes.Inc()
			d.flushAllLocked()
		}
		d.opts.Metrics.QueueDepth.Set(0)
	}
	d.mu.Unlock()
	d.wg.Wait()
}

// Closed reports whether Close has been called — the liveness signal
// health endpoints check: a closed dispatcher fails every new
// submission.
func (d *Dispatcher) Closed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closed
}

// execute runs one cut batch to completion under its context: a
// batched prompt for ≥2 pairs, an ordinary per-pair prompt for a
// singleton flush.
func (d *Dispatcher) execute(b *batch) {
	defer d.wg.Done()
	defer b.cancel()
	defer d.settle(b.calls)
	if len(b.calls) == 1 {
		d.stats.singlePairCalls.Add(1)
		d.completePair(b.ctx, b.calls[0], false)
		return
	}
	d.sendMulti(b.ctx, b.calls, d.buildBatch, prompt.SplitBatchAnswers, b.seq)
}

// sendMulti answers calls with one multi-pair prompt: a cut batch of
// two or more pairs (batchID > 0) or one query's group (batchID 0).
// build renders the prompt over the calls' pairs; split must read one
// answer per call out of the reply or report false, and a rejected
// reply falls back to each call's per-pair prompt. An accepted
// reply's answers carry an even share of its usage and are seeded
// into the per-pair prompt cache, so a later identical pair is a
// cache hit, batched, grouped or not. Only batches count in the batch
// and fallback stats. The outcome lands in each call's res or err.
func (d *Dispatcher) sendMulti(ctx context.Context, calls []*call, build func([]entity.Pair) string, split func(string, int) ([]string, bool), batchID uint64) {
	kind := "group"
	if batchID > 0 {
		kind = "batch"
	}
	pairs := make([]entity.Pair, len(calls))
	for i, c := range calls {
		pairs[i] = c.pair
	}
	resp, cached, err := d.eng.CompleteContext(ctx, build(pairs))
	if err != nil {
		werr := fmt.Errorf("dispatch: %s of %d: %w", kind, len(calls), err)
		for _, c := range calls {
			c.err = werr
		}
		return
	}

	answers, ok := split(resp.Content, len(calls))
	if !ok {
		// The reply did not cleanly answer every pair — answer each
		// individually rather than guess at a partial mapping.
		if batchID > 0 {
			d.stats.parseFallbacks.Add(1)
			d.stats.fallbackPairs.Add(uint64(len(calls)))
		}
		_ = pipeline.ForEach(len(calls), d.eng.Workers(), func(i int) error {
			d.completePair(ctx, calls[i], true)
			return nil
		})
		return
	}

	if batchID > 0 {
		d.stats.batches.Add(1)
		d.stats.batchedPairs.Add(uint64(len(calls)))
	}
	shares := splitUsage(resp, len(calls))
	for i, c := range calls {
		c.res = Result{
			Match:  prompt.ParseAnswer(answers[i]),
			Answer: answers[i],
			Usage:  shares[i],
			Cached: cached,
		}
		if batchID > 0 {
			c.res.Batched, c.res.BatchID, c.res.BatchSize = true, batchID, len(calls)
		} else {
			c.res.Grouped, c.res.GroupSize = true, len(calls)
		}
		share := shares[i]
		share.Content = answers[i]
		d.eng.Seed(c.key, share)
	}
}

// completePair answers one pair with its ordinary per-pair prompt.
// Routing stats are the caller's job — they count re-routed pairs
// whether or not this call succeeds.
func (d *Dispatcher) completePair(ctx context.Context, c *call, fellBack bool) {
	resp, cached, err := d.eng.CompleteContext(ctx, c.key)
	if err != nil {
		c.err = fmt.Errorf("dispatch: pair %s: %w", c.pair.ID, err)
		return
	}
	c.res = Result{
		Match:    prompt.ParseAnswer(resp.Content),
		Answer:   resp.Content,
		Usage:    resp,
		Cached:   cached,
		FellBack: fellBack,
	}
}

// settle publishes a finished batch: the calls leave the in-flight
// set (failed keys become retryable, like cache errors) and their
// futures complete.
func (d *Dispatcher) settle(batch []*call) {
	d.mu.Lock()
	for _, c := range batch {
		if cur, ok := d.inflight[c.key]; ok && cur == c {
			delete(d.inflight, c.key)
		}
	}
	d.mu.Unlock()
	for _, c := range batch {
		if !c.enqueued.IsZero() {
			d.opts.Metrics.WaitSeconds.ObserveSince(c.enqueued)
		}
		close(c.ready)
	}
}

// splitUsage divides one batched request's accounting evenly across
// its pairs; remainders — tokens and latency nanoseconds alike — go to
// the earliest pairs so the shares sum to the request exactly.
func splitUsage(resp llm.Response, n int) []llm.Response {
	out := make([]llm.Response, n)
	for i := range out {
		out[i] = llm.Response{
			PromptTokens:     resp.PromptTokens / n,
			CompletionTokens: resp.CompletionTokens / n,
			Latency:          resp.Latency / time.Duration(n),
		}
		if i < resp.PromptTokens%n {
			out[i].PromptTokens++
		}
		if i < resp.CompletionTokens%n {
			out[i].CompletionTokens++
		}
		if time.Duration(i) < resp.Latency%time.Duration(n) {
			out[i].Latency++
		}
	}
	return out
}
