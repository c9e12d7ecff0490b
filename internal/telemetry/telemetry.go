package telemetry

import (
	"context"
	"io"
	"log/slog"
	"sync/atomic"
	"time"
)

// DefaultSlowLogEvery is the default minimum interval between two
// slow-resolve exemplar log lines: a latency regression makes every
// request slow at once, and one exemplar per second is diagnosis
// enough without turning the log into the bottleneck.
const DefaultSlowLogEvery = time.Second

// Options configures a Telemetry handle.
type Options struct {
	// Logger receives the slow-resolve exemplar lines (nil falls back
	// to slog.Default()).
	Logger *slog.Logger
	// SlowResolve is the total-latency threshold above which a resolve
	// emits one structured exemplar line with its trace ID and
	// per-stage span durations. Zero disables slow logging (and the
	// slow-resolve counter).
	SlowResolve time.Duration
	// SlowLogEvery is the minimum interval between two exemplar lines
	// (default DefaultSlowLogEvery; negative logs every slow resolve).
	SlowLogEvery time.Duration
}

// BlockingMetrics instruments the blocking index hot path
// (internal/blocking). Passed by value; the zero value is a disabled
// (all-nil, nil-safe) set.
type BlockingMetrics struct {
	// Queries counts index queries; PostingsScanned the posting-list
	// entries they iterated; StopTokensSkipped the query tokens skipped
	// as stop tokens; HeapPushes the candidates offered to the bounded
	// top-K heap.
	Queries           *Counter
	PostingsScanned   *Counter
	StopTokensSkipped *Counter
	HeapPushes        *Counter
}

// DispatchMetrics instruments the micro-batching dispatcher
// (internal/dispatch). Passed by value; zero value disabled.
type DispatchMetrics struct {
	// QueueDepth is the pending-pair queue length after the latest
	// enqueue or flush.
	QueueDepth *Gauge
	// BatchPairs observes the pair count of every launched batch.
	BatchPairs *Histogram
	// SizeFlushes/DeadlineFlushes/DrainFlushes count why batches were
	// cut: a full queue, an expired flush interval, or Close.
	SizeFlushes     *Counter
	DeadlineFlushes *Counter
	DrainFlushes    *Counter
	// WaitSeconds observes each pair's time from enqueue to settled
	// future.
	WaitSeconds *Histogram
}

// PipelineMetrics instruments the LLM engine (internal/pipeline).
// Passed by value; zero value disabled.
type PipelineMetrics struct {
	// Calls counts requests that reached the client; CallSeconds
	// observes the wall-clock latency of each client attempt; Retries
	// counts extra attempts after transient errors; CacheHits counts
	// requests answered by the prompt cache (including coalesced
	// in-flight duplicates).
	Calls       *Counter
	CallSeconds *Histogram
	Retries     *Counter
	CacheHits   *Counter
}

// ResilienceMetrics instruments the fault-tolerance layer
// (internal/resilience and the resolve store's deferred queue).
// Passed by value; zero value disabled.
type ResilienceMetrics struct {
	// BreakerState is the LLM circuit breaker's current state encoded
	// as 0=closed, 1=half-open, 2=open.
	BreakerState *Gauge
	// BreakerTrips counts closed→open (and half-open→open) transitions.
	BreakerTrips *Counter
	// Shed counts escalations rejected by the load-shedder.
	Shed *Counter
	// DeferredPairs counts pair decisions degraded to the local verdict
	// and parked on the deferred queue; DeferredDepth is the queue's
	// current length; Redecided counts deferred pairs the background
	// re-escalator has re-decided through the healthy path.
	DeferredPairs *Counter
	DeferredDepth *Gauge
	Redecided     *Counter
}

// PersistMetrics instruments the durability layer (internal/persist
// and the store's snapshot cadence). Passed by value; zero value
// disabled.
type PersistMetrics struct {
	// AppendSeconds/FsyncSeconds observe WAL append and fsync latency.
	AppendSeconds *Histogram
	FsyncSeconds  *Histogram
	// SnapshotSeconds observes a whole checkpoint: index files, journal
	// append, snapshot.json and the WAL reset. SnapshotBytes is the size
	// of the last snapshot.json alone, JournalBytes that of journal.log
	// as the last checkpoint committed it; Snapshots counts checkpoints.
	SnapshotSeconds *Histogram
	SnapshotBytes   *Gauge
	JournalBytes    *Gauge
	Snapshots       *Counter
}

// Telemetry is one serving process's instrument set: a Registry of
// every metric family plus the pre-bound instruments the resolve/
// dispatch/pipeline/persist/blocking stack records into. A nil
// *Telemetry is fully inert — every instrument reached through it is
// nil and every method a no-op — so stores built without telemetry
// keep the un-instrumented hot path.
type Telemetry struct {
	reg    *Registry
	logger *slog.Logger

	slowThreshold time.Duration
	slowEvery     time.Duration
	lastSlow      atomic.Int64 // unix nanos of the last exemplar line

	// Resolve-level instruments.
	ResolveTotal   *Counter
	ResolveErrors  *Counter
	ResolveSeconds *Histogram
	// Stage holds one latency histogram per resolve stage
	// (em_resolve_stage_seconds{stage=…}), indexed by Stage.
	Stage      [NumStages]*Histogram
	Candidates *Counter
	// Cascade outcome counters (em_cascade_outcomes_total{outcome=…}).
	OutcomeAccept  *Counter
	OutcomeReject  *Counter
	OutcomeLLM     *Counter
	OutcomeBudget  *Counter
	OutcomeJournal *Counter
	SlowResolves   *Counter
	// Per-strategy LLM call counters
	// (em_llm_calls_total{strategy=…}), labeled children of the same
	// family as Pipeline.Calls: the unlabeled series counts every
	// client request, the labeled ones split the resolve path's calls
	// by the prompt strategy that issued them.
	StrategyMatch   *Counter
	StrategyCompare *Counter
	StrategySelect  *Counter
	StrategyReason  *Counter

	// Per-subsystem instrument sets, handed by value into the
	// instrumented packages.
	Blocking   BlockingMetrics
	Dispatch   DispatchMetrics
	Pipeline   PipelineMetrics
	Persist    PersistMetrics
	Resilience ResilienceMetrics
}

// New builds a Telemetry handle with every metric family registered.
func New(opts Options) *Telemetry {
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	slowEvery := opts.SlowLogEvery
	if slowEvery == 0 {
		slowEvery = DefaultSlowLogEvery
	}
	reg := NewRegistry()
	t := &Telemetry{
		reg:           reg,
		logger:        logger,
		slowThreshold: opts.SlowResolve,
		slowEvery:     slowEvery,
	}

	t.ResolveTotal = reg.Counter("em_resolve_total", "Resolve calls served (including failed ones)")
	t.ResolveErrors = reg.Counter("em_resolve_errors_total", "Resolve calls that returned an error")
	t.ResolveSeconds = reg.Histogram("em_resolve_seconds", "End-to-end resolve latency", DurationBuckets())
	for s := 0; s < NumStages; s++ {
		t.Stage[s] = reg.Histogram("em_resolve_stage_seconds",
			"Per-stage resolve latency", DurationBuckets(), "stage", Stage(s).String())
	}
	t.Candidates = reg.Counter("em_resolve_candidates_total", "Blocking candidate pairs produced")
	outcome := func(name string) *Counter {
		return reg.Counter("em_cascade_outcomes_total",
			"Candidate pairs by deciding cascade stage", "outcome", name)
	}
	t.OutcomeAccept = outcome("accept")
	t.OutcomeReject = outcome("reject")
	t.OutcomeLLM = outcome("llm")
	t.OutcomeBudget = outcome("budget")
	t.OutcomeJournal = outcome("journal")
	t.SlowResolves = reg.Counter("em_slow_resolves_total",
		"Resolves exceeding the slow-resolve threshold")
	strategy := func(name string) *Counter {
		return reg.Counter("em_llm_calls_total",
			"Requests that reached the LLM client", "strategy", name)
	}
	t.StrategyMatch = strategy("match")
	t.StrategyCompare = strategy("compare")
	t.StrategySelect = strategy("select")
	t.StrategyReason = strategy("reason")

	t.Blocking = BlockingMetrics{
		Queries:           reg.Counter("em_blocking_queries_total", "Blocking index queries"),
		PostingsScanned:   reg.Counter("em_blocking_postings_scanned_total", "Posting-list entries iterated by index queries"),
		StopTokensSkipped: reg.Counter("em_blocking_stop_tokens_total", "Query tokens skipped as stop tokens"),
		HeapPushes:        reg.Counter("em_blocking_heap_pushes_total", "Candidates offered to the bounded top-K heap"),
	}
	t.Dispatch = DispatchMetrics{
		QueueDepth:      reg.Gauge("em_dispatch_queue_depth", "Pairs pending in the micro-batching dispatcher"),
		BatchPairs:      reg.Histogram("em_dispatch_batch_pairs", "Pairs per launched dispatcher batch", SizeBuckets()),
		SizeFlushes:     reg.Counter("em_dispatch_flushes_total", "Dispatcher batch cuts by reason", "reason", "size"),
		DeadlineFlushes: reg.Counter("em_dispatch_flushes_total", "Dispatcher batch cuts by reason", "reason", "deadline"),
		DrainFlushes:    reg.Counter("em_dispatch_flushes_total", "Dispatcher batch cuts by reason", "reason", "drain"),
		WaitSeconds:     reg.Histogram("em_dispatch_wait_seconds", "Pair time from enqueue to settled dispatcher future", DurationBuckets()),
	}
	t.Pipeline = PipelineMetrics{
		Calls:       reg.Counter("em_llm_calls_total", "Requests that reached the LLM client"),
		CallSeconds: reg.Histogram("em_llm_call_seconds", "Wall-clock latency of LLM client attempts", DurationBuckets()),
		Retries:     reg.Counter("em_llm_retries_total", "LLM client retries after transient errors"),
		CacheHits:   reg.Counter("em_llm_cache_hits_total", "Requests answered by the prompt cache"),
	}
	t.Resilience = ResilienceMetrics{
		BreakerState:  reg.Gauge("em_llm_breaker_state", "LLM circuit breaker state (0=closed, 1=half-open, 2=open)"),
		BreakerTrips:  reg.Counter("em_breaker_trips_total", "Circuit breaker transitions to open"),
		Shed:          reg.Counter("em_shed_total", "Escalations rejected by the load-shedder"),
		DeferredPairs: reg.Counter("em_deferred_pairs_total", "Pair decisions degraded to the deferred local verdict"),
		DeferredDepth: reg.Gauge("em_deferred_queue_depth", "Deferred pairs awaiting re-escalation"),
		Redecided:     reg.Counter("em_redecided_pairs_total", "Deferred pairs re-decided through the healthy path"),
	}
	t.Persist = PersistMetrics{
		AppendSeconds:   reg.Histogram("em_wal_append_seconds", "WAL append latency", DurationBuckets()),
		FsyncSeconds:    reg.Histogram("em_wal_fsync_seconds", "Latency of every wal.log and journal.log fsync: sync cadence, Flush, checkpoint, WAL reset, close", DurationBuckets()),
		SnapshotSeconds: reg.Histogram("em_snapshot_seconds", "Whole-checkpoint duration: index files, journal append, snapshot.json, WAL reset", DurationBuckets()),
		SnapshotBytes:   reg.Gauge("em_snapshot_bytes", "Size of the last written snapshot.json"),
		JournalBytes:    reg.Gauge("em_journal_bytes", "Size of journal.log as of the last checkpoint"),
		Snapshots:       reg.Counter("em_snapshots_total", "Snapshot compactions written"),
	}
	return t
}

// Registry returns the handle's metric registry — emserve registers
// its HTTP-level families on it so one exposition covers the whole
// process. Nil on a nil receiver.
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// WritePrometheus renders every registered family as Prometheus text
// exposition. No-op on a nil receiver.
func (t *Telemetry) WritePrometheus(w io.Writer) error {
	if t == nil {
		return nil
	}
	return t.reg.WritePrometheus(w)
}

// Warn logs a failure of background work, which has no caller to
// return it to. No-op on a nil receiver.
func (t *Telemetry) Warn(msg string, err error) {
	if t != nil {
		t.logger.LogAttrs(context.Background(), slog.LevelWarn, msg, slog.Any("error", err))
	}
}

// MaybeLogSlow counts and possibly logs one finished resolve against
// the slow threshold. The stage array is passed by value so the
// caller's observer never escapes to the heap on the fast path; the
// fast path itself (below threshold or disabled) is one comparison.
// At most one exemplar line per SlowLogEvery is emitted — a latency
// regression makes every request slow at once, and sampling keeps the
// logger out of the hot path — but every slow resolve increments
// em_slow_resolves_total.
func (t *Telemetry) MaybeLogSlow(traceID, queryID string, total time.Duration, durs StageDurations) {
	if t == nil || t.slowThreshold <= 0 || total < t.slowThreshold {
		return
	}
	t.SlowResolves.Inc()
	if t.slowEvery > 0 {
		now := time.Now().UnixNano()
		last := t.lastSlow.Load()
		if now-last < int64(t.slowEvery) || !t.lastSlow.CompareAndSwap(last, now) {
			return
		}
	}
	stages := make([]any, 0, NumStages)
	for s := 0; s < NumStages; s++ {
		if durs[s] > 0 {
			stages = append(stages, slog.Duration(Stage(s).String(), durs[s]))
		}
	}
	t.logger.LogAttrs(context.Background(), slog.LevelWarn, "slow resolve",
		slog.String("trace_id", traceID),
		slog.String("query_id", queryID),
		slog.Duration("total", total),
		slog.Duration("threshold", t.slowThreshold),
		slog.Group("stages", stages...),
	)
}
