// Package resolve implements an online, incremental entity-resolution
// store — the serving-side counterpart of the paper's offline batch
// experiments. A Store maintains a sharded inverted IDF index
// (blocking.Index) over the records added so far, resolves incoming
// query records against it, and folds the resulting match decisions
// into entity groups with an incremental union-find clusterer
// (blocking.UnionFind).
//
// Candidate pairs are routed through a cascade matcher: a calibrated
// local scorer (features.Weights over the unified pair feature
// vector) answers the confident pairs immediately, and only the
// uncertain band between the accept/reject thresholds is escalated to
// the LLM via the concurrent pipeline engine. Every Resolve call
// returns a CostReport showing the split and the estimated spend
// under the model's hosted pricing (internal/cost).
//
// A Store is safe for concurrent use. Index reads take per-shard
// read locks, record inserts take one shard's write lock, and entity
// folding takes the graph lock, which inserts never take, so Adds and
// Resolves on different shards proceed in parallel. Resolving against a
// fixed store is deterministic regardless of concurrency: index queries
// are pure reads, the simulated models are deterministic at temperature
// 0, and union-find folding is order-independent (canonical roots are
// the smallest member IDs).
package resolve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"llm4em/internal/blocking"
	"llm4em/internal/cost"
	"llm4em/internal/dispatch"
	"llm4em/internal/entity"
	"llm4em/internal/features"
	"llm4em/internal/llm"
	"llm4em/internal/persist"
	"llm4em/internal/pipeline"
	"llm4em/internal/prompt"
	"llm4em/internal/resilience"
	"llm4em/internal/telemetry"
	"llm4em/internal/tokenize"
)

// Store defaults used when an Options field is left at its zero
// value.
const (
	DefaultShards        = 8
	DefaultMaxCandidates = 10
	DefaultMinScore      = blocking.DefaultMinScore
	DefaultDesign        = "domain-complex-force"
	// DefaultSnapshotEvery is the WAL-append count between automatic
	// snapshot+compaction runs of a persistent store.
	DefaultSnapshotEvery = 4096
	// DefaultDispatchFlush is the longest an uncertain pair waits for
	// batch-mates before the micro-batching dispatcher flushes a
	// partial batch (only meaningful with Options.DispatchPairs > 0).
	DefaultDispatchFlush = dispatch.DefaultFlushInterval
)

// Options configures a Store. The zero value selects sensible
// defaults throughout.
type Options struct {
	// Shards is the number of index shards (default DefaultShards).
	Shards int
	// MaxCandidates bounds the candidate pairs per Resolve call
	// (default DefaultMaxCandidates).
	MaxCandidates int
	// Blocking configures the shard indexes and the candidate score
	// floor: MinScore (nil selects DefaultMinScore) and StopDocFrac
	// (nil selects blocking.DefaultStopDocFrac), where
	// blocking.Float(0) is a literal zero. The zero value selects the
	// defaults.
	Blocking blocking.IndexOptions
	// DeferExtraction skips per-record feature extraction at ingest:
	// Add and AddBatch only serialize and index, and a record's
	// extraction materializes lazily — and is cached — the first time
	// the record surfaces as a resolve candidate. Bulk ingest gets
	// markedly cheaper; the first Resolve touching a cold record pays
	// the extraction instead. Recovery replay honors it too.
	DeferExtraction bool
	// Design is the prompt design for escalated pairs (zero value
	// selects DefaultDesign).
	Design prompt.Design
	// Domain is the topical domain of the store's records.
	Domain entity.Domain
	// Cascade tunes the cascade matcher.
	Cascade CascadeOptions
	// Workers, CacheSize and MaxRetries tune the LLM pipeline engine;
	// zero values select the pipeline defaults.
	Workers    int
	CacheSize  int
	MaxRetries int
	// DispatchPairs enables the cross-request micro-batching
	// dispatcher (internal/dispatch): uncertain pairs from concurrent
	// Resolve calls are coalesced into paper-style batched prompts of
	// at most this many pairs, cutting LLM round-trips under load.
	// Zero (or negative) disables it: every uncertain pair is its own
	// client round-trip. Whether batched answers equal per-pair
	// answers is the client's contract — the dispatcher preserves
	// decisions exactly for clients that answer batch positions
	// consistently with per-pair prompts, while simulated study models
	// add the paper's position-dependent batch noise.
	DispatchPairs int
	// DispatchFlush bounds how long a pending uncertain pair waits for
	// batch-mates before a partial batch is flushed (default
	// DefaultDispatchFlush). Only meaningful with DispatchPairs > 0.
	DispatchFlush time.Duration
	// PersistDir enables durability: the store journals every ingested
	// record and fresh match decision to a write-ahead log in this
	// directory and periodically compacts the log into a snapshot.
	// Open replays the directory on startup and reuses journaled
	// decisions without re-invoking the LLM; New ignores the field
	// (in-memory store). Empty means in-memory.
	PersistDir string
	// SnapshotEvery is the number of WAL appends between automatic
	// snapshot+compaction runs (default DefaultSnapshotEvery; negative
	// disables the cadence — Checkpoint and Close still compact). A
	// batch is one write and runs the cadence once, after it.
	SnapshotEvery int
	// SyncEvery fsyncs the WAL after every N appends (default 0: sync
	// only on snapshot, Flush and Close; 1 makes every append durable
	// against OS crashes at a heavy throughput cost).
	SyncEvery int
	// WALFS is the filesystem the WAL writes through (default the real
	// one). The chaos harness injects fault-wrapping implementations;
	// serving code leaves it nil.
	WALFS persist.FS
	// Resilience enables the fault-tolerance layer: circuit breaker
	// around the LLM client, escalation load shedding, request
	// hedging, and deferred-decision graceful degradation (see
	// ResilienceOptions).
	Resilience ResilienceOptions
	// Telemetry wires the store (and the pipeline, dispatcher, index
	// shards and WAL underneath it) into a telemetry handle: per-stage
	// resolve latency histograms, cascade outcome counters, and the
	// sampled slow-resolve logger. Nil (the default) disables all
	// instrumentation; the hot path then pays only nil checks.
	Telemetry *telemetry.Telemetry
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = DefaultShards
	}
	if o.MaxCandidates <= 0 {
		o.MaxCandidates = DefaultMaxCandidates
	}
	if o.Design.Name == "" {
		o.Design, _ = prompt.DesignByName(DefaultDesign)
	}
	if o.SnapshotEvery < 0 {
		o.SnapshotEvery = 0
	} else if o.SnapshotEvery == 0 {
		o.SnapshotEvery = DefaultSnapshotEvery
	}
	if o.SyncEvery < 0 {
		o.SyncEvery = 0
	}
	if o.DispatchPairs < 0 {
		o.DispatchPairs = 0
	}
	if o.DispatchFlush <= 0 {
		o.DispatchFlush = DefaultDispatchFlush
	}
	return o
}

// Typed errors, for callers (e.g. the HTTP front end) that map
// failure classes to response codes.
var (
	// ErrNoID marks a record or query with an empty ID — a caller
	// mistake.
	ErrNoID = errors.New("resolve: record has no ID")
	// ErrDuplicateID marks an Add of an already-stored record ID.
	ErrDuplicateID = errors.New("resolve: duplicate record ID")
)

// Store is the online entity-resolution store.
type Store struct {
	opts    Options
	eng     *pipeline.Engine
	pricing cost.Pricing
	priced  bool
	// disp is the cross-request micro-batching dispatcher for the
	// cascade's uncertain band; nil when Options.DispatchPairs is 0.
	// Shared by every Resolve call, drained by Close.
	disp *dispatch.Dispatcher
	// res is the fault-tolerance layer — breaker, shedder, deferred
	// queue, re-escalator; nil when Options.Resilience.Enabled is
	// false, which keeps the hot path at a single nil check.
	res *resilienceState

	shards []*shard
	// count tracks the stored-record total without touching shard
	// locks; Resolve reads it to decide whether parallel shard fanout
	// is worth the goroutine overhead.
	count atomic.Int64
	// rscratch pools per-resolve candidate buffers (*resolveScratch).
	rscratch sync.Pool

	// graph holds only the IDs a resolve or a union touched; Entity,
	// Snapshot and Stats supply every other stored record's singleton.
	graphMu sync.Mutex
	graph   *blocking.UnionFind

	statsMu sync.Mutex
	totals  totals

	// persistMu serializes WAL appends, journal writes and snapshots.
	// Lock order: persistMu before graphMu/shard locks/statsMu, never
	// the other way around. All persistence fields are static after
	// Open, so wal == nil reliably selects the in-memory fast path.
	persistMu sync.Mutex
	wal       *persist.WAL
	jlog      *persist.WAL // journal.log, extended by checkpoints only
	journal   map[pairID]persist.DecisionEntry
	pstate    persistState
}

// shard is one partition of the record store and its inverted index.
// Records route to shards by ID hash, so concurrent Adds contend only
// per shard; Resolves read every shard under its read lock.
type shard struct {
	mu sync.RWMutex
	ix *blocking.Index
	// live maps the IDs of records inserted since the store was built
	// or opened to their positions in ix. The mapped base of a restarted
	// store is not in it: posLocked asks the snapshot's on-disk ID hash.
	live map[string]int32
	// ext caches each record's feature extraction, position-aligned
	// with ix, so the cascade scores candidates without re-extracting
	// (or re-serializing) them on every Resolve. It keeps what
	// features.Extracted.Stored keeps — no Raw, no Tokens beside
	// TitleTokens — so a record's text dies with its ingest. Entries
	// stay nil while extraction is deferred (Options.DeferExtraction,
	// any record behind a mapped restart) until fillExtracted fills
	// them. Pointers are handed out to queries and stay valid across
	// append growth; what they point to is immutable once stored.
	ext []*features.Extracted
	// cached counts the non-nil entries of ext.
	cached int
}

// insertLocked indexes one pre-serialized record (ext may be nil for
// deferred extraction). The caller holds mu (or has exclusive access
// during recovery) and has already rejected duplicates.
func (sh *shard) insertLocked(r entity.Record, text string, ext *features.Extracted) {
	sh.live[r.ID] = int32(sh.ix.AddSerialized(r, text))
	sh.ext = append(sh.ext, ext)
	if ext != nil {
		sh.cached++
	}
}

// posLocked returns the index position of a stored record ID —
// inserted live, or part of the mapped base. Caller holds mu.
func (sh *shard) posLocked(id string) (int, bool) {
	if pos, ok := sh.live[id]; ok {
		return int(pos), true
	}
	return sh.ix.RecordPos(id)
}

// collect queries one shard for blocking candidates and copies the
// matching records out under the read lock, appending to dst (a
// reusable buffer owned by the caller). words is the pre-split query
// tokenization shared by every shard. Candidates whose extraction was
// deferred are materialized after the read lock drops.
func (sh *shard) collect(dst []scored, qid string, words []string, maxCandidates int, minScore float64) []scored {
	start := len(dst)
	lazy := false
	sh.mu.RLock()
	for _, c := range sh.ix.QueryTokens(words, maxCandidates, minScore) {
		r := sh.ix.Record(c.Pos)
		if r.ID == qid {
			continue // re-resolving an added record
		}
		ext := sh.ext[c.Pos]
		if ext == nil {
			lazy = true
		}
		dst = append(dst, scored{rec: r, ext: ext, score: c.Score, pos: c.Pos})
	}
	sh.mu.RUnlock()
	if lazy {
		sh.fillExtracted(dst[start:])
	}
	return dst
}

// fillExtracted materializes deferred feature extractions for
// collected candidates. Extraction (pure, deterministic) runs outside
// any lock; the result publishes under a brief write lock with a
// double-check, so concurrent Resolves racing on the same cold record
// converge on one cached pointer.
func (sh *shard) fillExtracted(cs []scored) {
	for i := range cs {
		if cs[i].ext != nil {
			continue
		}
		e := features.ExtractText(cs[i].rec.Serialize()).Stored()
		sh.mu.Lock()
		if sh.ext[cs[i].pos] == nil {
			sh.ext[cs[i].pos] = &e
			sh.cached++
		}
		cs[i].ext = sh.ext[cs[i].pos]
		sh.mu.Unlock()
	}
}

// scored is one blocking candidate copied out of a shard: the record,
// its cached feature extraction, the summed-IDF blocking score and the
// shard-index position it came from.
type scored struct {
	rec   entity.Record
	ext   *features.Extracted
	score float64
	pos   int
}

// fanoutRecords is the stored-record count from which Resolve queries
// the index shards from parallel goroutines. Shard queries cost
// single-digit microseconds on small stores, where the goroutine
// handoff would dominate; the fanout engages only once per-shard work
// is large enough to amortize it. A variable only so the
// serial-vs-parallel differential test can force the parallel side.
var fanoutRecords int64 = 1 << 20

// resolveScratch pools the per-shard candidate buffers of
// blockCandidates. Only the buffers are pooled: the merged result
// holds value copies, so handing the scratch back never aliases a
// returned candidate.
type resolveScratch struct {
	perShard [][]scored
}

// blockCandidates fans the pre-tokenized query out to every shard and
// merges the per-shard ranked lists into the global top
// MaxCandidates. From fanoutRecords stored records on the fanout runs
// one goroutine per shard; results land in per-shard slots, so the
// merge — and therefore the final ranking — is deterministic
// regardless of scheduling.
func (s *Store) blockCandidates(qid string, words []string) []scored {
	sc := s.rscratch.Get().(*resolveScratch)
	if len(sc.perShard) != len(s.shards) {
		sc.perShard = make([][]scored, len(s.shards))
	}
	perShard := sc.perShard
	minScore := s.opts.Blocking.EffectiveMinScore()
	if len(s.shards) > 1 && s.count.Load() >= fanoutRecords {
		var wg sync.WaitGroup
		wg.Add(len(s.shards))
		for i, sh := range s.shards {
			go func(i int, sh *shard) {
				defer wg.Done()
				perShard[i] = sh.collect(perShard[i][:0], qid, words, s.opts.MaxCandidates, minScore)
			}(i, sh)
		}
		wg.Wait()
	} else {
		for i, sh := range s.shards {
			perShard[i] = sh.collect(perShard[i][:0], qid, words, s.opts.MaxCandidates, minScore)
		}
	}
	out := mergeTopK(perShard, s.opts.MaxCandidates)
	s.rscratch.Put(sc)
	return out
}

// scoredBefore is the global candidate order: score descending, ties
// broken by ascending record ID (IDs are unique across shards).
func scoredBefore(a, b scored) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.rec.ID < b.rec.ID
}

// mergeTopK selects the global top-K from the per-shard candidate
// lists with the shared bounded-heap selection — the same result
// sorting everything and truncating produced, without the global
// sort.
func mergeTopK(perShard [][]scored, k int) []scored {
	total := 0
	for _, cs := range perShard {
		total += len(cs)
	}
	if total == 0 {
		return nil
	}
	if k > total {
		k = total
	}
	h := make([]scored, 0, k)
	for _, cs := range perShard {
		for _, c := range cs {
			h = blocking.PushBounded(h, k, c, scoredBefore)
		}
	}
	blocking.SortTopK(h, scoredBefore)
	return h
}

// totals accumulates store-lifetime counters under statsMu.
type totals struct {
	resolves         uint64
	candidates       uint64
	localAccepts     uint64
	localRejects     uint64
	llmPairs         uint64
	batchedPairs     uint64
	batchFallbacks   uint64
	groupFallbacks   uint64
	budgetDecided    uint64
	journalHits      uint64
	deferredPairs    uint64
	redecided        uint64
	promptTokens     uint64
	completionTokens uint64
	cents            float64
	match            StrategyTotals
	compare          StrategyTotals
	sel              StrategyTotals
	reason           StrategyTotals
}

// StrategyTotals accumulates one prompt strategy's lifetime share of
// the store's LLM activity — the uint64 counterpart of the per-call
// StrategyUsage.
type StrategyTotals struct {
	Calls            uint64
	Pairs            uint64
	PromptTokens     uint64
	CompletionTokens uint64
}

// add folds one call's strategy usage into the lifetime totals.
func (t *StrategyTotals) add(u StrategyUsage) {
	t.Calls += uint64(u.Calls)
	t.Pairs += uint64(u.Pairs)
	t.PromptTokens += uint64(u.PromptTokens)
	t.CompletionTokens += uint64(u.CompletionTokens)
}

// New returns an empty store resolving against the client.
func New(client llm.Client, opts Options) *Store {
	s := newStore(client, opts)
	// Open starts the re-escalator itself, after WAL replay has rebuilt
	// the deferred queue.
	s.startResilience()
	return s
}

// newStore builds the store without starting background goroutines.
func newStore(client llm.Client, opts Options) *Store {
	o := opts.withDefaults()
	// Sub-package instruments are handed down by value; without a
	// telemetry handle they stay zero (all-nil, nil-safe no-ops).
	var pm telemetry.PipelineMetrics
	var dm telemetry.DispatchMetrics
	var bm telemetry.BlockingMetrics
	var rm telemetry.ResilienceMetrics
	if o.Telemetry != nil {
		pm, dm, bm = o.Telemetry.Pipeline, o.Telemetry.Dispatch, o.Telemetry.Blocking
		rm = o.Telemetry.Resilience
	}
	spec := prompt.Spec{Design: o.Design, Domain: o.Domain}
	var res *resilienceState
	var hedge time.Duration
	if o.Resilience.Enabled {
		res = newResilienceState(o.Resilience, spec, rm)
		// The breaker wraps the client BEFORE the pipeline engine, so
		// every retry attempt — not just whole chat calls — consults
		// and reports it, and an open breaker fails attempts fast
		// (resilience.ErrOpen is not transient, so the retry loop stops
		// immediately).
		client = resilience.Guard(client, res.breaker)
		hedge = o.Resilience.Hedge
	}
	s := &Store{
		opts: o,
		res:  res,
		eng: pipeline.New(client, pipeline.Options{
			Workers:    o.Workers,
			CacheSize:  o.CacheSize,
			MaxRetries: o.MaxRetries,
			Hedge:      hedge,
			Metrics:    pm,
		}),
		shards:  make([]*shard, o.Shards),
		graph:   blocking.NewUnionFind(),
		journal: map[pairID]persist.DecisionEntry{},
	}
	s.pricing, s.priced = cost.For(client.Name())
	if o.DispatchPairs > 0 {
		// The per-pair builder is the same prompt Resolve's unbatched
		// path sends, so the dispatcher's dedupe and cache layering key
		// on exactly the prompts the rest of the system uses.
		s.disp = dispatch.New(s.eng, spec.Build,
			func(ps []entity.Pair) string { return prompt.BuildBatch(o.Domain, ps) },
			dispatch.Options{MaxBatchPairs: o.DispatchPairs, FlushInterval: o.DispatchFlush, Metrics: dm})
	}
	s.rscratch.New = func() any { return &resolveScratch{} }
	for i := range s.shards {
		s.shards[i] = &shard{
			ix:   blocking.BuildIndex(nil, o.Blocking),
			live: map[string]int32{},
		}
		s.shards[i].ix.SetMetrics(bm)
	}
	return s
}

// extractFor runs ingest-time feature extraction — or defers it to the
// first resolve that surfaces the record (Options.DeferExtraction).
func (s *Store) extractFor(text string) *features.Extracted {
	if s.opts.DeferExtraction {
		return nil
	}
	e := features.ExtractText(text).Stored()
	return &e
}

// shardIndex routes a record ID to its shard slot.
func (s *Store) shardIndex(id string) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// shardFor routes a record ID to its shard.
func (s *Store) shardFor(id string) *shard { return s.shards[s.shardIndex(id)] }

// Add inserts a record into the store: it becomes findable by Resolve
// and forms a singleton entity until matched. Records with empty or
// duplicate IDs are rejected. Serialization and feature extraction
// run before the shard lock is taken, so concurrent Adds contend only
// on the map/index insert itself.
func (s *Store) Add(r entity.Record) error {
	if r.ID == "" {
		return ErrNoID
	}
	text := r.Serialize()
	ext := s.extractFor(text)
	sh := s.shardFor(r.ID)
	sh.mu.Lock()
	if _, dup := sh.posLocked(r.ID); dup {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrDuplicateID, r.ID)
	}
	sh.insertLocked(r, text, ext)
	sh.mu.Unlock()
	s.count.Add(1)

	if s.wal != nil {
		s.persistMu.Lock()
		err := s.appendRecordsLocked([]entity.Record{r})
		s.persistMu.Unlock()
		if err != nil {
			return fmt.Errorf("resolve: journal record %q: %w", r.ID, err)
		}
	}
	return nil
}

// BatchError reports a partially applied AddBatch: Added records are
// in the store (a batch is not transactional), Err is the failure.
// Unwrap exposes Err, so errors.Is(err, ErrDuplicateID) still works.
type BatchError struct {
	Added int
	Err   error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("resolve: batch add failed after %d records: %v", e.Added, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// AddBatch inserts the records, paying each lock — shard, persistence
// — once per batch instead of once per record. Records with empty IDs
// or IDs duplicated within the batch reject the whole batch upfront; an
// ID already in the store stops the insert with a *BatchError reporting
// how many records made it in (records of a failed batch are not rolled
// back). Records are processed grouped by shard, not in input order.
func (s *Store) AddBatch(rs []entity.Record) error {
	if len(rs) == 0 {
		return nil
	}
	seen := make(map[string]bool, len(rs))
	for _, r := range rs {
		if r.ID == "" {
			return &BatchError{Err: ErrNoID}
		}
		if seen[r.ID] {
			return &BatchError{Err: fmt.Errorf("%w in batch: %q", ErrDuplicateID, r.ID)}
		}
		seen[r.ID] = true
	}

	// Serialize and extract outside any lock, then insert shard by
	// shard under one lock acquisition each.
	type prepared struct {
		rec  entity.Record
		text string
		ext  *features.Extracted
	}
	byShard := make([][]prepared, len(s.shards))
	for _, r := range rs {
		text := r.Serialize()
		i := s.shardIndex(r.ID)
		byShard[i] = append(byShard[i], prepared{rec: r, text: text, ext: s.extractFor(text)})
	}

	var inserted []entity.Record
	var insertErr error
insert:
	for i, group := range byShard {
		if len(group) == 0 {
			continue
		}
		sh := s.shards[i]
		sh.mu.Lock()
		for _, p := range group {
			if _, dup := sh.posLocked(p.rec.ID); dup {
				insertErr = fmt.Errorf("%w: %q", ErrDuplicateID, p.rec.ID)
				sh.mu.Unlock()
				break insert
			}
			sh.insertLocked(p.rec, p.text, p.ext)
			inserted = append(inserted, p.rec)
		}
		sh.mu.Unlock()
	}
	s.count.Add(int64(len(inserted)))

	// Journal everything that was inserted, even on a failed batch:
	// the durable log must cover the in-memory state.
	if s.wal != nil && len(inserted) > 0 {
		s.persistMu.Lock()
		err := s.appendRecordsLocked(inserted)
		s.persistMu.Unlock()
		if err != nil {
			// Keep a pending insert error (e.g. the duplicate ID that
			// stopped the batch) visible alongside the journal failure,
			// so errors.Is still finds the typed cause.
			return &BatchError{Added: len(inserted),
				Err: errors.Join(insertErr, fmt.Errorf("journal %d records: %w", len(inserted), err))}
		}
	}
	if insertErr != nil {
		return &BatchError{Added: len(inserted), Err: insertErr}
	}
	return nil
}

// Record returns a stored record by ID.
func (s *Store) Record(id string) (entity.Record, bool) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if pos, ok := sh.posLocked(id); ok {
		return sh.ix.Record(pos), true
	}
	return entity.Record{}, false
}

// stored reports whether a record with the ID is in the store.
func (s *Store) stored(id string) bool {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.posLocked(id)
	return ok
}

// Len returns the number of stored records.
func (s *Store) Len() int { return int(s.count.Load()) }

// Result is the outcome of resolving one query record.
type Result struct {
	// Query is the resolved record.
	Query entity.Record
	// EntityID is the canonical ID of the entity the query belongs to
	// after folding — the smallest member ID of its group (the query's
	// own ID if nothing matched). It reflects the entity graph at fold
	// time: concurrently resolved queries that joined the same entity
	// earlier appear in it. Decisions and the final Snapshot are
	// independent of that ordering.
	EntityID string
	// Members are the sorted IDs of that entity at fold time,
	// including the query.
	Members []string
	// Decisions covers every candidate pair in blocking-rank order.
	Decisions []PairDecision
	// Cost accounts the call.
	Cost CostReport
}

// Matched reports whether the query matched any stored record.
func (r Result) Matched() bool { return len(r.Members) > 1 }

// Resolve matches a query record against the store and folds the
// decisions into the entity graph: the query joins the entity of every
// record it matched (transitively merging their groups). The query
// itself is NOT added to the searchable index — call Add for that,
// before or after — so concurrent Resolves against a fixed store are
// independent and deterministic.
func (s *Store) Resolve(q entity.Record) (Result, error) {
	return s.ResolveContext(context.Background(), q)
}

// ResolveContext is Resolve carrying a request context, which serves
// two roles. When the context holds a telemetry.Trace (the HTTP layer
// attaches one per request), per-stage durations are recorded into it
// under the request's trace ID, alongside the store-level telemetry
// handle. And the context's deadline/cancellation bounds the LLM
// escalation: in-flight model work is abandoned when it fires (the
// local stages always run to completion — they are microseconds).
// Without the resilience layer an expired context fails the call with
// ctx.Err(); with it (Options.Resilience.Enabled) a spent deadline
// degrades the undecided pairs to deferred local verdicts instead —
// see deferred.go.
func (s *Store) ResolveContext(ctx context.Context, q entity.Record) (Result, error) {
	if q.ID == "" {
		return Result{}, fmt.Errorf("query: %w", ErrNoID)
	}
	obs := s.newStageObserver(telemetry.FromContext(ctx))
	text := q.Serialize()
	// One extraction serves everything downstream: its WordTokens are
	// the blocking tokenization (computed once, fanned out to every
	// shard) and the extraction itself feeds the cascade scorer.
	qext := features.ExtractText(text)
	obs.lap(telemetry.StageExtract)

	// Blocking: query every shard's index — in parallel for large
	// stores — and merge the per-shard top-K lists into the global
	// top-K.
	cands := s.blockCandidates(q.ID, qext.WordTokens)
	obs.lap(telemetry.StageBlock)

	// Journal short-circuit: pairs decided in an earlier call —
	// possibly before a restart — replay their durable decision
	// instead of re-running the cascade or re-paying the LLM.
	decisions := make([]PairDecision, len(cands))
	var fresh []int // indices into cands still needing a decision
	var journalHits int
	if s.wal != nil {
		s.persistMu.Lock()
		for i, c := range cands {
			if je, ok := s.journal[pairID{query: q.ID, candidate: c.rec.ID}]; ok {
				decisions[i] = PairDecision{
					CandidateID: c.rec.ID,
					BlockScore:  c.score,
					Probability: je.Probability,
					Match:       je.Match,
					Method:      Method(je.Method),
					Answer:      je.Answer,
					Journaled:   true,
					Deferred:    je.Deferred,
				}
				journalHits++
			} else {
				fresh = append(fresh, i)
			}
		}
		s.persistMu.Unlock()
	} else {
		fresh = make([]int, len(cands))
		for i := range cands {
			fresh[i] = i
		}
	}
	obs.lap(telemetry.StageJournal)

	// Cascade: local scorer first, the uncertain band to the LLM. The
	// candidate extractions come from the shard cache — no candidate
	// is re-serialized or re-extracted here.
	ids := make([]string, len(fresh))
	exts := make([]*features.Extracted, len(fresh))
	scores := make([]float64, len(fresh))
	for fi, ci := range fresh {
		ids[fi] = cands[ci].rec.ID
		exts[fi] = cands[ci].ext
		scores[fi] = cands[ci].score
	}
	spec := prompt.Spec{Design: s.opts.Design, Domain: s.opts.Domain}
	var estimateCents func(i int) float64
	if s.priced {
		// Price the pair's actual prompt plus a typical completion,
		// so the cost budget tracks the configured design's real
		// prompt sizes.
		estimateCents = func(i int) float64 {
			built := spec.Build(entity.Pair{ID: q.ID + "|" + ids[i], A: q, B: cands[fresh[i]].rec})
			return cost.PerPromptCents(s.pricing,
				float64(tokenize.EstimateTokens(built)), EstCompletionTokens)
		}
	}
	plan := s.opts.Cascade.plan(qext, ids, exts, scores, estimateCents)
	plan.report.Candidates = len(cands)
	plan.report.JournalHits = journalHits
	plan.report.Priced = s.priced
	obs.lap(telemetry.StageScore)

	if len(plan.llm) > 0 {
		pairs := make([]entity.Pair, len(plan.llm))
		for i, di := range plan.llm {
			pairs[i] = entity.Pair{
				ID: q.ID + "|" + cands[fresh[di]].rec.ID,
				A:  q,
				B:  cands[fresh[di]].rec,
			}
		}
		var modelLat time.Duration
		var err error
		if s.res != nil {
			modelLat, err = s.escalateResilient(ctx, q, pairs, spec, &plan)
		} else {
			modelLat, err = s.escalate(ctx, pairs, spec, &plan)
		}
		if err != nil {
			err = fmt.Errorf("resolve: %w", err)
			obs.finish(q.ID, plan.report, err)
			return Result{}, err
		}
		obs.lapLLM(modelLat)
	}
	for fi, ci := range fresh {
		decisions[ci] = plan.decisions[fi]
	}

	// Fold the decisions into the entity graph and, for a persistent
	// store, commit them to the journal and the WAL. persistMu spans
	// fold, totals and append so a concurrent snapshot never captures
	// totals whose WAL entry would replay on top of them.
	if s.wal != nil {
		s.persistMu.Lock()
	}
	s.graphMu.Lock()
	s.graph.Add(q.ID)
	for _, d := range decisions {
		// A deferred match is tentative and stays out of the graph:
		// union-find merges cannot be undone, so the union waits for the
		// re-escalator's real verdict (deferred.go).
		if d.Match && !d.Deferred {
			s.graph.Union(q.ID, d.CandidateID)
		}
	}
	entityID, _ := s.graph.Find(q.ID)
	members := s.graph.Members(q.ID)
	s.graphMu.Unlock()

	s.recordTotals(plan.report)
	obs.lap(telemetry.StageFold)
	if s.wal != nil {
		freshEntries := make([]persist.DecisionEntry, len(fresh))
		for fi, ci := range fresh {
			d := decisions[ci]
			freshEntries[fi] = persist.DecisionEntry{
				CandidateID: d.CandidateID,
				BlockScore:  d.BlockScore,
				Probability: d.Probability,
				Match:       d.Match,
				Method:      string(d.Method),
				Answer:      d.Answer,
				Deferred:    d.Deferred,
			}
		}
		err := s.appendResolveLocked(q, freshEntries, plan.report)
		s.persistMu.Unlock()
		obs.lap(telemetry.StagePersist)
		if err != nil {
			err = fmt.Errorf("resolve: journal decisions for %q: %w", q.ID, err)
			obs.finish(q.ID, plan.report, err)
			return Result{}, err
		}
	}
	obs.finish(q.ID, plan.report, nil)
	return Result{
		Query:     q,
		EntityID:  entityID,
		Members:   members,
		Decisions: decisions,
		Cost:      plan.report,
	}, nil
}

// escalate sends the planned uncertain pairs to the LLM and fills
// their decisions and the report's LLM accounting, honoring the
// configured Cascade.Strategy and reason tier (see escalator). With
// the micro-batching dispatcher enabled, pairwise prompts ride shared
// batched prompts (possibly alongside other concurrent Resolve
// calls); otherwise each request runs on the engine's worker pool.
// The cascade plan has already applied LLMBudget and
// MaxCentsPerResolve, so the strategy only changes how many
// round-trips the escalated pairs cost, never which pairs are
// escalated.
//
// The returned duration sums the model-side latency the answers
// report (a batched or grouped answer reports its share of the shared
// request), letting the stage observer split the escalation
// wall-clock into model time and dispatch wait.
func (s *Store) escalate(ctx context.Context, pairs []entity.Pair, spec prompt.Spec, plan *cascadePlan) (time.Duration, error) {
	esc := &escalator{
		eng:     s.eng,
		disp:    s.disp,
		opts:    s.opts.Cascade,
		spec:    spec,
		domain:  s.opts.Domain,
		pricing: s.pricing,
		priced:  s.priced,
	}
	return esc.run(ctx, pairs, plan)
}

// escalateResilient is escalate behind the fault-tolerance layer:
// escalations pass through the load shedder, and an unavailable
// backend — breaker open, deadline spent, retries exhausted —
// degrades the undecided pairs to deferred local verdicts instead of
// failing the Resolve. Only two errors can surface: resilience.ErrShed
// (the server is full — the backend is fine, so degrading would
// silently shed load as fake answers) and context.Canceled (the
// caller gave up; there is no one to serve a degraded answer to —
// though pairs already deferred by then stay queued).
func (s *Store) escalateResilient(ctx context.Context, q entity.Record, pairs []entity.Pair, spec prompt.Spec, plan *cascadePlan) (time.Duration, error) {
	// Fast-path degrade: a known-open breaker or an already-expired
	// deadline makes the LLM attempt pointless — skip the shedder
	// queue entirely and answer locally.
	if s.res.breaker.State() == resilience.Open || ctx.Err() != nil {
		s.degrade(q, plan)
		return 0, nil
	}
	if err := s.res.shed.Acquire(ctx); err != nil {
		if errors.Is(err, resilience.ErrShed) {
			return 0, err
		}
		if errors.Is(err, context.Canceled) {
			return 0, err
		}
		// Deadline expired while queued for a slot.
		s.degrade(q, plan)
		return 0, nil
	}
	defer s.res.shed.Release()
	modelLat, err := s.escalate(ctx, pairs, spec, plan)
	if err == nil {
		return modelLat, nil
	}
	if errors.Is(err, context.Canceled) {
		return 0, err
	}
	s.degrade(q, plan)
	return 0, nil
}

// recordTotals folds one call's report into the lifetime counters.
func (s *Store) recordTotals(r CostReport) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	s.totals.resolves++
	s.totals.candidates += uint64(r.Candidates)
	s.totals.localAccepts += uint64(r.LocalAccepts)
	s.totals.localRejects += uint64(r.LocalRejects)
	s.totals.llmPairs += uint64(r.LLMPairs)
	s.totals.batchedPairs += uint64(r.BatchedPairs)
	s.totals.batchFallbacks += uint64(r.BatchFallbacks)
	s.totals.groupFallbacks += uint64(r.GroupFallbacks)
	s.totals.budgetDecided += uint64(r.BudgetDecided)
	s.totals.journalHits += uint64(r.JournalHits)
	s.totals.deferredPairs += uint64(r.DeferredPairs)
	s.totals.promptTokens += uint64(r.PromptTokens)
	s.totals.completionTokens += uint64(r.CompletionTokens)
	s.totals.cents += r.Cents
	s.totals.match.add(r.MatchUsage)
	s.totals.compare.add(r.CompareUsage)
	s.totals.sel.add(r.SelectUsage)
	s.totals.reason.add(r.ReasonUsage)
}

// Entity returns the sorted member IDs of the entity containing the
// ID, which may be a stored record or a previously resolved query. A
// stored record that never took part in a resolve is its own entity.
func (s *Store) Entity(id string) ([]string, bool) {
	s.graphMu.Lock()
	members := s.graph.Members(id)
	s.graphMu.Unlock()
	if members == nil && s.stored(id) {
		members = []string{id}
	}
	return members, members != nil
}

// GraphIDs returns the number of IDs the entity graph holds: those a
// resolve or a union touched. O(1), unlike Stats, which walks them.
func (s *Store) GraphIDs() int {
	s.graphMu.Lock()
	defer s.graphMu.Unlock()
	return s.graph.Len()
}

// Snapshot returns all entity groups as sorted member slices in
// deterministic order: the explicit graph built on demand, the store's
// groups plus a singleton per remaining record. It walks every record.
func (s *Store) Snapshot() [][]string {
	all := blocking.NewUnionFind()
	s.graphMu.Lock()
	for _, g := range s.graph.Groups() {
		for _, id := range g {
			all.Union(g[0], id)
		}
	}
	s.graphMu.Unlock()
	for _, sh := range s.shards {
		sh.mu.RLock()
		for pos := 0; pos < sh.ix.Len(); pos++ {
			all.Add(sh.ix.RecordID(pos))
		}
		sh.mu.RUnlock()
	}
	return all.Groups()
}

// Stats is a snapshot of the store's lifetime counters.
type Stats struct {
	// Records is the number of stored (indexed) records; Entities the
	// number of entity groups, which also counts resolved queries.
	Records  int
	Entities int
	// Extractions is the number of records whose feature extraction is
	// resident: after a mapped restart, the ones resolves have surfaced.
	Extractions int
	// Resolves is the number of Resolve calls served.
	Resolves uint64
	// Candidates is the total candidate pairs blocking produced;
	// LocalAccepts/LocalRejects/LLMPairs/BudgetDecided split them by
	// deciding stage.
	Candidates    uint64
	LocalAccepts  uint64
	LocalRejects  uint64
	LLMPairs      uint64
	BudgetDecided uint64
	// BatchedPairs counts LLM pairs answered via cross-request batched
	// prompts; BatchFallbacks pairs re-answered individually after a
	// batched reply failed to parse.
	BatchedPairs   uint64
	BatchFallbacks uint64
	// GroupFallbacks counts pairs re-answered by individual pairwise
	// prompts after a grouped compare/select reply failed strict
	// parsing.
	GroupFallbacks uint64
	// MatchStrategy, CompareStrategy, SelectStrategy and
	// ReasonStrategy split the lifetime LLM activity by the prompt
	// strategy that produced it (see StrategyUsage).
	MatchStrategy   StrategyTotals
	CompareStrategy StrategyTotals
	SelectStrategy  StrategyTotals
	ReasonStrategy  StrategyTotals
	// DeferredPairs counts pairs degraded to tentative local verdicts
	// while the LLM backend was unavailable; Redecided counts those the
	// background re-escalator has since settled with a real LLM
	// verdict (both lifetime, surviving restarts).
	DeferredPairs uint64
	Redecided     uint64
	// JournalHits counts pairs decided from the durable decision
	// journal of a persistent store.
	JournalHits uint64
	// PromptTokens/CompletionTokens/Cents sum the LLM usage; Priced
	// reports whether the model has hosted pricing.
	PromptTokens     uint64
	CompletionTokens uint64
	Cents            float64
	Priced           bool
	// Engine counts client calls, cache hits and retries of the
	// underlying pipeline engine.
	Engine pipeline.Stats
	// Dispatch reports the micro-batching dispatcher's counters;
	// Dispatch.Enabled is false when Options.DispatchPairs is 0 and
	// every embedded counter is then zero.
	Dispatch DispatchStats
	// Persist reports the durability side: recovery counts, WAL and
	// snapshot activity. Persist.Enabled is false for in-memory
	// stores.
	Persist PersistStats
	// Resilience reports the fault-tolerance layer: breaker state,
	// shed count, deferred queue depth. Resilience.Enabled is false
	// when Options.Resilience.Enabled is.
	Resilience ResilienceStats
}

// LocalFraction returns the lifetime fraction of candidate pairs
// decided without an LLM call.
func (st Stats) LocalFraction() float64 {
	if st.Candidates == 0 {
		return 1
	}
	return 1 - float64(st.LLMPairs)/float64(st.Candidates)
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	// persistStats locks persistMu, which must never be acquired with
	// graphMu or statsMu held — gather it first.
	ps := s.persistStats()

	records, cached := s.Len(), 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		cached += sh.cached
		sh.mu.RUnlock()
	}
	// Entities are the graph's sets plus the stored records outside the
	// graph; counting the latter walks the graph's IDs, not the records.
	s.graphMu.Lock()
	groups := s.graph.Groups()
	s.graphMu.Unlock()
	entities := len(groups) + records
	for _, g := range groups {
		for _, id := range g {
			if s.stored(id) {
				entities--
			}
		}
	}

	s.statsMu.Lock()
	t := s.totals
	s.statsMu.Unlock()

	st := Stats{
		Records:          records,
		Entities:         entities,
		Extractions:      cached,
		Resolves:         t.resolves,
		Candidates:       t.candidates,
		LocalAccepts:     t.localAccepts,
		LocalRejects:     t.localRejects,
		LLMPairs:         t.llmPairs,
		BudgetDecided:    t.budgetDecided,
		BatchedPairs:     t.batchedPairs,
		BatchFallbacks:   t.batchFallbacks,
		GroupFallbacks:   t.groupFallbacks,
		DeferredPairs:    t.deferredPairs,
		Redecided:        t.redecided,
		MatchStrategy:    t.match,
		CompareStrategy:  t.compare,
		SelectStrategy:   t.sel,
		ReasonStrategy:   t.reason,
		JournalHits:      t.journalHits,
		PromptTokens:     t.promptTokens,
		CompletionTokens: t.completionTokens,
		Cents:            t.cents,
		Priced:           s.priced,
		Engine:           s.eng.Stats(),
		Persist:          ps,
	}
	if s.disp != nil {
		st.Dispatch = DispatchStats{Enabled: true, Stats: s.disp.Stats()}
	}
	if s.res != nil {
		st.Resilience = ResilienceStats{
			Enabled:       true,
			BreakerState:  s.res.breaker.State().String(),
			BreakerTrips:  s.res.breaker.Trips(),
			Shed:          s.res.shed.Shed(),
			InFlight:      s.res.shed.InFlight(),
			Waiting:       s.res.shed.Waiting(),
			DeferredQueue: s.res.depth(),
			DeferredPairs: t.deferredPairs,
			Redecided:     t.redecided,
		}
	}
	return st
}

// DispatchStats snapshots the micro-batching dispatcher's counters.
// Enabled reports whether the store was built with
// Options.DispatchPairs > 0.
type DispatchStats struct {
	Enabled bool
	dispatch.Stats
}
