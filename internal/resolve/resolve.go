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
// the smallest member IDs). Lock order: persistMu, then any of graphMu,
// a shard lock and the deferred queue's mutex, none of which is held
// while taking another.
//
// Decisions are logged, then applied. A decision changes the store —
// entity graph, decision journal, lifetime totals, deferred queue —
// only through applyResolve and applyRedecide (commit.go). A persistent
// store first encodes the entry and appends it to the WAL, under
// persistMu; an in-memory store applies at once; replay at Open decodes
// an entry and calls the same two functions. A failed append therefore
// leaves all four as they were, and a checkpoint, which needs
// persistMu, never sees an entry's fold without its WAL frame. The
// totals are a cost.Report, the type a Resolve call's CostReport and
// the WAL's report payload also are; its Add is the only fold.
//
// Files follow the stages of a resolve: shard.go (block), journal.go
// (the decision journal's frame index over journal.log), cascade.go and
// strategy.go (score, escalate), deferred.go (degraded escalation and
// its re-decisions), commit.go (fold, persist), with ingest.go for Add,
// persist.go for Open, checkpoints and Close, and stats.go.
package resolve

import (
	"context"
	"errors"
	"fmt"
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
	// partial batch (only meaningful with Options.DispatchPairs > 1).
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
	// Design is the prompt design for escalated pairs (zero value
	// selects DefaultDesign).
	Design prompt.Design
	// Domain is the topical domain of the store's records.
	Domain entity.Domain
	// Cascade tunes the cascade matcher.
	Cascade CascadeOptions
	// DispatchPairs is the batch size of the cross-request
	// micro-batching dispatcher (internal/dispatch) every escalation
	// goes through: uncertain pairs from concurrent Resolve calls are
	// coalesced into paper-style batched prompts of at most this many
	// pairs, cutting LLM round-trips under load. Zero, negative and one
	// all mean batches of one: every uncertain pair is its own client
	// round-trip with the per-pair prompt. Whether batched answers equal
	// per-pair answers is the client's contract — the dispatcher
	// preserves decisions exactly for clients that answer batch
	// positions consistently with per-pair prompts, while simulated
	// study models add the paper's position-dependent batch noise.
	DispatchPairs int
	// DispatchFlush bounds how long a pending uncertain pair waits for
	// batch-mates before a partial batch is flushed (default
	// DefaultDispatchFlush). Only meaningful with DispatchPairs > 1.
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
	// Resilience tunes the fault-tolerance layer every store runs:
	// circuit breaker around the LLM client, escalation load shedding,
	// and deferred-decision graceful degradation (see
	// ResilienceOptions). The zero value selects the defaults.
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
	if o.DispatchFlush <= 0 {
		o.DispatchFlush = DefaultDispatchFlush
	}
	return o
}

// promptCacheSize is the store engine's prompt-cache capacity (zero
// selects pipeline.DefaultCacheSize). A variable only so tests that
// count client calls can turn the cache off with a negative value.
var promptCacheSize int

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
	opts Options
	// esc runs the cascade's LLM tier (strategy.go): its engine, the
	// dispatcher every Resolve call's escalation goes through (drained
	// by Close), the model's pricing, and esc.spec, which builds the
	// per-pair prompt everything keys on.
	esc *escalator
	// res is the fault-tolerance layer — breaker, shedder, deferred
	// queue, re-escalator.
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
	// graphMu also guards totals, which the same folds update.
	graphMu sync.Mutex
	graph   *blocking.UnionFind
	totals  totals

	// persistMu serializes WAL appends, journal writes and snapshots.
	// Lock order: persistMu before graphMu and shard locks, never the
	// other way around. All persistence fields are static after
	// Open, so wal == nil reliably selects the in-memory fast path.
	persistMu sync.Mutex
	wal       *persist.WAL
	journal   journal
	pstate    persistState
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
	res := newResilienceState(o.Resilience, rm)
	// The breaker wraps the client BEFORE the pipeline engine, so every
	// retry attempt — not just whole chat calls — consults and reports
	// it, and an open breaker fails attempts fast (resilience.ErrOpen is
	// not transient, so the retry loop stops immediately).
	client = resilience.Guard(client, res.breaker)
	s := &Store{
		opts: o,
		res:  res,
		esc: newEscalator(pipeline.New(client, pipeline.Options{CacheSize: promptCacheSize, Metrics: pm}),
			prompt.Spec{Design: o.Design, Domain: o.Domain}, o.Cascade,
			dispatch.Options{MaxBatchPairs: o.DispatchPairs, FlushInterval: o.DispatchFlush, Metrics: dm}),
		shards: make([]*shard, o.Shards),
		graph:  blocking.NewUnionFind(),
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
// local stages always run to completion — they are microseconds). A
// spent deadline degrades the undecided pairs to deferred local
// verdicts rather than failing the call (see escalateBand and
// deferred.go); a cancelled context fails it with context.Canceled.
//
// The call is the trace's stages in order: extract, block, journal
// lookup, score, escalate, commit (fold and persist).
func (s *Store) ResolveContext(ctx context.Context, q entity.Record) (Result, error) {
	if q.ID == "" {
		return Result{}, fmt.Errorf("query: %w", ErrNoID)
	}
	obs := s.newStageObserver(telemetry.FromContext(ctx))
	// One extraction serves everything downstream: its WordTokens are
	// the blocking tokenization (computed once, fanned out to every
	// shard) and the extraction itself feeds the cascade scorer.
	qext := features.ExtractText(q.Serialize())
	obs.lap(telemetry.StageExtract)

	cands := s.blockCandidates(q.ID, qext.WordTokens)
	obs.lap(telemetry.StageBlock)

	decisions, fresh, err := s.journalLookup(q.ID, cands)
	obs.lap(telemetry.StageJournal)
	if err != nil {
		obs.finish(q.ID, CostReport{}, err)
		return Result{}, err
	}

	plan := s.planFresh(q, qext, cands, fresh)
	obs.lap(telemetry.StageScore)

	if len(plan.llm) > 0 {
		modelLat, err := s.escalateBand(ctx, q, cands, fresh, &plan)
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

	res := Result{Query: q, Decisions: decisions, Cost: plan.report}
	err = s.commit(&res, &obs)
	obs.finish(q.ID, plan.report, err)
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// journalLookup is the journal stage: pairs decided in an earlier call
// — possibly before a restart — replay their durable decision instead
// of re-running the cascade or re-paying the LLM. It returns one
// decision slot per candidate, the journaled ones filled, and the
// indices into cands still needing a decision. The query's journal
// frames are read back newest first, the first verdict found on a
// candidate winning; a never-journaled query reads nothing. A frame
// that cannot be read back fails the call (persist.ErrJournalTorn)
// rather than re-paying the model for a decision already bought.
func (s *Store) journalLookup(qid string, cands []scored) (decisions []PairDecision, fresh []int, err error) {
	decisions = make([]PairDecision, len(cands))
	if s.wal != nil {
		s.persistMu.Lock()
		left := len(cands)
		err = s.journal.each(qid, func(ds []persist.DecisionEntry) bool {
			for k := len(ds) - 1; k >= 0; k-- {
				for i, c := range cands {
					if !decisions[i].Journaled && c.rec.ID == ds[k].CandidateID {
						decisions[i] = decisionOf(ds[k])
						decisions[i].BlockScore = c.score
						decisions[i].Journaled = true
						left--
					}
				}
			}
			return left > 0
		})
		s.persistMu.Unlock()
		if err != nil {
			return nil, nil, err
		}
	}
	fresh = make([]int, 0, len(cands))
	for i := range decisions {
		if !decisions[i].Journaled {
			fresh = append(fresh, i)
		}
	}
	return decisions, fresh, nil
}

// planFresh is the score stage — the cascade's local half: the scorer
// decides the confident fresh pairs and plans the uncertain band for the
// LLM. Candidate extractions come from the shard cache, expanded into
// pooled scratch; a candidate scored for the first time is extracted
// here, so only merged, non-journaled candidates are ever extracted.
func (s *Store) planFresh(q entity.Record, qext features.Extracted, cands []scored, fresh []int) cascadePlan {
	sc := s.rscratch.Get().(*resolveScratch)
	defer s.rscratch.Put(sc)
	ids := make([]string, len(fresh))
	scores := make([]float64, len(fresh))
	exts, toks := sc.exts[:0], sc.toks[:0]
	for fi, ci := range fresh {
		c := &cands[ci]
		if c.ext.IsZero() {
			c.sh.extract(c)
		}
		var e features.Extracted
		e, toks = c.ext.Expand(toks)
		exts = append(exts, e)
		ids[fi] = c.rec.ID
		scores[fi] = c.score
	}
	sc.exts, sc.toks = exts, toks
	var estimateCents func(i int) float64
	if s.esc.priced {
		// Price the pair's actual prompt plus a typical completion,
		// so the cost budget tracks the configured design's real
		// prompt sizes.
		estimateCents = func(i int) float64 {
			built := s.esc.spec.Build(entity.Pair{ID: q.ID + "|" + ids[i], A: q, B: cands[fresh[i]].rec})
			return cost.PerPromptCents(s.esc.pricing,
				float64(tokenize.EstimateTokens(built)), EstCompletionTokens)
		}
	}
	plan := s.opts.Cascade.plan(qext, ids, exts, scores, estimateCents)
	plan.report.Candidates = len(cands)
	plan.report.JournalHits = len(cands) - len(fresh)
	plan.report.Priced = s.esc.priced
	return plan
}

// escalateBand is the escalate stage: the planned uncertain pairs go to
// the LLM through the escalator, which honors Cascade.Strategy and the
// reason tier and fills their decisions and the report's LLM
// accounting. The plan has already applied LLMBudget and
// MaxCentsPerResolve, so the strategy only changes how many round-trips
// the pairs cost, never which pairs are escalated. The returned
// duration sums the model-side latency the answers report, letting the
// stage observer split the escalation wall-clock into model time and
// dispatch wait.
//
// Escalations pass through the load shedder, and an unavailable
// backend — breaker open, deadline spent, retries exhausted — degrades
// the undecided pairs to deferred local verdicts instead of failing the
// Resolve. Three errors surface: resilience.ErrShed (the server is full
// — the backend is fine, so degrading would silently shed load as fake
// answers), context.Canceled (the caller gave up; there is no one to
// serve a degraded answer to, and a call that fails is never committed,
// so it queues nothing) and dispatch.ErrClosed (the store is closed, so
// no re-escalator would ever drain the queue).
func (s *Store) escalateBand(ctx context.Context, q entity.Record, cands []scored, fresh []int, plan *cascadePlan) (time.Duration, error) {
	pairs := make([]entity.Pair, len(plan.llm))
	for i, di := range plan.llm {
		pairs[i] = entity.Pair{
			ID: q.ID + "|" + cands[fresh[di]].rec.ID,
			A:  q,
			B:  cands[fresh[di]].rec,
		}
	}
	// Fast-path degrade: a known-open breaker or an already-expired
	// deadline makes the LLM attempt pointless — skip the shedder
	// queue entirely and answer locally.
	if s.res.breaker.State() == resilience.Open || ctx.Err() != nil {
		s.degrade(plan)
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
		s.degrade(plan)
		return 0, nil
	}
	defer s.res.shed.Release()
	modelLat, err := s.esc.run(ctx, pairs, plan)
	if err == nil {
		return modelLat, nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, dispatch.ErrClosed) {
		return 0, err
	}
	s.degrade(plan)
	return 0, nil
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
