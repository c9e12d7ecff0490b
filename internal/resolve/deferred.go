package resolve

import (
	"cmp"
	"context"
	"sync"

	"llm4em/internal/clock"
	"llm4em/internal/cost"
	"llm4em/internal/entity"
	"llm4em/internal/persist"
	"llm4em/internal/prompt"
	"llm4em/internal/resilience"
	"llm4em/internal/telemetry"
)

// Graceful degradation of the cascade's LLM tier. When the backend is
// unavailable — circuit breaker open, per-resolve deadline spent, or
// retries exhausted on a transient error — Resolve does not fail:
// every uncertain pair the LLM could not answer gets the local
// scorer's tentative verdict (probability against 0.5), marked
// PairDecision.Deferred, and is queued for background re-escalation.
// A deferred match is NOT folded into the entity graph (union-find
// merges cannot be undone); the union happens when the re-escalator
// obtains the real LLM verdict, so the final groups and journal
// converge to exactly what an uninterrupted run would have produced.
//
// Persistent stores journal deferred decisions like any other
// (DecisionEntry.Deferred) and journal each re-decision as an
// EntryRedecide, so the deferred queue survives restarts: replay
// rebuilds it from deferred journal entries not yet re-decided, and
// snapshots carry the queued query records (Snapshot.Deferred).
//
// Re-escalation sends each pair through the per-pair match prompt —
// identical to the healthy path under prompt.StrategyMatch, which is
// what makes the convergence byte-identical there. Under the grouped
// compare/select strategies or the reason tier a deferred pair
// re-escalates alone, so it converges to the pairwise verdict instead
// of the grouped one.

// ResilienceOptions tunes the fault-tolerance layer every store runs:
// the LLM client is wrapped in a circuit breaker, escalations pass
// through the load shedder, and unavailable-backend escalations degrade
// to deferred local verdicts instead of failing the Resolve.
type ResilienceOptions struct {
	// Enabled is ignored: the layer is always on. It remains only
	// because the benchmark's probe (bench/probe.go) still sets it, and
	// goes with the benchmark revision ROADMAP.md plans as item 1.
	Enabled bool
	// Breaker tunes the per-backend circuit breaker (zero value
	// selects the resilience package defaults). Its Clock is the
	// store's: the re-escalator, the retry backoff and the dispatcher's
	// flush run on it too.
	Breaker resilience.BreakerOptions
	// Shed tunes the escalation load shedder (zero value selects the
	// resilience package defaults). Shed rejections surface as
	// resilience.ErrShed — the caller's signal to return 503 — and do
	// NOT degrade: the backend is healthy, the server is just full.
	Shed resilience.ShedOptions
}

// pairID keys the deferred queue. A struct key keeps arbitrary
// caller-supplied IDs unambiguous — a string concatenation would
// collide for IDs containing the separator.
type pairID struct {
	query, candidate string
}

// resilienceState is the store-side of the fault-tolerance layer:
// breaker and shedder handles, the deferred queue, and the re-escalator,
// a timer on the store's clock. The queue mutex mu is a leaf lock —
// held only around queue reads and writes, never while taking another
// store lock.
type resilienceState struct {
	breaker *resilience.Breaker
	shed    *resilience.Shedder
	met     telemetry.ResilienceMetrics
	clock   clock.Clock

	mu     sync.Mutex
	queue  []persist.DeferredEntry
	queued map[pairID]bool

	// tick drains and re-arms itself, kick only drains. drainMu runs
	// one drain at a time and guards store, set while the re-escalator
	// runs (so a stopped timer the runtime still holds pins no store),
	// and stopTick. cancel ends a running drain's LLM call at Close.
	tick, kick func()
	drainMu    sync.Mutex
	store      *Store
	stopTick   func() bool
	ctx        context.Context
	cancel     context.CancelFunc
}

func newResilienceState(o ResilienceOptions, met telemetry.ResilienceMetrics) *resilienceState {
	o.Breaker.Metrics = met
	o.Breaker.Clock = cmp.Or(o.Breaker.Clock, clock.Wall)
	o.Shed.Metrics = met
	ctx, cancel := context.WithCancel(context.Background())
	rs := &resilienceState{
		breaker: resilience.NewBreaker(o.Breaker),
		shed:    resilience.NewShedder(o.Shed),
		met:     met,
		clock:   o.Breaker.Clock,
		queued:  map[pairID]bool{},
		ctx:     ctx,
		cancel:  cancel,
	}
	rs.tick, rs.kick = func() { rs.drain(true) }, func() { rs.drain(false) }
	return rs
}

// enqueue adds a pair to the deferred queue unless it is already
// queued, and schedules a drain at once.
func (rs *resilienceState) enqueue(dp persist.DeferredEntry) {
	key := pairID{query: dp.Query.ID, candidate: dp.CandidateID}
	rs.mu.Lock()
	if rs.queued[key] {
		rs.mu.Unlock()
		return
	}
	rs.queued[key] = true
	rs.queue = append(rs.queue, dp)
	depth := len(rs.queue)
	rs.mu.Unlock()
	rs.met.DeferredDepth.Set(int64(depth))
	rs.clock.AfterFunc(0, rs.kick)
}

// remove drops a pair from the queue after its re-decision committed
// (or it became undecidable). Removal after commit means a snapshot
// cut mid-redecide can hold a queue entry whose journal decision is
// already final; replay skips those (see installSnapshot).
func (rs *resilienceState) remove(key pairID) {
	rs.mu.Lock()
	for i, dp := range rs.queue {
		if dp.Query.ID == key.query && dp.CandidateID == key.candidate {
			rs.queue = append(rs.queue[:i], rs.queue[i+1:]...)
			break
		}
	}
	delete(rs.queued, key)
	depth := len(rs.queue)
	rs.mu.Unlock()
	rs.met.DeferredDepth.Set(int64(depth))
}

// head returns the oldest queued pair, if any.
func (rs *resilienceState) head() (persist.DeferredEntry, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if len(rs.queue) == 0 {
		return persist.DeferredEntry{}, false
	}
	return rs.queue[0], true
}

// depth returns the current queue length.
func (rs *resilienceState) depth() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.queue)
}

// startResilience starts the re-escalator, its first tick due at once
// for the queue recovery rebuilt. New calls it for in-memory stores;
// Open calls it only after WAL replay has rebuilt the queue: until
// then a drain returns at once, so none races recovery's lock-free
// state building.
func (s *Store) startResilience() {
	rs := s.res
	rs.drainMu.Lock()
	rs.store = s
	rs.stopTick = rs.clock.AfterFunc(0, rs.tick)
	rs.drainMu.Unlock()
}

// stopResilience stops the re-escalator's tick and waits out a running
// drain; drains scheduled later return at once. Idempotent, so a
// second Close passes straight through.
func (s *Store) stopResilience() {
	rs := s.res
	rs.cancel()
	rs.drainMu.Lock()
	defer rs.drainMu.Unlock()
	rs.store = nil
	if rs.stopTick != nil {
		rs.stopTick()
	}
}

// degrade resolves every pair the LLM pass left undecided to its
// tentative local verdict. Undecided pairs are exactly those with an
// empty Method: the local tiers and the budget stamp theirs during
// planning, and a failed escalation fills none (a failed reason tier
// leaves the first pass's decisions standing, so there is nothing to
// degrade). Queueing for re-escalation is applyResolve's: a resolve
// that never reaches the log leaves nothing for the re-escalator to
// commit.
func (s *Store) degrade(plan *cascadePlan) {
	for _, di := range plan.llm {
		d := &plan.decisions[di]
		if d.Method != "" {
			continue
		}
		d.Match = d.Probability > 0.5
		d.Method = MethodDeferred
		d.Deferred = true
		plan.report.DeferredPairs++
		s.res.met.DeferredPairs.Inc()
	}
}

// drain is the re-escalator: one drain at a time, and none before it
// starts or after Close. A tick re-arms itself one breaker cooldown on,
// to notice the breaker leaving Open, which takes a cooldown.
func (rs *resilienceState) drain(tick bool) {
	rs.drainMu.Lock()
	defer rs.drainMu.Unlock()
	if rs.store == nil {
		return
	}
	rs.store.drainDeferred()
	if tick {
		rs.stopTick = rs.clock.AfterFunc(rs.breaker.Cooldown(), rs.tick)
	}
}

// drainDeferred re-decides queued pairs, oldest first, committing each
// healthy-path verdict, until the queue is empty, the breaker is open,
// the backend fails again, or the store shuts down.
func (s *Store) drainDeferred() {
	for {
		if s.res.ctx.Err() != nil {
			return
		}
		if s.res.breaker.State() == resilience.Open {
			return
		}
		dp, ok := s.res.head()
		if !ok {
			return
		}
		if !s.redecide(dp) {
			return // backend still failing; retry next tick
		}
	}
}

// redecide sends one deferred pair through the healthy escalation
// path and commits the verdict like a resolve (commit.go): WAL append
// (EntryRedecide), applyRedecide, cadences. Returns false when the LLM
// call or the append failed and the pair should stay queued.
func (s *Store) redecide(dp persist.DeferredEntry) bool {
	cand, ok := s.Record(dp.CandidateID)
	if !ok {
		// The candidate left the store (records are never deleted
		// today, so this is future-proofing): drop the entry rather
		// than retrying forever.
		s.res.remove(pairID{query: dp.Query.ID, candidate: dp.CandidateID})
		return true
	}
	pair := entity.Pair{ID: dp.Query.ID + "|" + dp.CandidateID, A: dp.Query, B: cand}
	// This is the one path to the model that bypasses a dispatcher, on
	// purpose: the verdict is the per-pair prompt's own answer, never a
	// batch position's, which keeps convergence byte-identical.
	resp, _, err := s.esc.eng.CompleteContext(s.res.ctx, s.esc.spec.Build(pair))
	if err != nil {
		return false
	}
	e := persist.RedecideEntry{
		QueryID: dp.Query.ID,
		Decision: persist.DecisionEntry{
			CandidateID: dp.CandidateID,
			BlockScore:  dp.BlockScore,
			Probability: dp.Probability,
			Match:       prompt.ParseAnswer(resp.Content),
			Method:      string(MethodLLM),
			Answer:      resp.Content,
		},
		PromptTokens:     resp.PromptTokens,
		CompletionTokens: resp.CompletionTokens,
	}
	if s.esc.priced {
		e.Cents = cost.PerPromptCents(s.esc.pricing,
			float64(resp.PromptTokens), float64(resp.CompletionTokens))
	}
	if s.wal != nil {
		s.persistMu.Lock()
		defer s.persistMu.Unlock()
		if s.pstate.closed {
			return false
		}
		e.Seq = int(s.lifetime().redecided) + 1
		payload, err := persist.EncodeRedecide(e)
		if err == nil {
			err = s.wal.Append(persist.EntryRedecide, payload)
		}
		if err != nil {
			return false
		}
	}
	s.applyRedecide(e, true)
	s.res.met.Redecided.Inc()
	if s.wal != nil {
		// The re-decision is committed: a failed sync or checkpoint is
		// logged and retried by the next append's cadence, not by
		// re-deciding the pair.
		if err := s.afterAppendLocked(1); err != nil {
			s.opts.Telemetry.Warn("re-decision committed, but its sync or checkpoint failed", err)
		}
	}
	return true
}

// Degraded names the store's degraded condition for readiness
// reporting: "llm_breaker_open" while the circuit breaker is open
// (local resolution still serves, LLM verdicts are deferred), ""
// when healthy.
func (s *Store) Degraded() string {
	if s.res.breaker.State() == resilience.Open {
		return "llm_breaker_open"
	}
	return ""
}

// ResilienceStats snapshots the fault-tolerance layer of a store.
type ResilienceStats struct {
	// BreakerState is the circuit breaker's current state ("closed",
	// "half-open", "open"); BreakerTrips counts closed→open
	// transitions.
	BreakerState string
	BreakerTrips uint64
	// Shed counts escalations rejected by the load shedder; InFlight
	// and Waiting are its current occupancy.
	Shed     uint64
	InFlight int
	Waiting  int
	// DeferredQueue is the number of pairs currently awaiting
	// re-escalation; DeferredPairs and Redecided are the lifetime
	// deferred and re-decided totals.
	DeferredQueue int
	DeferredPairs uint64
	Redecided     uint64
}
