package resolve

import (
	"context"
	"sync"
	"time"

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
	// selects the resilience package defaults).
	Breaker resilience.BreakerOptions
	// Shed tunes the escalation load shedder (zero value selects the
	// resilience package defaults). Shed rejections surface as
	// resilience.ErrShed — the caller's signal to return 503 — and do
	// NOT degrade: the backend is healthy, the server is just full.
	Shed resilience.ShedOptions
}

// deferredPair is one queued pair awaiting re-escalation. The full
// query record rides along because re-escalation must rebuild the
// pair's prompt after the Resolve call (and possibly the process)
// that deferred it is gone.
type deferredPair struct {
	query       entity.Record
	candidateID string
	blockScore  float64
	probability float64
}

// pairID keys the deferred queue. A struct key keeps arbitrary
// caller-supplied IDs unambiguous — a string concatenation would
// collide for IDs containing the separator.
type pairID struct {
	query, candidate string
}

// resilienceState is the store-side of the fault-tolerance layer:
// breaker and shedder handles, the deferred queue, and the background
// re-escalator's lifecycle. The queue mutex mu is a leaf lock — held
// only around queue reads and writes, never while taking another
// store lock.
type resilienceState struct {
	breaker *resilience.Breaker
	shed    *resilience.Shedder
	met     telemetry.ResilienceMetrics

	mu     sync.Mutex
	queue  []deferredPair
	queued map[pairID]bool

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
	// ctx is cancelled together with stop; re-escalation LLM calls run
	// under it so a hung backend never blocks Close.
	ctx       context.Context
	cancel    context.CancelFunc
	started   bool
	startOnce sync.Once
	stopOnce  sync.Once
}

func newResilienceState(o ResilienceOptions, met telemetry.ResilienceMetrics) *resilienceState {
	o.Breaker.Metrics = met
	o.Shed.Metrics = met
	ctx, cancel := context.WithCancel(context.Background())
	return &resilienceState{
		breaker: resilience.NewBreaker(o.Breaker),
		shed:    resilience.NewShedder(o.Shed),
		met:     met,
		queued:  map[pairID]bool{},
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		ctx:     ctx,
		cancel:  cancel,
	}
}

// enqueue adds a pair to the deferred queue unless it is already
// queued, and wakes the re-escalator.
func (rs *resilienceState) enqueue(dp deferredPair) {
	key := pairID{query: dp.query.ID, candidate: dp.candidateID}
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
	select {
	case rs.wake <- struct{}{}:
	default:
	}
}

// remove drops a pair from the queue after its re-decision committed
// (or it became undecidable). Removal after commit means a snapshot
// cut mid-redecide can hold a queue entry whose journal decision is
// already final; replay skips those (see installSnapshot).
func (rs *resilienceState) remove(key pairID) {
	rs.mu.Lock()
	for i, dp := range rs.queue {
		if dp.query.ID == key.query && dp.candidateID == key.candidate {
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
func (rs *resilienceState) head() (deferredPair, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if len(rs.queue) == 0 {
		return deferredPair{}, false
	}
	return rs.queue[0], true
}

// depth returns the current queue length.
func (rs *resilienceState) depth() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.queue)
}

// startResilience launches the background re-escalator. New calls it
// for in-memory stores; Open calls it only after WAL replay has
// rebuilt the queue, so the drain never races recovery's lock-free
// state building.
func (s *Store) startResilience() {
	s.res.startOnce.Do(func() {
		s.res.started = true
		go s.reescalate()
	})
}

// stopResilience shuts the re-escalator down and waits for it.
func (s *Store) stopResilience() {
	s.res.stopOnce.Do(func() {
		close(s.res.stop)
		s.res.cancel()
	})
	if s.res.started {
		<-s.res.done
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

// reescalate is the background drain loop: whenever the breaker is
// not open it re-sends queued pairs to the LLM, oldest first, and
// commits each healthy-path verdict. Runs until Close. An enqueue wakes
// it at once; the tick is there to notice the breaker leaving Open,
// which takes a cooldown, so it fires once per breaker cooldown.
func (s *Store) reescalate() {
	defer close(s.res.done)
	t := time.NewTicker(s.res.breaker.Cooldown())
	defer t.Stop()
	for {
		select {
		case <-s.res.stop:
			return
		case <-t.C:
		case <-s.res.wake:
		}
		s.drainDeferred()
	}
}

// drainDeferred re-decides queued pairs until the queue is empty, the
// backend fails again, or the store shuts down.
func (s *Store) drainDeferred() {
	for {
		select {
		case <-s.res.stop:
			return
		default:
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
func (s *Store) redecide(dp deferredPair) bool {
	cand, ok := s.Record(dp.candidateID)
	if !ok {
		// The candidate left the store (records are never deleted
		// today, so this is future-proofing): drop the entry rather
		// than retrying forever.
		s.res.remove(pairID{query: dp.query.ID, candidate: dp.candidateID})
		return true
	}
	pair := entity.Pair{ID: dp.query.ID + "|" + dp.candidateID, A: dp.query, B: cand}
	// This is the one path to the model that bypasses a dispatcher, on
	// purpose: the verdict is the per-pair prompt's own answer, never a
	// batch position's, which keeps convergence byte-identical.
	resp, _, err := s.esc.eng.CompleteContext(s.res.ctx, s.esc.spec.Build(pair))
	if err != nil {
		return false
	}
	e := persist.RedecideEntry{
		QueryID: dp.query.ID,
		Decision: persist.DecisionEntry{
			CandidateID: dp.candidateID,
			BlockScore:  dp.blockScore,
			Probability: dp.probability,
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
