package resolve

import (
	"time"

	"llm4em/internal/telemetry"
)

// stageObserver times the stages of one Resolve call into the store's
// telemetry handle and the request's context trace. It is a plain
// stack value inside ResolveContext: stage durations accumulate in a
// fixed array, histograms are pre-bound, and the finishing slow-log
// check passes the array by value — nothing here forces a heap
// allocation, which is what keeps the instrumented hot path at the
// PR 4 allocation budget. With telemetry disabled and no inbound
// trace the observer is inert: no clock reads, only nil checks.
type stageObserver struct {
	tel   *telemetry.Telemetry
	tr    *telemetry.Trace
	start time.Time
	last  time.Time
	durs  telemetry.StageDurations
	// seen marks the stages the call went through: finish observes each
	// one's histogram once, however many laps fed it (commit laps persist
	// on either side of fold).
	seen uint32
}

// newStageObserver builds the observer for one call, picking up the
// context trace (if the HTTP layer attached one).
func (s *Store) newStageObserver(tr *telemetry.Trace) stageObserver {
	o := stageObserver{tel: s.opts.Telemetry, tr: tr}
	if o.active() {
		o.start = time.Now()
		o.last = o.start
	}
	return o
}

// active reports whether any sink wants stage timings.
func (o *stageObserver) active() bool { return o.tel != nil || o.tr != nil }

// lap closes the span since the previous lap and attributes it to the
// stage.
func (o *stageObserver) lap(st telemetry.Stage) {
	if !o.active() {
		return
	}
	now := time.Now()
	o.add(st, now.Sub(o.last))
	o.last = now
}

// lapLLM closes the span since the previous lap — the whole
// escalation — splitting it into model-side time (StageLLM, bounded
// by the wall clock) and everything else: queueing for batch-mates,
// flush waits, scheduling (StageDispatchWait).
func (o *stageObserver) lapLLM(modelLatency time.Duration) {
	if !o.active() {
		return
	}
	now := time.Now()
	d := now.Sub(o.last)
	o.last = now
	if modelLatency > d {
		modelLatency = d
	}
	o.add(telemetry.StageLLM, modelLatency)
	o.add(telemetry.StageDispatchWait, d-modelLatency)
}

// add attributes a duration to a stage.
func (o *stageObserver) add(st telemetry.Stage, d time.Duration) {
	o.durs[st] += d
	o.seen |= 1 << st
	o.tr.Add(st, d)
}

// finish records the stage histograms and the call-level counters and
// runs the slow-resolve check. err is the call's outcome; report may be
// zero on failures.
func (o *stageObserver) finish(queryID string, report CostReport, err error) {
	if o.tel == nil {
		return
	}
	t := o.tel
	t.ResolveTotal.Inc()
	if err != nil {
		t.ResolveErrors.Inc()
	}
	total := time.Since(o.start)
	t.ResolveSeconds.Observe(total.Seconds())
	for st, d := range o.durs {
		if o.seen&(1<<st) != 0 {
			t.Stage[st].Observe(d.Seconds())
		}
	}
	t.Candidates.Add(uint64(report.Candidates))
	t.OutcomeAccept.Add(uint64(report.LocalAccepts))
	t.OutcomeReject.Add(uint64(report.LocalRejects))
	t.OutcomeLLM.Add(uint64(report.LLMPairs))
	t.OutcomeBudget.Add(uint64(report.BudgetDecided))
	t.OutcomeJournal.Add(uint64(report.JournalHits))
	t.StrategyMatch.Add(uint64(report.MatchUsage.Calls))
	t.StrategyCompare.Add(uint64(report.CompareUsage.Calls))
	t.StrategySelect.Add(uint64(report.SelectUsage.Calls))
	t.StrategyReason.Add(uint64(report.ReasonUsage.Calls))
	t.MaybeLogSlow(o.tr.ID(), queryID, total, o.durs)
}

// Live reports whether the store can still serve mutations: false
// once the dispatcher or the WAL has been closed. Readiness/health
// endpoints poll it; an in-memory store without a dispatcher is
// always live (it has no closable parts).
func (s *Store) Live() bool {
	if s.disp != nil && s.disp.Closed() {
		return false
	}
	if s.wal != nil {
		s.persistMu.Lock()
		closed := s.pstate.closed
		s.persistMu.Unlock()
		if closed {
			return false
		}
	}
	return true
}
