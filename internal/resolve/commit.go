package resolve

import (
	"fmt"

	"llm4em/internal/cost"
	"llm4em/internal/persist"
	"llm4em/internal/telemetry"
)

// entryOf is a decision in its journal form.
func entryOf(d PairDecision) persist.DecisionEntry {
	return persist.DecisionEntry{
		CandidateID: d.CandidateID,
		BlockScore:  d.BlockScore,
		Probability: d.Probability,
		Match:       d.Match,
		Method:      string(d.Method),
		Answer:      d.Answer,
		Deferred:    d.Deferred,
	}
}

// decisionOf is a journaled decision as a Resolve call reports it.
func decisionOf(e persist.DecisionEntry) PairDecision {
	return PairDecision{
		CandidateID: e.CandidateID,
		BlockScore:  e.BlockScore,
		Probability: e.Probability,
		Match:       e.Match,
		Method:      Method(e.Method),
		Answer:      e.Answer,
		Deferred:    e.Deferred,
	}
}

// commit is the last stage of a Resolve call: it makes res.Decisions
// take effect and fills res.EntityID and res.Members. On a persistent
// store the order is encode, WAL append, apply, cadences; an error from
// the first two means nothing was applied and the log rolled back, so
// the call can be retried, while an error from the cadences (fsync,
// checkpoint) reports a resolve that is applied and in the log.
func (s *Store) commit(res *Result, obs *stageObserver) error {
	if s.wal == nil {
		s.applyResolve(res, nil, true)
		obs.lap(telemetry.StageFold)
		return nil
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	entry := persist.ResolveEntry{
		Seq:    int(s.lifetime().resolves) + 1,
		Query:  res.Query,
		Report: res.Cost,
		// Journal hits were logged by the entry that first decided them.
		Decisions: make([]persist.DecisionEntry, 0, len(res.Decisions)),
	}
	for _, d := range res.Decisions {
		if !d.Journaled {
			entry.Decisions = append(entry.Decisions, entryOf(d))
		}
	}
	payload, err := persist.EncodeResolve(entry)
	if err == nil {
		err = s.wal.Append(persist.EntryResolve, payload)
	}
	obs.lap(telemetry.StagePersist)
	if err == nil {
		s.applyResolve(res, entry.Decisions, true)
		obs.lap(telemetry.StageFold)
		err = s.afterAppendLocked(1)
		obs.lap(telemetry.StagePersist)
	}
	if err != nil {
		return fmt.Errorf("resolve: journal decisions for %q: %w", res.Query.ID, err)
	}
	return nil
}

// applyResolve folds one resolve into the store: the query joins the
// entity of every candidate it matched, the fresh decisions (fresh, in
// their journal form: nil in memory) enter the decision journal, the
// report joins the lifetime totals unless a snapshot already counted it,
// and the deferred pairs queue for re-escalation. It fills res.EntityID
// and res.Members with the graph as the fold left it. Caller holds
// persistMu on a persistent store.
func (s *Store) applyResolve(res *Result, fresh []persist.DecisionEntry, counted bool) {
	q := res.Query.ID
	s.graphMu.Lock()
	s.graph.Add(q)
	for _, d := range res.Decisions {
		// A deferred match is tentative and stays out of the graph:
		// union-find merges cannot be undone, so the union waits for the
		// re-escalator's real verdict (applyRedecide).
		if d.Match && !d.Deferred {
			s.graph.Union(q, d.CandidateID)
		}
	}
	res.EntityID, _ = s.graph.Find(q)
	res.Members = s.graph.Members(q)
	s.graphMu.Unlock()

	s.journalDecisions(q, fresh)
	if counted {
		s.statsMu.Lock()
		s.totals.resolves++
		s.totals.report.Add(res.Cost.Persisted())
		s.statsMu.Unlock()
	}
	if s.res == nil {
		return
	}
	for _, d := range res.Decisions {
		if d.Deferred && !d.Journaled {
			s.res.enqueue(deferredPair{
				query:       res.Query,
				candidateID: d.CandidateID,
				blockScore:  d.BlockScore,
				probability: d.Probability,
			})
		}
	}
}

// applyRedecide folds the re-escalator's verdict on a deferred pair
// into the store: it overwrites the pair's journal entry, unions a
// match into the entity graph, counts the usage unless a snapshot
// already did, and takes the pair off the deferred queue. Caller holds
// persistMu on a persistent store.
func (s *Store) applyRedecide(e persist.RedecideEntry, counted bool) {
	if s.wal != nil {
		s.journalDecisions(e.QueryID, []persist.DecisionEntry{e.Decision})
	}
	if e.Decision.Match {
		s.graphMu.Lock()
		s.graph.Union(e.QueryID, e.Decision.CandidateID)
		s.graphMu.Unlock()
	}
	if counted {
		s.statsMu.Lock()
		s.totals.redecided++
		s.totals.report.Add(cost.Report{
			PromptTokens: e.PromptTokens, CompletionTokens: e.CompletionTokens, Cents: e.Cents})
		s.statsMu.Unlock()
	}
	if s.res != nil {
		s.res.remove(pairID{query: e.QueryID, candidate: e.Decision.CandidateID})
	}
}

// journalDecisions installs a query's decisions into the in-memory
// journal and queues them for journal.log. Caller holds persistMu.
func (s *Store) journalDecisions(query string, ds []persist.DecisionEntry) {
	for _, d := range ds {
		s.journal[pairID{query: query, candidate: d.CandidateID}] = d
	}
	if len(ds) > 0 {
		s.pstate.journalDelta = append(s.pstate.journalDelta, persist.JournalFrame(query, ds))
	}
}

// afterAppendLocked runs the sync and snapshot cadences after a WAL
// append of n entries. Caller holds persistMu.
func (s *Store) afterAppendLocked(n int) error {
	s.pstate.sinceSnapshot += n
	s.pstate.sinceSync += n
	if s.opts.SyncEvery > 0 && s.pstate.sinceSync >= s.opts.SyncEvery {
		if err := s.wal.Sync(); err != nil {
			return err
		}
		s.pstate.sinceSync = 0
	}
	if s.opts.SnapshotEvery > 0 && s.pstate.sinceSnapshot >= s.opts.SnapshotEvery {
		return s.checkpointLocked()
	}
	return nil
}
