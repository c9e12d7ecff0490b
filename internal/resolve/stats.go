package resolve

import (
	"llm4em/internal/cost"
	"llm4em/internal/dispatch"
	"llm4em/internal/pipeline"
)

// totals are the store-lifetime counters, guarded by statsMu. Only
// applyResolve and applyRedecide change them once the store is open.
type totals struct {
	resolves  uint64
	redecided uint64
	report    cost.Report
}

// lifetime returns a copy of the lifetime counters.
func (s *Store) lifetime() totals {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.totals
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
	// Resolves is the number of Resolve calls served; Redecided the
	// number of deferred pairs the background re-escalator has since
	// settled with a real LLM verdict. Both survive restarts.
	Resolves  uint64
	Redecided uint64
	// Report is the lifetime ledger: the persisted part of every served
	// call's CostReport (so CacheHits and Batches stay zero) plus the
	// usage of the re-decisions. Its fields and LocalFraction read as
	// Stats' own; Priced reports whether the model has hosted pricing.
	cost.Report
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

	t := s.lifetime()
	st := Stats{
		Records:     records,
		Entities:    entities,
		Extractions: cached,
		Resolves:    t.resolves,
		Redecided:   t.redecided,
		Report:      t.report,
		Engine:      s.eng.Stats(),
		Persist:     ps,
	}
	st.Priced = s.priced
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
			DeferredPairs: uint64(t.report.DeferredPairs),
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
