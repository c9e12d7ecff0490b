package resolve

import (
	"llm4em/internal/cost"
	"llm4em/internal/dispatch"
	"llm4em/internal/pipeline"
)

// totals are the store-lifetime counters, guarded by graphMu. Only
// applyResolve and applyRedecide change them once the store is open,
// in the graphMu section that folds the same decisions into the graph.
type totals struct {
	resolves  uint64
	redecided uint64
	report    cost.Report
}

// lifetime returns a copy of the lifetime counters.
func (s *Store) lifetime() totals {
	s.graphMu.Lock()
	defer s.graphMu.Unlock()
	return s.totals
}

// Stats is a snapshot of the store's lifetime counters.
type Stats struct {
	// Records is the number of stored (indexed) records; Entities the
	// number of entity groups, which also counts resolved queries.
	Records  int
	Entities int
	// Extractions is the number of records whose feature extraction is
	// resident: the stored records a resolve has scored as a candidate
	// (merged into its top-K and not answered by the journal) since the
	// store was built or opened.
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
	// Dispatch reports the micro-batching dispatcher's counters.
	Dispatch dispatch.Stats
	// Persist reports the durability side: recovery counts, WAL and
	// snapshot activity. Persist.Enabled is false for in-memory
	// stores.
	Persist PersistStats
	// Resilience reports the fault-tolerance layer: breaker state,
	// shed count, deferred queue depth.
	Resilience ResilienceStats
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	// persistStats locks persistMu, which must never be acquired with
	// graphMu held — gather it first.
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
	t := s.totals
	s.graphMu.Unlock()
	entities := len(groups) + records
	for _, g := range groups {
		for _, id := range g {
			if s.stored(id) {
				entities--
			}
		}
	}

	st := Stats{
		Records:     records,
		Entities:    entities,
		Extractions: cached,
		Resolves:    t.resolves,
		Redecided:   t.redecided,
		Report:      t.report,
		Engine:      s.esc.eng.Stats(),
		Dispatch:    s.esc.disp.Stats(),
		Persist:     ps,
		Resilience: ResilienceStats{
			BreakerState:  s.res.breaker.State().String(),
			BreakerTrips:  s.res.breaker.Trips(),
			Shed:          s.res.shed.Shed(),
			InFlight:      s.res.shed.InFlight(),
			Waiting:       s.res.shed.Waiting(),
			DeferredQueue: s.res.depth(),
			DeferredPairs: uint64(t.report.DeferredPairs),
			Redecided:     t.redecided,
		},
	}
	st.Priced = s.esc.priced
	return st
}
