package cost

// Report is the store's ledger, declared once and used in three roles:
// the account of one Resolve call (resolve.CostReport), the store's
// lifetime totals (embedded in resolve.Stats), and the cost payload of
// a WAL resolve entry and of snapshot.json (persist.ReportEntry). The
// JSON tags and the field order are the on-disk format of the last
// role; Add is the only fold between the roles.
type Report struct {
	// Candidates is the number of candidate pairs blocking produced.
	Candidates int `json:"candidates"`
	// LocalAccepts and LocalRejects are pairs the local scorer decided
	// confidently.
	LocalAccepts int `json:"local_accepts"`
	LocalRejects int `json:"local_rejects"`
	// LLMPairs is the number of pairs escalated to the LLM.
	LLMPairs int `json:"llm_pairs"`
	// BudgetDecided is the number of uncertain pairs decided locally
	// because the LLM or cost budget was exhausted.
	BudgetDecided int `json:"budget_decided"`
	// JournalHits is the number of pairs replayed from the durable
	// decision journal of a persistent store.
	JournalHits int `json:"journal_hits"`
	// PromptTokens and CompletionTokens sum the LLM usage (cached
	// decisions carry the accounting of the original request).
	PromptTokens     int `json:"prompt_tokens"`
	CompletionTokens int `json:"completion_tokens"`
	// Cents is the estimated spend under the client's hosted pricing.
	Cents float64 `json:"cents"`
	// BatchedPairs counts LLM pairs answered from a cross-request
	// batched prompt; BatchFallbacks pairs answered by an individual
	// per-pair prompt after their batched reply failed to parse cleanly.
	// Absent (like every omitempty field below) in logs older than the
	// feature, so old and new builds stay interchangeable.
	BatchedPairs   int `json:"batched_pairs,omitempty"`
	BatchFallbacks int `json:"batch_fallbacks,omitempty"`
	// DeferredPairs is the number of uncertain pairs degraded to their
	// tentative local verdict because the LLM backend was unavailable.
	DeferredPairs int `json:"deferred_pairs,omitempty"`
	// GroupFallbacks counts pairs answered by an individual pairwise
	// prompt after their grouped compare/select reply failed strict
	// parsing.
	GroupFallbacks int `json:"group_fallbacks,omitempty"`
	// MatchUsage, CompareUsage, SelectUsage and ReasonUsage split the
	// LLM activity by the prompt strategy that produced it: pairwise
	// match prompts (including batch-dispatcher traffic and
	// grouped-reply fallbacks), grouped compare prompts, grouped select
	// prompts, and reason-tier prompts. Reading Calls against Pairs
	// shows the grouped strategies' saving — one call deciding several
	// pairs.
	MatchUsage   Usage `json:"strategy_match"`
	CompareUsage Usage `json:"strategy_compare"`
	SelectUsage  Usage `json:"strategy_select"`
	ReasonUsage  Usage `json:"strategy_reason"`

	// The remaining fields describe one call only and are never
	// persisted (see Persisted). CacheHits counts escalated pairs
	// answered by the prompt cache rather than a fresh client call.
	// Batches is the number of distinct batched round-trips the call's
	// BatchedPairs rode; batches are shared across concurrent calls, so
	// summing it over calls can exceed the dispatcher's own round-trip
	// count. Priced reports whether a price entry exists for the model;
	// Add leaves it alone.
	CacheHits int  `json:"-"`
	Batches   int  `json:"-"`
	Priced    bool `json:"-"`
}

// Usage accounts one prompt strategy's share of a Report.
type Usage struct {
	// Calls is the number of fresh client round-trips the strategy
	// issued; cache-served answers cost none, and a grouped or batched
	// prompt counts once however many pairs rode it.
	Calls int `json:"calls,omitempty"`
	// Pairs is the number of pair decisions the strategy produced.
	Pairs int `json:"pairs,omitempty"`
	// PromptTokens and CompletionTokens sum the strategy's share of
	// the LLM usage.
	PromptTokens     int `json:"prompt_tokens,omitempty"`
	CompletionTokens int `json:"completion_tokens,omitempty"`
}

func (u *Usage) add(o Usage) {
	u.Calls += o.Calls
	u.Pairs += o.Pairs
	u.PromptTokens += o.PromptTokens
	u.CompletionTokens += o.CompletionTokens
}

// Add folds another report's counters into r.
func (r *Report) Add(o Report) {
	r.Candidates += o.Candidates
	r.LocalAccepts += o.LocalAccepts
	r.LocalRejects += o.LocalRejects
	r.LLMPairs += o.LLMPairs
	r.BudgetDecided += o.BudgetDecided
	r.JournalHits += o.JournalHits
	r.PromptTokens += o.PromptTokens
	r.CompletionTokens += o.CompletionTokens
	r.Cents += o.Cents
	r.BatchedPairs += o.BatchedPairs
	r.BatchFallbacks += o.BatchFallbacks
	r.DeferredPairs += o.DeferredPairs
	r.GroupFallbacks += o.GroupFallbacks
	r.MatchUsage.add(o.MatchUsage)
	r.CompareUsage.add(o.CompareUsage)
	r.SelectUsage.add(o.SelectUsage)
	r.ReasonUsage.add(o.ReasonUsage)
	r.CacheHits += o.CacheHits
	r.Batches += o.Batches
}

// Persisted returns the part of r the WAL and the snapshot carry. The
// store's lifetime totals fold only this, so they read the same before
// and after a restart.
func (r Report) Persisted() Report {
	r.CacheHits, r.Batches, r.Priced = 0, 0, false
	return r
}

// LocalFraction returns the fraction of candidate pairs decided
// without an LLM call — the cascade's saving.
func (r Report) LocalFraction() float64 {
	if r.Candidates == 0 {
		return 1
	}
	return 1 - float64(r.LLMPairs)/float64(r.Candidates)
}
