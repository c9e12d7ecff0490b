package resolve

import (
	"sort"

	"llm4em/internal/cost"
	"llm4em/internal/features"
	"llm4em/internal/prompt"
)

// Cascade threshold defaults: candidate pairs whose locally computed
// match probability falls outside [DefaultRejectBelow,
// DefaultAcceptAbove] are decided without a model call.
const (
	DefaultAcceptAbove = 0.90
	DefaultRejectBelow = 0.15
)

// CascadeOptions tunes the cascade matcher: a calibrated local scorer
// (features.Weights over the pair feature vector) answers the
// confident pairs, and only the uncertain band between the thresholds
// is escalated to the LLM. This is the composite-matcher deployment
// shape of the related work — cheap scorer first, model calls reserved
// for pairs the scorer cannot settle.
type CascadeOptions struct {
	// AcceptAbove accepts a pair locally when its probability is at
	// least this value (default DefaultAcceptAbove). The zero value
	// selects the default; a negative value escalates every
	// non-rejected pair.
	AcceptAbove float64
	// RejectBelow rejects a pair locally when its probability is at
	// most this value (default DefaultRejectBelow; negative selects a
	// literal zero, i.e. never reject locally on the low side unless
	// the probability is exactly zero).
	RejectBelow float64
	// Weights are the local scorer's calibrated weights (nil selects
	// features.Ideal).
	Weights *features.Weights
	// LLMBudget caps how many uncertain pairs one Resolve call may send
	// to the LLM; the hardest pairs (probability closest to 0.5) get
	// the budget, the rest are decided locally at probability 0.5. Zero
	// means unlimited; negative means no LLM calls at all.
	LLMBudget int
	// MaxCentsPerResolve caps the estimated spend of one Resolve call
	// in US cents for clients with hosted pricing: LLM escalation stops
	// once the estimate reaches the cap. The estimate prices each
	// pair's actual built prompt plus a typical completion size, so
	// the billed amount can differ slightly for verbose models. Zero
	// or negative means uncapped, as does a client without a price
	// entry.
	MaxCentsPerResolve float64
	// Disable routes every candidate pair to the LLM, bypassing the
	// local scorer — the no-cascade baseline.
	Disable bool
	// Strategy selects the prompt formulation for the uncertain band
	// ("Match, Compare, or Select?", Wang et al.): StrategyMatch (the
	// zero value) sends one independent pairwise prompt per uncertain
	// pair; StrategyCompare and StrategySelect answer all of a query's
	// uncertain pairs with a single grouped prompt — one LLM call per
	// escalated query instead of one per pair — with strict parsing
	// and per-pair pairwise fallback when a reply is malformed.
	Strategy prompt.Strategy
	// ReasonTier escalates pairs whose first-pass LLM verdict
	// conflicts with the local scorer's probability — the pairs the
	// first pass left least settled — into a structured multi-step
	// reasoning prompt (Bopardikar et al.) whose verdict replaces the
	// first-pass decision. Works under every Strategy.
	ReasonTier bool
}

func (o CascadeOptions) acceptAbove() float64 {
	if o.AcceptAbove < 0 {
		return 1.01 // never accept locally
	}
	if o.AcceptAbove == 0 {
		return DefaultAcceptAbove
	}
	return o.AcceptAbove
}

func (o CascadeOptions) rejectBelow() float64 {
	if o.RejectBelow < 0 {
		return 0
	}
	if o.RejectBelow == 0 {
		return DefaultRejectBelow
	}
	return o.RejectBelow
}

func (o CascadeOptions) strategy() prompt.Strategy {
	if o.Strategy == "" {
		return prompt.StrategyMatch
	}
	return o.Strategy
}

func (o CascadeOptions) weights() features.Weights {
	if o.Weights != nil {
		return *o.Weights
	}
	return features.Ideal()
}

// Method records which stage of the cascade decided a pair.
type Method string

// Cascade decision methods.
const (
	// MethodAccept: the local scorer was confident the pair matches.
	MethodAccept Method = "cascade-accept"
	// MethodReject: the local scorer was confident the pair differs.
	MethodReject Method = "cascade-reject"
	// MethodLLM: the pair was in the uncertain band and an LLM decided.
	MethodLLM Method = "llm"
	// MethodBudget: the pair was uncertain but the LLM budget was
	// exhausted, so the local probability decided at 0.5.
	MethodBudget Method = "budget-local"
	// MethodCompare and MethodSelect: a grouped compare/select prompt
	// over the query's whole uncertain candidate set decided the pair.
	// A grouped reply that failed strict parsing degrades its pairs to
	// individual pairwise prompts, recorded as MethodLLM.
	MethodCompare Method = "llm-compare"
	MethodSelect  Method = "llm-select"
	// MethodReason: the reason tier's structured multi-step reasoning
	// prompt re-decided the pair after the first LLM pass.
	MethodReason Method = "llm-reason"
	// MethodDeferred: the pair was in the uncertain band but the LLM
	// backend was unavailable (breaker open, deadline spent, or retries
	// exhausted), so the local probability decided at 0.5 tentatively.
	// The pair is queued for background re-escalation; its decision
	// carries Deferred=true until an EntryRedecide replaces it.
	MethodDeferred Method = "deferred-local"
)

// Journaled decisions keep the Method of the stage that originally
// decided them; the PairDecision.Journaled flag marks the replay.

// PairDecision is the outcome of one candidate pair within a Resolve
// call.
type PairDecision struct {
	// CandidateID is the stored record the query was compared to.
	CandidateID string
	// BlockScore is the summed-IDF blocking score of the candidate.
	BlockScore float64
	// Probability is the local scorer's calibrated match probability.
	Probability float64
	// Match is the final decision.
	Match bool
	// Method is the cascade stage that decided.
	Method Method
	// Answer is the LLM's raw reply for MethodLLM decisions, "".
	Answer string
	// Cached reports whether an LLM decision came from the prompt
	// cache.
	Cached bool
	// Batched reports that the LLM decision rode a cross-request
	// batched prompt (Options.DispatchPairs) rather than its own
	// round-trip. Like Cached it is transport accounting: which batch
	// a pair lands in depends on concurrent traffic, the decision
	// content does not.
	Batched bool
	// Journaled reports that the decision was replayed from the
	// durable decision journal of a persistent store — no scoring and
	// no LLM call happened in this Resolve; Method and Answer are
	// those of the original decision.
	Journaled bool
	// Deferred reports a tentative verdict issued while the LLM
	// backend was unavailable: the local scorer decided at probability
	// 0.5 and the pair was queued for background re-escalation. A
	// deferred match is NOT folded into the entity graph until the
	// re-escalator confirms it — union-find merges cannot be undone.
	Deferred bool
}

// CostReport accounts one Resolve call: how the cascade split the
// candidate pairs and what the LLM share cost. It is the ledger type
// the store's lifetime totals and the WAL also use (see cost.Report).
type CostReport = cost.Report

// StrategyUsage accounts one prompt strategy's share of a Resolve
// call (or, in Stats, of the store's lifetime).
type StrategyUsage = cost.Usage

// cascadePlan partitions scored candidate pairs into locally decided
// ones and the LLM band, honoring thresholds and budget.
type cascadePlan struct {
	decisions []PairDecision // Method/Match filled for local ones
	llm       []int          // indices into decisions to escalate
	report    CostReport
}

// plan scores each candidate pair with the local scorer and decides
// which stage answers it. query is the extraction of the serialized
// query (computed once per Resolve); candExts/candIDs/blockScores
// describe the candidates in rank order, with extractions served from
// the store's per-record cache. estimateCents prices one pair's
// prospective LLM call for the cost budget; nil disables the cost cap
// (no hosted pricing).
func (o CascadeOptions) plan(query features.Extracted, candIDs []string, candExts []*features.Extracted, blockScores []float64, estimateCents func(i int) float64) cascadePlan {
	p := cascadePlan{decisions: make([]PairDecision, len(candIDs))}
	p.report.Candidates = len(candIDs)

	accept, reject := o.acceptAbove(), o.rejectBelow()
	ws := o.weights()
	var uncertain []int
	for i, id := range candIDs {
		v, pres := features.PairFeatures(query, *candExts[i])
		prob := ws.Probability(v, pres)
		d := PairDecision{
			CandidateID: id,
			BlockScore:  blockScores[i],
			Probability: prob,
		}
		switch {
		case o.Disable:
			uncertain = append(uncertain, i)
		case prob >= accept:
			d.Match = true
			d.Method = MethodAccept
			p.report.LocalAccepts++
		case prob <= reject:
			d.Match = false
			d.Method = MethodReject
			p.report.LocalRejects++
		default:
			uncertain = append(uncertain, i)
		}
		p.decisions[i] = d
	}

	// Spend the LLM budget on the hardest pairs first: closest to
	// probability 0.5, ties broken by candidate rank for determinism.
	sort.SliceStable(uncertain, func(a, b int) bool {
		da := hardness(p.decisions[uncertain[a]].Probability)
		db := hardness(p.decisions[uncertain[b]].Probability)
		if da != db {
			return da < db
		}
		return uncertain[a] < uncertain[b]
	})
	maxPairs := len(uncertain)
	if o.LLMBudget > 0 && o.LLMBudget < maxPairs {
		maxPairs = o.LLMBudget
	}
	if o.LLMBudget < 0 {
		maxPairs = 0
	}
	spentCents, capped := 0.0, false
	for _, di := range uncertain {
		take := len(p.llm) < maxPairs && !capped
		if take && o.MaxCentsPerResolve > 0 && estimateCents != nil {
			if c := estimateCents(di); spentCents+c > o.MaxCentsPerResolve {
				// Remaining pairs are at least as cheap only by
				// chance; stop deterministically at the first
				// unaffordable one.
				take, capped = false, true
			} else {
				spentCents += c
			}
		}
		if take {
			p.llm = append(p.llm, di)
			continue
		}
		d := &p.decisions[di]
		d.Match = d.Probability > 0.5
		d.Method = MethodBudget
		p.report.BudgetDecided++
	}
	sort.Ints(p.llm)
	return p
}

// EstCompletionTokens is the typical zero-shot completion size used
// to pre-estimate per-pair spend for the cost budget (the paper's
// Table 8 mean); the prompt side is priced from the actual prompt.
const EstCompletionTokens = 40

// hardness is the distance of a probability from maximal uncertainty.
func hardness(p float64) float64 {
	if p < 0.5 {
		return 0.5 - p
	}
	return p - 0.5
}
