package resolve

import (
	"context"
	"time"

	"llm4em/internal/cost"
	"llm4em/internal/dispatch"
	"llm4em/internal/entity"
	"llm4em/internal/pipeline"
	"llm4em/internal/prompt"
)

// escalator runs the strategy tier of the cascade: the first LLM pass
// over a query's uncertain pairs under the configured Strategy
// (pairwise match, grouped compare, grouped select) and the optional
// reason-tier second pass. The serving path (Store.esc) and offline
// evaluation (EvaluateGroups, EvaluatePairs) all build it with
// newEscalator, and both passes reach the model only through its
// dispatchers.
type escalator struct {
	eng  *pipeline.Engine
	disp *dispatch.Dispatcher
	// reason is the reason tier's batch-of-one dispatcher, keyed on the
	// reason prompt so its cache and single-flight never answer a reason
	// prompt with a match prompt's reply.
	reason  *dispatch.Dispatcher
	opts    CascadeOptions
	spec    prompt.Spec
	pricing cost.Pricing
	priced  bool
}

// newEscalator builds the strategy tier over the engine and its
// dispatcher. dopts.MaxBatchPairs of 0 or 1 both cut every pair alone:
// one per-pair prompt per round-trip. The per-pair builder is the
// prompt the rest of the system sends, so the dispatcher's dedupe and
// cache layering key on exactly the engine's cache keys.
func newEscalator(eng *pipeline.Engine, spec prompt.Spec, cascade CascadeOptions, dopts dispatch.Options) *escalator {
	e := &escalator{eng: eng, opts: cascade, spec: spec}
	e.pricing, e.priced = cost.For(eng.Client().Name())
	dopts.MaxBatchPairs = max(1, dopts.MaxBatchPairs)
	e.disp = dispatch.New(eng, spec.Build,
		func(ps []entity.Pair) string { return prompt.BuildBatch(spec.Domain, ps) }, dopts)
	e.reason = dispatch.New(eng, func(p entity.Pair) string { return prompt.BuildReason(spec.Domain, p) },
		nil, dispatch.Options{MaxBatchPairs: 1})
	return e
}

// close drains both dispatchers.
func (e *escalator) close() {
	e.disp.Close()
	e.reason.Close()
}

// run decides the planned uncertain pairs and fills their decisions
// and the report's LLM and per-strategy accounting. Every pair in
// pairs shares the same query record (pair.A) — Resolve escalates one
// query's band at a time — which is what lets compare/select answer
// the whole slice with a single grouped prompt. The returned duration
// sums the model-side latency of the answers. The context bounds every
// LLM round-trip of the pass (including fallbacks and the reason
// tier); callers without a deadline pass context.Background().
func (e *escalator) run(ctx context.Context, pairs []entity.Pair, plan *cascadePlan) (time.Duration, error) {
	var modelLat time.Duration
	var err error
	switch e.opts.strategy() {
	case prompt.StrategyCompare, prompt.StrategySelect:
		modelLat, err = e.runGrouped(ctx, pairs, plan)
	default:
		modelLat, err = e.runMatch(ctx, pairs, plan)
	}
	if err != nil {
		return 0, err
	}
	if e.opts.ReasonTier {
		reasonLat, err := e.runReason(ctx, pairs, plan)
		if err != nil {
			return 0, err
		}
		modelLat += reasonLat
	}
	return modelLat, nil
}

// accountUsage folds one answer's token usage into the report totals
// and the given strategy's share.
func (e *escalator) accountUsage(plan *cascadePlan, u *StrategyUsage, promptTokens, completionTokens int) {
	plan.report.PromptTokens += promptTokens
	plan.report.CompletionTokens += completionTokens
	u.Pairs++
	u.PromptTokens += promptTokens
	u.CompletionTokens += completionTokens
	if e.priced {
		plan.report.Cents += cost.PerPromptCents(e.pricing,
			float64(promptTokens), float64(completionTokens))
	}
}

// runMatch is the pairwise first pass: each uncertain pair is its own
// prompt, coalesced into cross-request batches when the dispatcher's
// batches hold more than one pair.
func (e *escalator) runMatch(ctx context.Context, pairs []entity.Pair, plan *cascadePlan) (time.Duration, error) {
	results, err := e.disp.DoAllContext(ctx, pairs)
	if err != nil {
		return 0, err
	}
	var modelLat time.Duration
	batchesSeen := map[uint64]bool{}
	callBatches := map[uint64]bool{}
	for i, r := range results {
		d := &plan.decisions[plan.llm[i]]
		d.Match = r.Match
		d.Method = MethodLLM
		d.Answer = r.Answer
		d.Cached = r.Cached
		d.Batched = r.Batched
		plan.report.LLMPairs++
		if r.Cached {
			plan.report.CacheHits++
		}
		if r.Batched {
			plan.report.BatchedPairs++
			if !batchesSeen[r.BatchID] {
				batchesSeen[r.BatchID] = true
				plan.report.Batches++
			}
		}
		if r.FellBack {
			plan.report.BatchFallbacks++
		}
		switch {
		case r.Cached:
		case r.Batched:
			if !callBatches[r.BatchID] {
				callBatches[r.BatchID] = true
				plan.report.MatchUsage.Calls++
			}
		default:
			plan.report.MatchUsage.Calls++
		}
		modelLat += r.Usage.Latency
		e.accountUsage(plan, &plan.report.MatchUsage, r.Usage.PromptTokens, r.Usage.CompletionTokens)
	}
	return modelLat, nil
}

// groupSpec renders the configured grouped formulation over a query's
// pairs and parses its verdicts strictly.
func (e *escalator) groupSpec() (dispatch.GroupSpec, Method) {
	records := func(ps []entity.Pair) []entity.Record {
		rs := make([]entity.Record, len(ps))
		for i, p := range ps {
			rs[i] = p.B
		}
		return rs
	}
	if e.opts.strategy() == prompt.StrategySelect {
		return dispatch.GroupSpec{
			Build: func(ps []entity.Pair) string {
				return prompt.BuildSelect(e.spec.Domain, ps[0].A, records(ps))
			},
			Parse: func(answer string, n int) ([]bool, bool) {
				chosen, ok := prompt.ParseSelectAnswer(answer, n)
				if !ok {
					return nil, false
				}
				verdicts := make([]bool, n)
				if chosen > 0 {
					verdicts[chosen-1] = true
				}
				return verdicts, true
			},
		}, MethodSelect
	}
	return dispatch.GroupSpec{
		Build: func(ps []entity.Pair) string {
			return prompt.BuildCompare(e.spec.Domain, ps[0].A, records(ps))
		},
		Parse: prompt.ParseCompareAnswers,
	}, MethodCompare
}

// runGrouped is the compare/select first pass: one grouped prompt
// answers the query's whole uncertain band, degrading to per-pair
// pairwise prompts (MethodLLM, MatchUsage) when the grouped reply
// fails strict parsing.
func (e *escalator) runGrouped(ctx context.Context, pairs []entity.Pair, plan *cascadePlan) (time.Duration, error) {
	gspec, method := e.groupSpec()
	usage := &plan.report.CompareUsage
	if method == MethodSelect {
		usage = &plan.report.SelectUsage
	}

	results, err := e.disp.DoGroupContext(ctx, pairs, gspec)
	if err != nil {
		return 0, err
	}

	var modelLat time.Duration
	freshGroup := false
	for i, r := range results {
		d := &plan.decisions[plan.llm[i]]
		d.Match = r.Match
		d.Answer = r.Answer
		d.Cached = r.Cached
		plan.report.LLMPairs++
		if r.Cached {
			plan.report.CacheHits++
		}
		switch {
		case r.FellBack:
			// The grouped reply was malformed; an individual pairwise
			// prompt decided this pair.
			d.Method = MethodLLM
			plan.report.GroupFallbacks++
			if !r.Cached {
				plan.report.MatchUsage.Calls++
			}
			e.accountUsage(plan, &plan.report.MatchUsage, r.Usage.PromptTokens, r.Usage.CompletionTokens)
		default:
			d.Method = method
			if r.Grouped && !r.Cached {
				freshGroup = true
			}
			e.accountUsage(plan, usage, r.Usage.PromptTokens, r.Usage.CompletionTokens)
		}
		modelLat += r.Usage.Latency
	}
	if freshGroup {
		usage.Calls++
	}
	return modelLat, nil
}

// runReason is the reason tier: pairs whose first-pass LLM verdict
// disagrees with the local scorer's probability — the least settled
// outcomes of the pass — are re-decided by a structured multi-step
// reasoning prompt whose verdict replaces the first-pass decision.
func (e *escalator) runReason(ctx context.Context, pairs []entity.Pair, plan *cascadePlan) (time.Duration, error) {
	var conflicted []int
	for i := range pairs {
		d := plan.decisions[plan.llm[i]]
		if (d.Probability > 0.5) != d.Match {
			conflicted = append(conflicted, i)
		}
	}
	if len(conflicted) == 0 {
		return 0, nil
	}

	rpairs := make([]entity.Pair, len(conflicted))
	for j, i := range conflicted {
		rpairs[j] = pairs[i]
	}
	results, err := e.reason.DoAllContext(ctx, rpairs)
	if err != nil {
		return 0, err
	}

	var modelLat time.Duration
	for j, r := range results {
		d := &plan.decisions[plan.llm[conflicted[j]]]
		// The verdict is the "Final Answer:" line; without one, the
		// word-level parse of the whole reply the dispatcher already made.
		d.Match = r.Match
		if m, ok := prompt.ParseReasonAnswer(r.Answer); ok {
			d.Match = m
		}
		d.Method = MethodReason
		d.Answer = r.Answer
		d.Cached = r.Cached
		if r.Cached {
			plan.report.CacheHits++
		} else {
			plan.report.ReasonUsage.Calls++
		}
		modelLat += r.Usage.Latency
		e.accountUsage(plan, &plan.report.ReasonUsage, r.Usage.PromptTokens, r.Usage.CompletionTokens)
	}
	return modelLat, nil
}
