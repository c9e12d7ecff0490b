package resolve

import (
	"context"
	"fmt"

	"llm4em/internal/dispatch"
	"llm4em/internal/entity"
	"llm4em/internal/eval"
	"llm4em/internal/features"
	"llm4em/internal/llm"
	"llm4em/internal/pipeline"
	"llm4em/internal/prompt"
)

// This file is the offline-evaluation entry point of the cascade: it
// runs labelled candidate groups — one query record against its
// candidates, the shape a live Store escalates — through the scorer
// and the serving escalator, so thresholds, budgets, strategies and
// the reason tier are measured as deployed. Blocking, the entity
// graph and persistence are out of scope: the harness measures the
// matcher, not the index.

// EvalOptions configures an offline cascade evaluation.
type EvalOptions struct {
	// Cascade tunes the thresholds, weights, budgets, strategy and
	// reason tier, exactly as on a live Store.
	Cascade CascadeOptions
	// Design is the prompt design for escalated pairs (zero value
	// selects DefaultDesign, as on a Store).
	Design prompt.Design
	// Domain is the topical domain baked into escalation prompts.
	Domain entity.Domain
	// Workers sizes the pipeline engine's worker pool and bounds the
	// groups Evaluate has in flight (zero selects
	// pipeline.DefaultWorkers).
	Workers int
}

// PairOutcome is the cascade's verdict on one labelled pair.
type PairOutcome struct {
	// PairID is the evaluated pair's ID.
	PairID string
	// Gold is the pair's gold label.
	Gold bool
	// Probability is the local scorer's calibrated match probability.
	Probability float64
	// Match is the cascade's final decision.
	Match bool
	// Method is the cascade stage that decided.
	Method Method
}

// EvalResult aggregates one offline cascade evaluation.
type EvalResult struct {
	// Outcomes holds the per-pair verdicts, groups in input order and
	// pairs in group order.
	Outcomes []PairOutcome
	// Confusion tallies decisions against gold labels; its F1 is the
	// headline quality number.
	Confusion eval.Confusion
	// Report sums the cascade accounting over all groups: local
	// accepts/rejects, LLM pairs, token usage, cents and the
	// per-strategy usage split.
	Report CostReport
	// EscalatedGroups counts groups with at least one uncertain pair —
	// the denominator for calls-per-escalated-query comparisons.
	EscalatedGroups int
	// ClientCalls is the engine's fresh client round-trip count over
	// the whole evaluation (grouped prompts count once, cache hits not
	// at all).
	ClientCalls uint64
}

// F1 returns the F1 score of the evaluation in [0, 100].
func (r EvalResult) F1() float64 { return r.Confusion.F1() }

// Evaluate runs labelled candidate groups through the cascade matcher.
// Each group is one query's labelled pairs, all sharing pair.A: the
// local scorer decides the confident pairs, and the group's uncertain
// band is escalated exactly as a live Resolve call would — per-pair
// match prompts, or one grouped compare/select prompt under
// Cascade.Strategy, plus the optional reason-tier second pass. Every
// prompt is its own round-trip, as in serving with DispatchPairs ≤ 1.
//
// Groups run at most Workers at a time and fold in input order, so
// the result is deterministic for the deterministic simulated models
// regardless of Workers, and corrupted sweeps are reproducible from
// the corruption seed alone.
func Evaluate(client llm.Client, opts EvalOptions, groups [][]entity.Pair) (EvalResult, error) {
	if opts.Design.Name == "" {
		opts.Design, _ = prompt.DesignByName(DefaultDesign)
	}
	esc := newEscalator(pipeline.New(client, pipeline.Options{Workers: opts.Workers}),
		prompt.Spec{Design: opts.Design, Domain: opts.Domain}, opts.Cascade, dispatch.Options{})
	defer esc.close()

	plans := make([]cascadePlan, len(groups))
	err := pipeline.ForEach(len(groups), esc.eng.Workers(), func(gi int) error {
		g := groups[gi]
		if len(g) == 0 {
			return nil
		}
		candIDs := make([]string, len(g))
		candExts := make([]features.Extracted, len(g))
		for i, p := range g {
			candIDs[i] = p.B.ID
			candExts[i] = features.ExtractText(p.B.Serialize())
		}
		plan := opts.Cascade.plan(features.ExtractText(g[0].A.Serialize()),
			candIDs, candExts, make([]float64, len(g)), nil)
		if len(plan.llm) > 0 {
			band := make([]entity.Pair, len(plan.llm))
			for j, i := range plan.llm {
				band[j] = g[i]
			}
			if _, err := esc.run(context.Background(), band, &plan); err != nil {
				return fmt.Errorf("resolve: evaluate: group %d: %w", gi, err)
			}
		}
		plans[gi] = plan
		return nil
	})
	if err != nil {
		return EvalResult{}, err
	}

	res := EvalResult{ClientCalls: esc.eng.Stats().ClientCalls}
	res.Report.Priced = esc.priced
	for gi, g := range groups {
		if len(plans[gi].llm) > 0 {
			res.EscalatedGroups++
		}
		for i, p := range g {
			d := plans[gi].decisions[i]
			res.Outcomes = append(res.Outcomes, PairOutcome{
				PairID:      p.ID,
				Gold:        p.Match,
				Probability: d.Probability,
				Match:       d.Match,
				Method:      d.Method,
			})
			res.Confusion.Add(p.Match, d.Match)
		}
		res.Report.Add(plans[gi].report)
	}
	return res, nil
}

// PerPair makes each labelled pair its own group of one: the shape of
// the dirty-data and calibration sweeps, which measure the matcher
// pair by pair.
func PerPair(pairs []entity.Pair) [][]entity.Pair {
	groups := make([][]entity.Pair, len(pairs))
	for i := range pairs {
		groups[i] = pairs[i : i+1 : i+1]
	}
	return groups
}

// GroupPairs regroups a flat pair list by query record (pair.A),
// consecutive or not. Groups come out in first-appearance order with
// pairs in input order — the fixture shape the strategy ablation
// sweeps.
func GroupPairs(pairs []entity.Pair) [][]entity.Pair {
	index := map[string]int{}
	var groups [][]entity.Pair
	for _, p := range pairs {
		gi, ok := index[p.A.ID]
		if !ok {
			gi = len(groups)
			index[p.A.ID] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], p)
	}
	return groups
}

// LocalProbabilities returns the local scorer's match probability for
// every pair under features.Ideal — the threshold-free half of the
// cascade, used by threshold calibration to sweep candidate thresholds
// without re-running any model.
func LocalProbabilities(pairs []entity.Pair) []float64 {
	w := features.Ideal()
	probs := make([]float64, len(pairs))
	for i, p := range pairs {
		v, pres := features.PairFeaturesText(p.A.Serialize(), p.B.Serialize())
		probs[i] = w.Probability(v, pres)
	}
	return probs
}
