package resolve

import (
	"context"
	"fmt"

	"llm4em/internal/entity"
	"llm4em/internal/eval"
	"llm4em/internal/features"
	"llm4em/internal/llm"
)

// This file is the offline entry point of the strategy tier: it runs
// labelled candidate groups — one query record against its whole
// candidate set, the shape a live Store escalates — through the same
// escalator the serving path uses, so compare/select grouping,
// fallbacks and the reason tier are measured exactly as deployed.
// EvaluatePairs (eval.go) cannot exercise the grouped strategies: it
// treats every pair as its own single-candidate plan, and a group of
// one has nothing to group.

// CandidateGroup is one query record with its labelled candidate set
// — the unit a live Resolve call escalates. Gold[i] is the gold label
// of Query versus Candidates[i].
type CandidateGroup struct {
	Query      entity.Record
	Candidates []entity.Record
	Gold       []bool
}

// GroupEvalResult aggregates one offline strategy evaluation.
type GroupEvalResult struct {
	// Outcomes holds the per-pair verdicts, groups in input order and
	// candidates in group order.
	Outcomes []PairOutcome
	// Confusion tallies decisions against gold labels.
	Confusion eval.Confusion
	// Report sums the cascade accounting over all groups, including
	// the per-strategy usage split.
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
func (r GroupEvalResult) F1() float64 { return r.Confusion.F1() }

// EvaluateGroups runs labelled candidate groups through the cascade
// matcher under the configured Strategy and ReasonTier: the local
// scorer decides the confident pairs, and each group's uncertain band
// is escalated exactly as a live Resolve call would — one grouped
// compare/select prompt per group, or per-pair match prompts, plus
// the optional reason-tier second pass. Deterministic for the
// deterministic simulated models regardless of Workers.
func EvaluateGroups(client llm.Client, opts EvalOptions, groups []CandidateGroup) (GroupEvalResult, error) {
	o := opts.withDefaults()
	var res GroupEvalResult
	if len(groups) == 0 {
		return res, nil
	}
	esc := o.escalator(client)
	defer esc.disp.Close()
	res.Report.Priced = esc.priced

	for gi, g := range groups {
		if len(g.Candidates) != len(g.Gold) {
			return GroupEvalResult{}, fmt.Errorf("resolve: evaluate groups: group %d has %d candidates but %d gold labels",
				gi, len(g.Candidates), len(g.Gold))
		}
		if len(g.Candidates) == 0 {
			continue
		}
		query := features.ExtractText(g.Query.Serialize())
		candIDs := make([]string, len(g.Candidates))
		candExts := make([]*features.Extracted, len(g.Candidates))
		blockScores := make([]float64, len(g.Candidates))
		for i, c := range g.Candidates {
			candIDs[i] = c.ID
			ext := features.ExtractText(c.Serialize())
			candExts[i] = &ext
		}
		plan := o.Cascade.plan(query, candIDs, candExts, blockScores, nil)

		if len(plan.llm) > 0 {
			pairs := make([]entity.Pair, len(plan.llm))
			for j, di := range plan.llm {
				pairs[j] = entity.Pair{
					ID:    g.Query.ID + "|" + g.Candidates[di].ID,
					A:     g.Query,
					B:     g.Candidates[di],
					Match: g.Gold[di],
				}
			}
			if _, err := esc.run(context.Background(), pairs, &plan); err != nil {
				return GroupEvalResult{}, fmt.Errorf("resolve: evaluate groups: group %d: %w", gi, err)
			}
			res.EscalatedGroups++
		}

		for i, d := range plan.decisions {
			res.Outcomes = append(res.Outcomes, PairOutcome{
				PairID:      g.Query.ID + "|" + candIDs[i],
				Gold:        g.Gold[i],
				Probability: d.Probability,
				Match:       d.Match,
				Method:      d.Method,
			})
			res.Confusion.Add(g.Gold[i], d.Match)
		}
		res.Report.Add(plan.report)
	}
	res.ClientCalls = esc.eng.Stats().ClientCalls
	return res, nil
}

// GroupPairs rebuilds labelled candidate groups from a flat pair
// list, grouping consecutive-or-not pairs by their query record
// (pair.A). Groups come out in first-appearance order with candidates
// in input order — the fixture shape the strategy ablation sweeps.
func GroupPairs(pairs []entity.Pair) []CandidateGroup {
	index := map[string]int{}
	var groups []CandidateGroup
	for _, p := range pairs {
		gi, ok := index[p.A.ID]
		if !ok {
			gi = len(groups)
			index[p.A.ID] = gi
			groups = append(groups, CandidateGroup{Query: p.A})
		}
		groups[gi].Candidates = append(groups[gi].Candidates, p.B)
		groups[gi].Gold = append(groups[gi].Gold, p.Match)
	}
	return groups
}
