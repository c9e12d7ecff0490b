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
// runs labelled pairs — typically corrupted ones from the dirty-data
// harness (internal/datasets.Corruptor, internal/experiments
// robustness sweep) — through exactly the scorer-then-LLM routing a
// live Store applies to blocking candidates, and reports quality and
// cost per pair set. Blocking, the entity graph and persistence are
// deliberately out of scope: the harness measures the matcher, not
// the index.

// EvalOptions configures an offline cascade evaluation.
type EvalOptions struct {
	// Cascade tunes the thresholds, weights and budgets, exactly as on
	// a live Store.
	Cascade CascadeOptions
	// Design is the prompt design for escalated pairs (zero value
	// selects DefaultDesign, as on a Store).
	Design prompt.Design
	// Domain is the topical domain baked into escalation prompts.
	Domain entity.Domain
	// Workers sizes the pipeline engine's worker pool and bounds the
	// pairs EvaluatePairs has in flight (zero selects
	// pipeline.DefaultWorkers).
	Workers int
}

func (o EvalOptions) withDefaults() EvalOptions {
	if o.Design.Name == "" {
		o.Design, _ = prompt.DesignByName(DefaultDesign)
	}
	return o
}

// escalator is the serving escalator over a fresh engine, with batches
// of one: every escalated pair is its own round-trip, as in serving
// with DispatchPairs ≤ 1. The caller closes its dispatcher.
func (o EvalOptions) escalator(client llm.Client) *escalator {
	return newEscalator(pipeline.New(client, pipeline.Options{Workers: o.Workers}),
		prompt.Spec{Design: o.Design, Domain: o.Domain}, o.Cascade, dispatch.Options{})
}

// runEach is the offline pairwise pass: plans[i] is pairs[i]'s own
// one-pair plan, and each plan with the pair in its band sends it
// through runMatch, at most Workers pairs at a time.
func (e *escalator) runEach(pairs []entity.Pair, plans []cascadePlan) error {
	return pipeline.ForEach(len(pairs), e.eng.Workers(), func(i int) error {
		if len(plans[i].llm) == 0 {
			return nil
		}
		_, err := e.runMatch(context.Background(), pairs[i:i+1], &plans[i])
		return err
	})
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
	// Outcomes holds the per-pair verdicts in input order.
	Outcomes []PairOutcome
	// Confusion tallies decisions against gold labels; its F1 is the
	// headline quality number.
	Confusion eval.Confusion
	// Report sums the cascade accounting over all pairs: local
	// accepts/rejects, LLM pairs, token usage and cents.
	Report CostReport
}

// F1 returns the F1 score of the evaluation in [0, 100].
func (r EvalResult) F1() float64 { return r.Confusion.F1() }

// EvaluatePairs runs labelled pairs through the cascade matcher: the
// local scorer decides the confident ones, and the band between the
// thresholds goes to the client through the serving escalator's
// pairwise pass, whatever Cascade.Strategy says. The returned result
// carries per-pair outcomes, the confusion against the gold labels and
// the aggregated cost report.
//
// Evaluation is deterministic for the deterministic simulated models
// regardless of Workers, so corrupted sweeps are reproducible from
// the corruption seed alone.
func EvaluatePairs(client llm.Client, opts EvalOptions, pairs []entity.Pair) (EvalResult, error) {
	o := opts.withDefaults()
	res := EvalResult{Outcomes: make([]PairOutcome, len(pairs))}
	if len(pairs) == 0 {
		return res, nil
	}
	// Each pair is its own single-candidate plan, so Store semantics —
	// thresholds, hardness ordering, budgets — apply unchanged.
	plans := make([]cascadePlan, len(pairs))
	for i, p := range pairs {
		ea := features.ExtractText(p.A.Serialize())
		eb := features.ExtractText(p.B.Serialize())
		plans[i] = o.Cascade.plan(ea, []string{p.B.ID}, []*features.Extracted{&eb}, []float64{0}, nil)
	}
	esc := o.escalator(client)
	defer esc.disp.Close()
	if err := esc.runEach(pairs, plans); err != nil {
		return EvalResult{}, fmt.Errorf("resolve: evaluate pairs: %w", err)
	}
	res.Report.Priced = esc.priced
	for i, p := range pairs {
		d := plans[i].decisions[0]
		res.Outcomes[i] = PairOutcome{
			PairID:      p.ID,
			Gold:        p.Match,
			Probability: d.Probability,
			Match:       d.Match,
			Method:      d.Method,
		}
		res.Confusion.Add(p.Match, d.Match)
		res.Report.Add(plans[i].report)
	}
	return res, nil
}

// LocalProbabilities returns the local scorer's match probability for
// every pair under the given weights (nil selects features.Ideal) —
// the threshold-free half of the cascade, used by threshold
// calibration to sweep candidate thresholds without re-running any
// model.
func LocalProbabilities(ws *features.Weights, pairs []entity.Pair) []float64 {
	w := features.Ideal()
	if ws != nil {
		w = *ws
	}
	probs := make([]float64, len(pairs))
	for i, p := range pairs {
		v, pres := features.PairFeaturesText(p.A.Serialize(), p.B.Serialize())
		probs[i] = w.Probability(v, pres)
	}
	return probs
}
