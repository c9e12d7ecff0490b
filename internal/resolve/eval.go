package resolve

import (
	"fmt"

	"llm4em/internal/core"
	"llm4em/internal/cost"
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
	// Workers, CacheSize and MaxRetries tune the pipeline engine; zero
	// values select the pipeline defaults.
	Workers    int
	CacheSize  int
	MaxRetries int
}

func (o EvalOptions) withDefaults() EvalOptions {
	if o.Design.Name == "" {
		o.Design, _ = prompt.DesignByName(DefaultDesign)
	}
	return o
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
// local scorer decides the confident ones, the band between the
// thresholds is escalated to the client in one engine batch. The
// returned result carries per-pair outcomes, the confusion against
// the gold labels and the aggregated cost report.
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
	pricing, priced := cost.For(client.Name())
	res.Report.Priced = priced

	// Local pass: score every pair, collect the uncertain band. Each
	// pair is its own single-candidate plan, so Store semantics —
	// thresholds, hardness ordering, budgets — apply unchanged.
	var escalate []int
	for i, p := range pairs {
		ea := features.ExtractText(p.A.Serialize())
		eb := features.ExtractText(p.B.Serialize())
		plan := o.Cascade.plan(ea, []string{p.B.ID}, []*features.Extracted{&eb}, []float64{0}, nil)
		d := plan.decisions[0]
		res.Outcomes[i] = PairOutcome{
			PairID:      p.ID,
			Gold:        p.Match,
			Probability: d.Probability,
			Match:       d.Match,
			Method:      d.Method,
		}
		res.Report.Add(plan.report) // the local half; the LLM pass below adds its own
		if len(plan.llm) > 0 {
			escalate = append(escalate, i)
		}
	}

	// LLM pass: one engine batch over the whole uncertain band.
	if len(escalate) > 0 {
		eng := pipeline.New(client, pipeline.Options{
			Workers:    o.Workers,
			CacheSize:  o.CacheSize,
			MaxRetries: o.MaxRetries,
		})
		spec := prompt.Spec{Design: o.Design, Domain: o.Domain}
		batch := make([]entity.Pair, len(escalate))
		for bi, i := range escalate {
			batch[bi] = pairs[i]
		}
		decided, err := eng.Match(batch, spec.Build, core.ParseAnswer)
		if err != nil {
			return EvalResult{}, fmt.Errorf("resolve: evaluate pairs: %w", err)
		}
		for bi, d := range decided {
			out := &res.Outcomes[escalate[bi]]
			out.Match = d.Match
			out.Method = MethodLLM
			res.Report.LLMPairs++
			if d.Cached {
				res.Report.CacheHits++
			}
			res.Report.PromptTokens += d.Usage.PromptTokens
			res.Report.CompletionTokens += d.Usage.CompletionTokens
			if priced {
				res.Report.Cents += cost.PerPromptCents(pricing,
					float64(d.Usage.PromptTokens), float64(d.Usage.CompletionTokens))
			}
		}
	}

	for _, out := range res.Outcomes {
		res.Confusion.Add(out.Gold, out.Match)
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

// LLMVerdicts answers every pair with the client directly (no local
// scorer, no thresholds) and returns the binary verdicts plus the
// summed usage. Threshold calibration uses it to price and judge the
// widest candidate band once, then sweeps thresholds arithmetically.
func LLMVerdicts(client llm.Client, opts EvalOptions, pairs []entity.Pair) ([]bool, CostReport, error) {
	o := opts.withDefaults()
	var report CostReport
	if len(pairs) == 0 {
		return nil, report, nil
	}
	pricing, priced := cost.For(client.Name())
	report.Priced = priced
	eng := pipeline.New(client, pipeline.Options{
		Workers:    o.Workers,
		CacheSize:  o.CacheSize,
		MaxRetries: o.MaxRetries,
	})
	spec := prompt.Spec{Design: o.Design, Domain: o.Domain}
	decided, err := eng.Match(pairs, spec.Build, core.ParseAnswer)
	if err != nil {
		return nil, report, fmt.Errorf("resolve: llm verdicts: %w", err)
	}
	verdicts := make([]bool, len(decided))
	for i, d := range decided {
		verdicts[i] = d.Match
		report.Candidates++
		report.LLMPairs++
		if d.Cached {
			report.CacheHits++
		}
		report.PromptTokens += d.Usage.PromptTokens
		report.CompletionTokens += d.Usage.CompletionTokens
		if priced {
			report.Cents += cost.PerPromptCents(pricing,
				float64(d.Usage.PromptTokens), float64(d.Usage.CompletionTokens))
		}
	}
	return verdicts, report, nil
}
