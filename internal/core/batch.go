package core

import (
	"context"
	"fmt"

	"llm4em/internal/dispatch"
	"llm4em/internal/entity"
	"llm4em/internal/llm"
	"llm4em/internal/pipeline"
	"llm4em/internal/prompt"
)

// BatchMatcher packs several pairs into one prompt — the in-context
// batching technique of Fan et al. (paper Section 8) that reduces the
// per-pair token cost at some accuracy expense. Batches are cut by the
// serving dispatcher, so a reply that does not answer every pair falls
// back to per-pair prompts exactly as in serving.
type BatchMatcher struct {
	// Client is the language model to query.
	Client llm.Client
	// Domain is the topical domain of the task.
	Domain entity.Domain
	// BatchSize is the number of pairs per request (minimum 1).
	BatchSize int
}

// Evaluate submits all pairs, in input order, to a fresh dispatcher
// that cuts BatchSize pairs per batched prompt, and aggregates the
// usual metrics. The batches go out together, as a serving burst
// would; a trailing partial batch leaves on the dispatcher's flush
// timer. A lone pair is sent as a one-pair batched prompt, so batch
// size 1 measures the batched format itself.
func (m *BatchMatcher) Evaluate(pairs []entity.Pair) (Result, error) {
	eng := pipeline.New(m.Client, pipeline.Options{})
	build := func(ps []entity.Pair) string { return prompt.BuildBatch(m.Domain, ps) }
	disp := dispatch.New(eng, func(p entity.Pair) string { return build([]entity.Pair{p}) }, build,
		dispatch.Options{MaxBatchPairs: max(1, m.BatchSize)})
	defer disp.Close()
	results, err := disp.DoAllContext(context.Background(), pairs)
	if err != nil {
		return Result{}, fmt.Errorf("core: batch matching: %w", err)
	}
	var r Result
	for i, res := range results {
		r.Confusion.Add(pairs[i].Match, res.Match)
		r.PromptTokens += res.Usage.PromptTokens
		r.CompletionTokens += res.Usage.CompletionTokens
		r.TotalLatency += res.Usage.Latency
	}
	r.Requests = int(eng.Stats().ClientCalls)
	return r, nil
}
