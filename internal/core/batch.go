package core

import (
	"fmt"
	"sync"

	"llm4em/internal/entity"
	"llm4em/internal/llm"
	"llm4em/internal/pipeline"
	"llm4em/internal/prompt"
)

// BatchMatcher packs several pairs into one prompt — the in-context
// batching technique of Fan et al. (paper Section 8) that reduces the
// per-pair token cost at some accuracy expense. Batches are evaluated
// concurrently through internal/pipeline.
type BatchMatcher struct {
	// Client is the language model to query.
	Client llm.Client
	// Domain is the topical domain of the task.
	Domain entity.Domain
	// BatchSize is the number of pairs per request (minimum 1).
	BatchSize int

	// Workers, CacheSize and MaxRetries tune the concurrent pipeline;
	// zero values select the pipeline defaults (negative CacheSize /
	// MaxRetries disable caching / retrying).
	Workers    int
	CacheSize  int
	MaxRetries int

	// mu guards the lazily built engine shared across evaluations (see
	// Matcher). Do not copy a BatchMatcher after calling its methods.
	mu        sync.Mutex
	eng       *pipeline.Engine
	engClient llm.Client
	engOpts   pipeline.Options
}

// engine returns the shared batch-matching engine, rebuilding it when
// the client or knobs change.
func (m *BatchMatcher) engine() *pipeline.Engine {
	opts := pipeline.Options{
		Workers:    m.Workers,
		CacheSize:  m.CacheSize,
		MaxRetries: m.MaxRetries,
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.eng == nil || m.engClient != m.Client || m.engOpts != opts {
		m.eng = pipeline.New(m.Client, opts)
		m.engClient, m.engOpts = m.Client, opts
	}
	return m.eng
}

// Evaluate runs batched matching over the pairs on the concurrent
// pipeline and aggregates the usual metrics.
func (m *BatchMatcher) Evaluate(pairs []entity.Pair) (Result, error) {
	size := m.BatchSize
	if size < 1 {
		size = 1
	}
	var batches [][]entity.Pair
	for start := 0; start < len(pairs); start += size {
		end := start + size
		if end > len(pairs) {
			end = len(pairs)
		}
		batches = append(batches, pairs[start:end])
	}
	prompts := make([]string, len(batches))
	for i, batch := range batches {
		prompts[i] = prompt.BuildBatch(m.Domain, batch)
	}

	completions, err := m.engine().CompleteAll(prompts)
	if err != nil {
		return Result{}, fmt.Errorf("core: batch chat: %w", err)
	}

	var r Result
	for i, batch := range batches {
		resp := completions[i].Response
		decisions := ParseBatchAnswers(resp.Content, len(batch))
		for j, p := range batch {
			r.Confusion.Add(p.Match, decisions[j])
		}
		r.PromptTokens += resp.PromptTokens
		r.CompletionTokens += resp.CompletionTokens
		r.TotalLatency += resp.Latency
		r.Requests++
	}
	return r, nil
}

// ParseBatchAnswers reads numbered Yes/No lines ("3. Yes", "3) Yes"
// or "3: Yes") into a decision slice of length n. Absent or
// out-of-range numbers default to false; when a number appears on
// several lines, the last occurrence wins. SplitBatchAnswers is its
// strict counterpart.
func ParseBatchAnswers(answer string, n int) []bool {
	out := make([]bool, n)
	for idx, rest := range numberedLines(answer) {
		if idx >= 1 && idx <= n {
			out[idx-1] = ParseAnswer(rest)
		}
	}
	return out
}
