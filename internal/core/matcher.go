// Package core implements the paper's primary contribution: the
// LLM-based entity matching pipeline. A Matcher serializes a pair of
// entity descriptions, builds a prompt from the configured design
// (optionally with in-context demonstrations and matching rules),
// queries a chat model, and parses the natural-language answer into a
// binary matching decision using the paper's rule (Section 2):
// lower-case the answer and look for the word "yes".
//
// Both matchers reach the model through the serving dispatcher
// (internal/dispatch) that answers /v1/resolve's uncertain band, so
// the paper's F1 and cost columns describe the production path: its
// strict batch parse, its per-pair fallback and its usage split. A
// Matcher submits each pair as its own batch of one on a bounded
// worker pool over an engine with an LRU prompt cache and
// transient-error retry; its Workers, CacheSize and MaxRetries fields
// tune them, and their zero values select the pipeline defaults. A
// BatchMatcher cuts BatchSize pairs per batched prompt. Since the
// simulated models are deterministic, concurrent cached evaluation
// returns exactly the results of a sequential run.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"llm4em/internal/dispatch"
	"llm4em/internal/entity"
	"llm4em/internal/eval"
	"llm4em/internal/llm"
	"llm4em/internal/pipeline"
	"llm4em/internal/prompt"
)

// DemoSelector supplies per-query in-context demonstrations
// (Section 4.1). Implementations live in internal/icl.
type DemoSelector interface {
	// Select returns k demonstrations for the query pair, balanced
	// between matches and non-matches.
	Select(query entity.Pair, k int) []entity.Pair
}

// Matcher is the configured matching pipeline.
type Matcher struct {
	// Client is the language model to query.
	Client llm.Client
	// Design is the prompt design to use.
	Design prompt.Design
	// Domain is the topical domain of the task (selects the wording of
	// domain-scoped task descriptions).
	Domain entity.Domain
	// Rules are optional textual matching rules (Section 4.2).
	Rules []string
	// Demos optionally selects in-context demonstrations; Shots is how
	// many to request per query.
	Demos DemoSelector
	Shots int

	// Workers bounds the pairs Evaluate, EvaluateKeeping and Stream
	// have in flight (0 selects pipeline.DefaultWorkers).
	Workers int
	// CacheSize is the LRU prompt-cache capacity in entries (0 selects
	// pipeline.DefaultCacheSize; negative disables caching).
	CacheSize int
	// MaxRetries is how often a transient client error is retried (0
	// selects pipeline.DefaultMaxRetries; negative disables retrying).
	MaxRetries int

	// mu guards the lazily built engine and dispatcher shared across
	// evaluations, so the prompt cache persists from one
	// Evaluate/Stream call to the next. Do not copy a Matcher after
	// calling its methods.
	mu        sync.Mutex
	eng       *pipeline.Engine
	disp      *dispatch.Dispatcher
	engClient llm.Client
	engOpts   pipeline.Options
}

// dispatcher returns the matcher's batch-of-one dispatcher and its
// engine, reusing them (and the prompt cache) while the client and
// knobs are unchanged. A replaced dispatcher is left unclosed: at
// batch size 1 every pair is cut as it arrives, so it holds no pending
// pair and no flush timer between calls.
func (m *Matcher) dispatcher() (*dispatch.Dispatcher, *pipeline.Engine) {
	opts := pipeline.Options{
		Workers:    m.Workers,
		CacheSize:  m.CacheSize,
		MaxRetries: m.MaxRetries,
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.eng == nil || m.engClient != m.Client || m.engOpts != opts {
		m.eng = pipeline.New(m.Client, opts)
		m.disp = dispatch.New(m.eng, m.BuildPrompt, nil, dispatch.Options{MaxBatchPairs: 1})
		m.engClient, m.engOpts = m.Client, opts
	}
	return m.disp, m.eng
}

// Decision is the outcome of matching one pair.
type Decision struct {
	// Pair is the evaluated pair.
	Pair entity.Pair
	// Match is the parsed decision.
	Match bool
	// Answer is the model's raw reply.
	Answer string
	// Usage is the model's token and latency accounting. Cached
	// decisions carry the accounting of the original request.
	Usage llm.Response
	// Cached reports whether the response was served by the prompt
	// cache, or coalesced onto an identical pair in flight, instead of
	// a fresh model request.
	Cached bool
}

// Correct reports whether the decision agrees with the gold label.
func (d Decision) Correct() bool { return d.Match == d.Pair.Match }

// BuildPrompt renders the prompt this matcher would send for a pair.
func (m *Matcher) BuildPrompt(pair entity.Pair) string {
	spec := prompt.Spec{Design: m.Design, Domain: m.Domain, Rules: m.Rules}
	if m.Demos != nil && m.Shots > 0 {
		spec.Demonstrations = m.Demos.Select(pair, m.Shots)
	}
	return spec.Build(pair)
}

// MatchPair runs the pipeline on a single pair.
func (m *Matcher) MatchPair(pair entity.Pair) (Decision, error) {
	var d Decision
	err := m.each([]entity.Pair{pair}, func(_ int, got Decision) { d = got })
	return d, err
}

// ParseAnswer applies the paper's decision rule; see prompt.ParseAnswer.
// It remains only because the benchmark probe (bench/probe.go) times
// it by this name.
func ParseAnswer(answer string) bool { return prompt.ParseAnswer(answer) }

// each decides every pair as its own batch-of-one dispatcher
// submission, at most Workers at a time, and hands each decision to
// yield as it completes. The first error stops new submissions.
func (m *Matcher) each(pairs []entity.Pair, yield func(i int, d Decision)) error {
	disp, eng := m.dispatcher()
	err := pipeline.ForEach(len(pairs), eng.Workers(), func(i int) error {
		rs, err := disp.DoAllContext(context.Background(), pairs[i:i+1])
		if err != nil {
			return err
		}
		yield(i, Decision{Pair: pairs[i], Match: rs[0].Match, Answer: rs[0].Answer, Usage: rs[0].Usage, Cached: rs[0].Cached})
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// Result aggregates the evaluation of a matcher over a pair set.
type Result struct {
	// Confusion tallies the decisions against gold labels.
	Confusion eval.Confusion
	// PromptTokens and CompletionTokens are summed over all requests.
	PromptTokens     int
	CompletionTokens int
	// TotalLatency is the summed simulated request latency.
	TotalLatency time.Duration
	// Requests is the number of pairs a Matcher evaluated, or of model
	// requests a BatchMatcher issued.
	Requests int
	// Decisions holds per-pair outcomes when requested via
	// EvaluateKeeping.
	Decisions []Decision
}

// F1 returns the F1-score of the run in percent.
func (r Result) F1() float64 { return r.Confusion.F1() }

// MeanPromptTokens returns the mean prompt length in tokens.
func (r Result) MeanPromptTokens() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.PromptTokens) / float64(r.Requests)
}

// MeanCompletionTokens returns the mean completion length in tokens.
func (r Result) MeanCompletionTokens() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.CompletionTokens) / float64(r.Requests)
}

// MeanLatency returns the mean simulated latency per request.
func (r Result) MeanLatency() time.Duration {
	if r.Requests == 0 {
		return 0
	}
	return r.TotalLatency / time.Duration(r.Requests)
}

// add folds one decision into the aggregate. Usage is counted per
// pair even for cached decisions, preserving the paper's per-request
// accounting (a deployment would not re-bill a cached prompt, but
// the tables report what the model work costs).
func (r *Result) add(d Decision) {
	r.Confusion.Add(d.Pair.Match, d.Match)
	r.PromptTokens += d.Usage.PromptTokens
	r.CompletionTokens += d.Usage.CompletionTokens
	r.TotalLatency += d.Usage.Latency
	r.Requests++
}

// Evaluate runs the matcher over the pairs on the concurrent pipeline
// and aggregates metrics.
func (m *Matcher) Evaluate(pairs []entity.Pair) (Result, error) {
	return m.evaluate(pairs, false)
}

// EvaluateKeeping is Evaluate but additionally retains every per-pair
// decision (in input order), which the explanation and error-analysis
// pipelines need.
func (m *Matcher) EvaluateKeeping(pairs []entity.Pair) (Result, error) {
	return m.evaluate(pairs, true)
}

func (m *Matcher) evaluate(pairs []entity.Pair, keep bool) (Result, error) {
	decisions := make([]Decision, len(pairs))
	if err := m.each(pairs, func(i int, d Decision) { decisions[i] = d }); err != nil {
		return Result{}, err
	}
	var r Result
	for _, d := range decisions {
		r.add(d)
	}
	if keep {
		r.Decisions = decisions
	}
	return r, nil
}

// Stream evaluates the pairs on the concurrent pipeline and delivers
// decisions in completion order on the returned channel, which is
// closed when the run ends. The wait function blocks until then,
// returns the aggregated result or the first error, and may be called
// any number of times. The channel is buffered for the full pair set,
// so abandoning it early leaks nothing (the remaining pairs are still
// evaluated).
func (m *Matcher) Stream(pairs []entity.Pair) (<-chan Decision, func() (Result, error)) {
	out := make(chan Decision, len(pairs))
	done := make(chan struct{})
	var (
		mu  sync.Mutex
		res Result
		err error
	)
	go func() {
		err = m.each(pairs, func(_ int, d Decision) {
			mu.Lock()
			res.add(d)
			mu.Unlock()
			out <- d
		})
		if err != nil {
			res = Result{}
		}
		close(out)
		close(done)
	}()
	return out, func() (Result, error) {
		<-done
		return res, err
	}
}
