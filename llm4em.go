// Package llm4em is the public facade of the llm4em library: a Go
// implementation of "Entity Matching using Large Language Models"
// (Peeters, Steiner, Bizer — EDBT 2025).
//
// The library matches pairs of entity descriptions with (simulated)
// large language models. The central workflow is:
//
//	model, _ := llm4em.NewModel(llm4em.GPT4)
//	design, _ := llm4em.DesignByName("general-complex-force")
//	matcher := llm4em.Matcher{Client: model, Design: design, Domain: llm4em.Product}
//	decision, err := matcher.MatchPair(pair)
//
// Evaluations over pair sets (Matcher.Evaluate, Matcher.Stream,
// BatchMatcher.Evaluate) run on a concurrent matching pipeline: a
// bounded worker pool that deduplicates identical prompts through an
// LRU response cache and retries transient client errors with
// backoff. The Workers, CacheSize and MaxRetries fields of Matcher
// and BatchMatcher tune it; zero values select sensible defaults.
//
// For online serving, llm4em.NewStore returns an incremental
// entity-resolution store: records are indexed as they arrive,
// queries resolve against a sharded inverted IDF index, and a cascade
// matcher answers confident candidate pairs with a local calibrated
// scorer so only the uncertain band reaches the LLM. With
// StoreOptions.DispatchPairs set, uncertain pairs from concurrent
// Resolve calls are additionally coalesced into batched prompts by a
// cross-request micro-batching dispatcher, cutting LLM round-trips
// under load. The emserve command exposes the store over HTTP JSON.
//
// Training data can be plugged in as in-context demonstrations
// (llm4em.NewRelatedSelector, …), textual matching rules
// (llm4em.HandwrittenRules, llm4em.LearnRules) or fine-tuning
// (llm4em.FineTune). The six synthetic benchmark datasets of the
// paper are available through llm4em.LoadDataset, and the experiment
// harness regenerating the paper's tables through the emexperiments
// command.
package llm4em

import (
	"context"
	"time"

	"llm4em/internal/blocking"
	"llm4em/internal/core"
	"llm4em/internal/datasets"
	"llm4em/internal/entity"
	"llm4em/internal/explain"
	"llm4em/internal/finetune"
	"llm4em/internal/icl"
	"llm4em/internal/llm"
	"llm4em/internal/pipeline"
	"llm4em/internal/prompt"
	"llm4em/internal/resilience"
	"llm4em/internal/resolve"
	"llm4em/internal/rules"
	"llm4em/internal/telemetry"
)

// Core data model.
type (
	// Record is one entity description.
	Record = entity.Record
	// Attr is a named attribute value.
	Attr = entity.Attr
	// Pair is a labelled pair of entity descriptions.
	Pair = entity.Pair
	// Schema fixes a dataset's attributes and domain.
	Schema = entity.Schema
	// Domain is the topical domain of a matching task.
	Domain = entity.Domain
)

// Topical domains.
const (
	Product     = entity.Product
	Publication = entity.Publication
)

// Matching pipeline.
type (
	// Matcher is the LLM-based matching pipeline.
	Matcher = core.Matcher
	// BatchMatcher packs several pairs into one prompt (Section 8).
	BatchMatcher = core.BatchMatcher
	// Decision is the outcome of matching one pair.
	Decision = core.Decision
	// Result aggregates an evaluation run.
	Result = core.Result
	// DemoSelector supplies in-context demonstrations.
	DemoSelector = core.DemoSelector
)

// ParseAnswer converts a model reply into a matching decision using
// the paper's rule (lower-case, parse for the word "yes").
func ParseAnswer(answer string) bool { return core.ParseAnswer(answer) }

// ParseBatchAnswers reads the numbered Yes/No lines of a batched
// reply into a decision slice of length n.
func ParseBatchAnswers(answer string, n int) []bool { return core.ParseBatchAnswers(answer, n) }

// Concurrent execution engine.
type (
	// Engine is the concurrent prompt-execution engine underneath
	// Matcher and BatchMatcher: bounded worker pool, LRU prompt cache,
	// transient-error retry. Use it directly to run raw prompts or
	// custom matching loops at scale.
	Engine = pipeline.Engine
	// EngineOptions tunes an Engine.
	EngineOptions = pipeline.Options
	// EngineStats counts client calls, cache hits and retries.
	EngineStats = pipeline.Stats
)

// NewEngine returns a concurrent execution engine over the client.
func NewEngine(client Client, opts EngineOptions) *Engine { return pipeline.New(client, opts) }

// TransientError marks an error as retryable so the pipeline retries
// it with backoff. Custom Client implementations wrap rate limits,
// timeouts and 5xx-style failures with it.
func TransientError(err error) error { return pipeline.Transient(err) }

// IsTransientError reports whether an error is marked retryable.
func IsTransientError(err error) bool { return pipeline.IsTransient(err) }

// Online entity resolution.
type (
	// Store is the online entity-resolution store: a sharded,
	// incremental inverted IDF index over added records, a cascade
	// matcher that answers confident candidate pairs with a local
	// calibrated scorer and escalates only the uncertain band to the
	// LLM, and an incremental union-find folding decisions into entity
	// groups. Safe for concurrent use; cmd/emserve exposes it over
	// HTTP.
	Store = resolve.Store
	// StoreOptions configures a Store (shards, blocking thresholds,
	// prompt design, cascade, pipeline knobs).
	StoreOptions = resolve.Options
	// CascadeOptions tunes the cascade matcher's accept/reject
	// thresholds, LLM/cost budgets, and the prompt strategy for the
	// uncertain band (Strategy, ReasonTier).
	CascadeOptions = resolve.CascadeOptions
	// ResolveResult is the outcome of resolving one query record.
	ResolveResult = resolve.Result
	// ResolveDecision is the outcome of one candidate pair within a
	// Resolve call.
	ResolveDecision = resolve.PairDecision
	// CostReport accounts one Resolve call: cascade split, LLM spend
	// and per-strategy usage.
	CostReport = resolve.CostReport
	// StrategyUsage is one prompt strategy's share of the LLM activity
	// inside a CostReport (calls, pairs, tokens) — of one Resolve call,
	// or of the store's lifetime in StoreStats, which embeds a
	// CostReport where it once had a separate StrategyTotals type.
	StrategyUsage = resolve.StrategyUsage
	// StoreStats snapshots a store's lifetime counters: an embedded
	// CostReport folding every served call, beside the store's own
	// counts.
	StoreStats = resolve.Stats
	// StoreDispatchStats snapshots the cross-request micro-batching
	// dispatcher's counters (batches issued, pairs batched, fallbacks,
	// single-flight and cache hits). Enabled is false for stores built
	// without StoreOptions.DispatchPairs.
	StoreDispatchStats = resolve.DispatchStats
	// StorePersistStats snapshots the durability counters of a
	// persistent store: recovery counts, WAL and snapshot activity.
	StorePersistStats = resolve.PersistStats
	// BatchError reports a partially applied Store.AddBatch: Added
	// records are in the store, and errors.Is still matches the typed
	// cause (e.g. ErrDuplicateRecordID) through Unwrap.
	BatchError = resolve.BatchError
)

// Blocking index configuration. StoreOptions.Blocking takes a
// BlockingOptions value; its zero value selects every default, and a
// nil threshold ("use the default") is distinct from a literal zero.
//
// BlockingOptions configures the candidate index and score floor:
// *float64 thresholds MinScore and StopDocFrac (nil selects the
// default, a set pointer — including BlockingFloat(0) — is taken
// literally). The index itself has no representation knobs: postings
// are delta+varint streams and the scorer is chosen by index size.
type BlockingOptions = blocking.IndexOptions

// BlockingFloat returns a pointer to v — the set form the explicit
// BlockingOptions threshold fields take. BlockingFloat(0) requests a
// literal zero where nil would select the default.
func BlockingFloat(v float64) *float64 { return blocking.Float(v) }

// NewStore returns an empty online resolution store over the client.
// The store is in-memory; use OpenStore for a durable one.
func NewStore(client Client, opts StoreOptions) *Store { return resolve.New(client, opts) }

// OpenStore returns an online resolution store over the client,
// durably backed by opts.PersistDir when that field is set: every
// ingested record and match decision is journaled to a write-ahead
// log and periodically compacted into a snapshot. Opening an existing
// directory recovers the previous state — records, entity groups,
// decision journal and cost totals — without re-invoking the LLM,
// tolerating a torn WAL tail from a crash mid-append. Journaled pairs
// short-circuit later Resolve calls. Shut down with Store.Close
// (flush + final snapshot); Store.Checkpoint and Store.Flush force a
// compaction or an fsync between the automatic cadences. With an
// empty PersistDir, OpenStore equals NewStore.
func OpenStore(client Client, opts StoreOptions) (*Store, error) { return resolve.Open(client, opts) }

// Typed store errors, matched with errors.Is.
var (
	// ErrNoRecordID marks a record or query with an empty ID.
	ErrNoRecordID = resolve.ErrNoID
	// ErrDuplicateRecordID marks an Add of an already-stored ID.
	ErrDuplicateRecordID = resolve.ErrDuplicateID
)

// Fault tolerance. With StoreOptions.Resilience enabled, a store
// wraps its LLM escalations in a circuit breaker and a concurrency
// shedder, and degrades gracefully when the backend is down: the
// uncertain band is answered by the local scorer, the decisions are
// marked Deferred, and a background re-escalator replays them against
// the LLM once the breaker closes — converging to the decisions a
// healthy run would have made. Store.ResolveContext propagates a
// per-request deadline into in-flight LLM work; Store.Degraded
// reports the active degraded mode for readiness probes.
type (
	// ResilienceOptions enables and tunes the store's fault-tolerance
	// layer (breaker, shedder, deferred re-escalation, hedging).
	ResilienceOptions = resolve.ResilienceOptions
	// BreakerOptions tunes the circuit breaker's trip and recovery
	// behaviour.
	BreakerOptions = resilience.BreakerOptions
	// ShedOptions bounds concurrent and queued LLM escalations.
	ShedOptions = resilience.ShedOptions
	// ResilienceStats snapshots the fault-tolerance layer inside
	// StoreStats: breaker state, shed counts, deferred queue depth.
	ResilienceStats = resolve.ResilienceStats
	// ContextClient is the optional context-aware extension of Client:
	// implement it so per-request deadlines cancel in-flight calls.
	ContextClient = llm.ContextClient
)

// MethodDeferred marks a decision answered by the local scorer while
// the LLM was unavailable; the re-escalator later replaces it with
// the model's verdict.
const MethodDeferred = resolve.MethodDeferred

// Typed fault-tolerance errors, matched with errors.Is.
var (
	// ErrOverloaded marks an escalation rejected by the load shedder;
	// callers should retry later (emserve answers 503).
	ErrOverloaded = resilience.ErrShed
	// ErrBreakerOpen marks a call rejected by an open circuit breaker.
	// Stores degrade instead of surfacing it; direct users of the
	// resilience guard see it.
	ErrBreakerOpen = resilience.ErrOpen
)

// TransientErrorAfter is TransientError carrying a retry-after hint,
// the way a 429 response carries a Retry-After header: the pipeline
// sleeps exactly the hinted duration before the next attempt instead
// of its jittered exponential backoff.
func TransientErrorAfter(err error, retryAfter time.Duration) error {
	return pipeline.TransientAfter(err, retryAfter)
}

// RetryAfterHint extracts the retry-after hint attached by
// TransientErrorAfter, reporting false when err carries none.
func RetryAfterHint(err error) (time.Duration, bool) { return pipeline.RetryAfter(err) }

// Telemetry and request tracing.
type (
	// Telemetry is a dependency-free metrics handle: atomic counters,
	// gauges and latency histograms for every layer of the store
	// (resolve stages, cascade outcomes, dispatcher batches, LLM calls,
	// WAL/snapshot durability), rendered as Prometheus text exposition
	// via WritePrometheus. Wire one into StoreOptions.Telemetry; a nil
	// handle disables all instrumentation.
	Telemetry = telemetry.Telemetry
	// TelemetryOptions configures a Telemetry handle: the slow-resolve
	// exemplar threshold and the slog logger it writes to.
	TelemetryOptions = telemetry.Options
	// Trace is a per-request span record: attach one to a context with
	// ContextWithTrace and Store.ResolveContext fills in per-stage
	// durations under the request's trace ID.
	Trace = telemetry.Trace
)

// NewTelemetry builds a telemetry handle with every store metric
// family registered.
func NewTelemetry(opts TelemetryOptions) *Telemetry { return telemetry.New(opts) }

// NewTrace returns a request trace. An empty id generates one.
func NewTrace(id string) *Trace { return telemetry.NewTrace(id) }

// ContextWithTrace attaches a request trace to a context for
// Store.ResolveContext.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return telemetry.WithTrace(ctx, t)
}

// TraceFromContext returns the trace attached to the context, or nil.
func TraceFromContext(ctx context.Context) *Trace { return telemetry.FromContext(ctx) }

// Language models.
type (
	// Client is the chat interface of all models.
	Client = llm.Client
	// Model is a simulated LLM.
	Model = llm.Model
	// Message is one chat turn.
	Message = llm.Message
	// Response is a chat reply with usage accounting.
	Response = llm.Response
	// Adapter is the state of a fine-tuned model variant.
	Adapter = llm.Adapter
)

// Model names of the study.
const (
	GPTMini = llm.GPTMini
	GPT4    = llm.GPT4
	GPT4o   = llm.GPT4o
	Llama2  = llm.Llama2
	Llama31 = llm.Llama31
	Mixtral = llm.Mixtral
)

// NewModel returns the simulated model with the given study name.
func NewModel(name string) (*Model, error) { return llm.New(name) }

// StudyModels lists the six models of the study.
func StudyModels() []string { return llm.StudyModels() }

// Prompt construction.
type (
	// Design is a zero-shot prompt design.
	Design = prompt.Design
	// Spec fully describes a prompt to build.
	Spec = prompt.Spec
	// Strategy selects the prompt formulation for a query's uncertain
	// candidate band: StrategyMatch (independent pairwise prompts),
	// StrategyCompare or StrategySelect (one grouped prompt per
	// escalated query). Set it via CascadeOptions.Strategy.
	Strategy = prompt.Strategy
)

// Uncertain-band prompt strategies.
const (
	StrategyMatch   = prompt.StrategyMatch
	StrategyCompare = prompt.StrategyCompare
	StrategySelect  = prompt.StrategySelect
)

// Strategies returns the uncertain-band strategies in ablation order.
func Strategies() []Strategy { return prompt.Strategies() }

// ParseStrategy maps a flag value ("match", "compare", "select"; ""
// selects StrategyMatch) to a Strategy.
func ParseStrategy(name string) (Strategy, error) { return prompt.ParseStrategy(name) }

// Designs returns the ten prompt designs of the study.
func Designs() []Design { return prompt.Designs() }

// DesignByName returns a design by its table name, e.g.
// "general-complex-force".
func DesignByName(name string) (Design, error) { return prompt.DesignByName(name) }

// Datasets.

// Dataset is one materialized benchmark.
type Dataset = datasets.Dataset

// LoadDataset materializes a benchmark by key: wdc, ab, wa, ag, ds,
// da.
func LoadDataset(key string) (*Dataset, error) { return datasets.Load(key) }

// DatasetKeys lists the benchmark keys in the paper's order.
func DatasetKeys() []string { return datasets.Keys() }

// In-context learning.

// NewRandomSelector selects demonstrations uniformly from the pool.
func NewRandomSelector(pool []Pair, seed string) DemoSelector { return icl.NewRandom(pool, seed) }

// NewRelatedSelector selects the most similar demonstrations by
// Generalized Jaccard similarity.
func NewRelatedSelector(pool []Pair) DemoSelector { return icl.NewRelated(pool) }

// NewHandpickedSelector serves a fixed, curated demonstration set.
func NewHandpickedSelector(demos []Pair) DemoSelector { return icl.NewHandpicked(demos) }

// CurateHandpicked emulates a data engineer curating diverse
// corner-case demonstrations from a training pool.
func CurateHandpicked(pool []Pair, n int) []Pair { return icl.CurateHandpicked(pool, n) }

// Matching rules.

// HandwrittenRules returns the handwritten rule set for a domain.
func HandwrittenRules(domain Domain) []string { return rules.Handwritten(domain) }

// LearnRules asks a model to derive matching rules from labelled
// examples.
func LearnRules(client Client, domain Domain, examples []Pair) ([]string, error) {
	return rules.Learn(client, domain, examples)
}

// Fine-tuning.

// FineTuneOptions configures FineTune.
type FineTuneOptions = finetune.Options

// FineTune fits an adapter for a model on a dataset (train +
// validation pools) and returns the fine-tuned client.
func FineTune(model string, ds *Dataset, opts FineTuneOptions) (*Model, error) {
	adapter, err := finetune.Train(model, ds, opts)
	if err != nil {
		return nil, err
	}
	return llm.NewFineTuned(model, adapter)
}

// Explanations.
type (
	// Explanation is a parsed structured explanation of a decision.
	Explanation = explain.Explanation
	// ExplanationAttribute is one attribute row of an explanation.
	ExplanationAttribute = explain.Attribute
)

// Explain runs the two-turn explanation conversation of the paper's
// Section 6 for one pair.
func Explain(client Client, design Design, domain Domain, pair Pair) (Explanation, error) {
	return explain.Generate(client, design, domain, pair)
}
