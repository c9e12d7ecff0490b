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
// Every Matcher call (MatchPair, Evaluate, Stream) reaches the model
// through the same micro-batching dispatcher that serves the online
// store below, one pair per submission on a bounded worker pool, over
// an engine that deduplicates identical prompts through an LRU
// response cache and retries transient client errors with backoff.
// The Workers, CacheSize and MaxRetries fields of Matcher tune it;
// zero values select sensible defaults.
//
// For online serving, llm4em.NewStore returns an incremental
// entity-resolution store: records are indexed as they arrive,
// queries resolve against a sharded inverted IDF index, and a cascade
// matcher answers confident candidate pairs with a local calibrated
// scorer so only the uncertain band reaches the LLM. The uncertain
// band reaches the model through a cross-request micro-batching
// dispatcher; with StoreOptions.DispatchPairs above one it coalesces
// pairs from concurrent Resolve calls into batched prompts, cutting LLM
// round-trips under load. The emserve command exposes the store over
// HTTP JSON.
//
// Training data can be plugged in as in-context demonstrations
// (llm4em.NewRelatedSelector), textual matching rules
// (llm4em.HandwrittenRules) or fine-tuning (llm4em.FineTune). The six
// synthetic benchmark datasets of the paper are available through
// llm4em.LoadDataset, and the experiment harness regenerating the
// paper's tables through the emexperiments command.
//
// The facade exports what the commands, the examples and the Example
// tests use, plus the types those names take and return.
package llm4em

import (
	"context"

	"llm4em/internal/blocking"
	"llm4em/internal/core"
	"llm4em/internal/datasets"
	"llm4em/internal/entity"
	"llm4em/internal/explain"
	"llm4em/internal/finetune"
	"llm4em/internal/icl"
	"llm4em/internal/llm"
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
	// Decision is the outcome of matching one pair.
	Decision = core.Decision
	// Result aggregates an evaluation run.
	Result = core.Result
	// DemoSelector supplies in-context demonstrations.
	DemoSelector = core.DemoSelector
)

// ParseAnswer converts a model reply into a matching decision using
// the paper's rule (lower-case, parse for the word "yes").
func ParseAnswer(answer string) bool { return prompt.ParseAnswer(answer) }

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
	// prompt design, cascade, batching, persistence, resilience).
	StoreOptions = resolve.Options
	// CascadeOptions tunes the cascade matcher's accept/reject
	// thresholds, LLM/cost budgets, and the prompt strategy for the
	// uncertain band (Strategy, ReasonTier). Both thresholds negative
	// send every candidate pair to the LLM.
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
	// StorePersistStats snapshots the durability counters of a
	// persistent store: recovery counts, WAL and snapshot activity.
	StorePersistStats = resolve.PersistStats
	// BatchError reports a partially applied Store.AddBatch: Added
	// records are in the store, and errors.Is still matches the typed
	// cause (e.g. ErrDuplicateRecordID) through Unwrap.
	BatchError = resolve.BatchError
)

// BlockingOptions configures a store's candidate index and score
// floor (StoreOptions.Blocking); its zero value selects every default.
// The *float64 thresholds MinScore and StopDocFrac select the default
// when nil and are taken literally when set, so a pointer to 0
// requests a literal zero. The index itself has no representation
// knobs: postings are delta+varint streams and the scorer is chosen by
// index size.
type BlockingOptions = blocking.IndexOptions

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

// Fault tolerance. Every store wraps its LLM escalations in a circuit
// breaker and a concurrency shedder, tuned by StoreOptions.Resilience,
// and degrades gracefully when the backend is down: the
// uncertain band is answered by the local scorer, the decisions are
// marked Deferred, and a background re-escalator replays them against
// the LLM once the breaker closes — converging to the decisions a
// healthy run would have made. Store.ResolveContext propagates a
// per-request deadline into in-flight LLM work; Store.Degraded
// reports the active degraded mode for readiness probes.
type (
	// ResilienceOptions tunes the store's fault-tolerance layer
	// (breaker, shedder).
	ResilienceOptions = resolve.ResilienceOptions
	// BreakerOptions tunes the circuit breaker's trip and recovery
	// behaviour; its Cooldown also paces the re-escalator.
	BreakerOptions = resilience.BreakerOptions
	// ShedOptions bounds concurrent LLM escalations, and with them the
	// queue behind them.
	ShedOptions = resilience.ShedOptions
	// ResilienceStats snapshots the fault-tolerance layer inside
	// StoreStats: breaker state, shed counts, deferred queue depth.
	ResilienceStats = resolve.ResilienceStats
)

// Typed fault-tolerance errors, matched with errors.Is.
var (
	// ErrOverloaded marks an escalation rejected by the load shedder;
	// callers should retry later (emserve answers 503).
	ErrOverloaded = resilience.ErrShed
)

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
)

// Model names of the study.
const (
	GPTMini = llm.GPTMini
	GPT4    = llm.GPT4
	GPT4o   = llm.GPT4o
	Llama31 = llm.Llama31
	Mixtral = llm.Mixtral
)

// NewModel returns the simulated model with the given study name.
func NewModel(name string) (*Model, error) { return llm.New(name) }

// Prompt construction.
type (
	// Design is a zero-shot prompt design.
	Design = prompt.Design
	// Strategy selects the prompt formulation for a query's uncertain
	// candidate band: independent pairwise prompts ("match", the zero
	// value) or one grouped prompt per escalated query ("compare" or
	// "select"). Set it via CascadeOptions.Strategy; ParseStrategy
	// reads the names.
	Strategy = prompt.Strategy
)

// StrategyCompare answers all of a query's uncertain candidates with
// one grouped compare prompt.
const StrategyCompare = prompt.StrategyCompare

// ParseStrategy maps a flag value ("match", "compare", "select"; ""
// selects match) to a Strategy.
func ParseStrategy(name string) (Strategy, error) { return prompt.ParseStrategy(name) }

// DesignByName returns a design by its table name, e.g.
// "general-complex-force".
func DesignByName(name string) (Design, error) { return prompt.DesignByName(name) }

// Datasets.

// Dataset is one materialized benchmark.
type Dataset = datasets.Dataset

// LoadDataset materializes a benchmark by key: wdc, ab, wa, ag, ds,
// da.
func LoadDataset(key string) (*Dataset, error) { return datasets.Load(key) }

// In-context learning.

// NewRelatedSelector selects the most similar demonstrations by
// Generalized Jaccard similarity.
func NewRelatedSelector(pool []Pair) DemoSelector { return icl.NewRelated(pool) }

// Matching rules.

// HandwrittenRules returns the handwritten rule set for a domain.
func HandwrittenRules(domain Domain) []string { return rules.Handwritten(domain) }

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
