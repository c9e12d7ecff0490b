package experiments

import (
	"fmt"
	"sync"

	"llm4em/internal/core"
	"llm4em/internal/datasets"
	"llm4em/internal/entity"
	"llm4em/internal/finetune"
	"llm4em/internal/icl"
	"llm4em/internal/llm"
	"llm4em/internal/pipeline"
	"llm4em/internal/plm"
	"llm4em/internal/prompt"
	"llm4em/internal/rules"
)

// Session caches the expensive shared inputs of the table runners.
// All cached computations are deterministic, so caching never changes
// results.
type Session struct {
	Cfg Config

	mu    sync.Mutex
	cache map[string]*cacheEntry
}

// cacheEntry is one value of the session cache; ready is closed once
// val and err are filled in.
type cacheEntry struct {
	ready chan struct{}
	val   any
	err   error
}

// NewSession prepares a session for the configuration.
func NewSession(cfg Config) *Session {
	if cfg.FTEpochs == 0 {
		cfg.FTEpochs = 10
	}
	return &Session{Cfg: cfg, cache: map[string]*cacheEntry{}}
}

// cached returns the value of key, computing it on first use.
// Concurrent callers of one key wait for a single computation. A
// failed computation is not kept: its waiters get the error and the
// next call computes again. No lock is held while compute runs, so it
// may call cached for other keys. Keys start with the name of the
// cached kind, which keeps the value types apart.
func cached[T any](s *Session, key string, compute func() (T, error)) (T, error) {
	s.mu.Lock()
	e, ok := s.cache[key]
	if !ok {
		e = &cacheEntry{ready: make(chan struct{})}
		s.cache[key] = e
	}
	s.mu.Unlock()
	if !ok {
		e.val, e.err = compute()
		if e.err != nil {
			s.mu.Lock()
			delete(s.cache, key)
			s.mu.Unlock()
		}
		close(e.ready)
	}
	<-e.ready
	if e.err != nil {
		var zero T
		return zero, e.err
	}
	v, _ := e.val.(T) // a nil interface value is stored as a nil any
	return v, nil
}

// Model returns the (cached) simulated model.
func (s *Session) Model(name string) *llm.Model {
	m, _ := cached(s, "model|"+name, func() (*llm.Model, error) {
		return llm.MustNew(name), nil
	})
	return m
}

// cell is one matcher configuration of the evaluation grid: a model
// on a dataset's capped test split under a prompt design, optionally
// with demonstrations, rules or an adapter fine-tuned on trainedOn.
type cell struct {
	model, dataset string
	// design is the prompt design; the zero value selects
	// fewShotDesign, or ftDesign when trainedOn is set.
	design prompt.Design
	// demos selects shots demonstrations per query (Section 4.1).
	demos DemoMethod
	shots int
	// rules adds a rule set to the prompt (Section 4.2).
	rules RuleKind
	// trainedOn fine-tunes the model on this dataset (Section 4.3).
	trainedOn string
	// named serializes attribute names with their values (Ablation A1).
	named bool
	// keep retains the per-pair decisions in the result.
	keep bool
}

// result evaluates one cell. It builds the harness's only
// core.Matcher, and the cache key names the resolved design, so a cell
// reached from two tables is computed once.
func (s *Session) result(c cell) (core.Result, error) {
	if c.design.Name == "" {
		c.design = fewShotDesign
		if c.trainedOn != "" {
			c.design = ftDesign
		}
	}
	key := fmt.Sprintf("result|%s|%s|%s|%s|%d|%s|%s|%t|%t",
		c.model, c.dataset, c.design.Name, c.demos, c.shots, c.rules, c.trainedOn, c.named, c.keep)
	return cached(s, key, func() (core.Result, error) {
		ds := datasets.MustLoad(c.dataset)
		m := &core.Matcher{Client: s.Model(c.model), Design: c.design, Domain: ds.Schema.Domain, Workers: s.Cfg.Workers}
		if c.shots > 0 {
			m.Demos, m.Shots = s.selector(c.demos, c.dataset), c.shots
		}
		var err error
		if c.rules != "" {
			if m.Rules, err = s.RuleSet(c.rules, ds.Schema.Domain); err != nil {
				return core.Result{}, err
			}
		}
		if c.trainedOn != "" {
			adapter, err := s.Adapter(c.model, c.trainedOn)
			if err != nil {
				return core.Result{}, err
			}
			if m.Client, err = llm.NewFineTuned(c.model, adapter); err != nil {
				return core.Result{}, err
			}
		}
		pairs := s.Cfg.testPairs(ds)
		if c.named {
			pairs = withNamedSerialization(pairs)
		}
		evaluate := m.Evaluate
		if c.keep {
			evaluate = m.EvaluateKeeping
		}
		r, err := evaluate(pairs)
		if err != nil {
			return core.Result{}, fmt.Errorf("experiments: evaluate %s: %w", key, err)
		}
		return r, nil
	})
}

// on returns the cell for a model and dataset.
func (c cell) on(model, dataset string) cell {
	c.model, c.dataset = model, dataset
	return c
}

// f1 is the F1 of a cell's result.
func (s *Session) f1(c cell) (float64, error) {
	r, err := s.result(c)
	return r.F1(), err
}

// prefetch evaluates cells on the shared worker pool, bounded by
// GOMAXPROCS (the evaluations are CPU-bound local simulation), and
// returns the first error. Every result lands in the session cache, so
// prefetching never changes a table; it only reorders when cells are
// computed.
func (s *Session) prefetch(cells []cell) error {
	return pipeline.ForEach(len(cells), 0, func(i int) error {
		_, err := s.result(cells[i])
		return err
	})
}

// zeroShotCells enumerates the zero-shot grid of Tables 2–4: models ×
// prompt designs × datasets.
func (s *Session) zeroShotCells() []cell {
	var cells []cell
	for _, mn := range s.Cfg.models() {
		for _, d := range prompt.Designs() {
			for _, key := range s.Cfg.datasets() {
				cells = append(cells, cell{model: mn, dataset: key, design: d})
			}
		}
	}
	return cells
}

// inContextCells enumerates the Section 4 grid of Tables 5 and 6: every
// fewShotRowSpec row per model and dataset.
func (s *Session) inContextCells() []cell {
	var cells []cell
	for _, mn := range s.Cfg.models() {
		for _, key := range s.Cfg.datasets() {
			for _, row := range fewShotRowSpec() {
				cells = append(cells, row.cell.on(mn, key))
			}
		}
	}
	return cells
}

// BestZeroShot returns the best zero-shot design and its result for a
// model/dataset combination, evaluating all ten designs.
func (s *Session) BestZeroShot(model, dataset string) (prompt.Design, core.Result, error) {
	var bestDesign prompt.Design
	var best core.Result
	bestF1 := -1.0
	for _, d := range prompt.Designs() {
		r, err := s.result(cell{model: model, dataset: dataset, design: d})
		if err != nil {
			return prompt.Design{}, core.Result{}, err
		}
		if r.F1() > bestF1 {
			bestF1, best, bestDesign = r.F1(), r, d
		}
	}
	return bestDesign, best, nil
}

// DemoMethod identifies a demonstration selection heuristic of
// Section 4.1.
type DemoMethod string

// The three selection heuristics.
const (
	DemoRelated    DemoMethod = "related"
	DemoRandom     DemoMethod = "random"
	DemoHandpicked DemoMethod = "handpicked"
)

// DemoMethods returns the heuristics in the paper's row order.
func DemoMethods() []DemoMethod {
	return []DemoMethod{DemoRelated, DemoRandom, DemoHandpicked}
}

// selector returns the (cached) demonstration selector for a dataset
// and method. Hand-picked demonstrations come from the WDC Products
// training pool for product datasets and from DBLP-Scholar for
// publication datasets, as in the paper.
func (s *Session) selector(method DemoMethod, dataset string) core.DemoSelector {
	sel, _ := cached(s, "selector|"+string(method)+"|"+dataset, func() (core.DemoSelector, error) {
		ds := datasets.MustLoad(dataset)
		var sel core.DemoSelector
		switch method {
		case DemoRandom:
			sel = icl.NewRandom(ds.TrainVal(), dataset)
		case DemoRelated:
			sel = icl.NewRelated(ds.TrainVal())
		case DemoHandpicked:
			sourceKey := "wdc"
			if ds.Schema.Domain == entity.Publication {
				sourceKey = "ds"
			}
			source := datasets.MustLoad(sourceKey)
			sel = icl.NewHandpicked(icl.CurateHandpicked(source.Train, 10))
		default:
			panic("experiments: unknown demo method " + string(method))
		}
		// Selection depends only on the query and k, not on the model;
		// memoize it so the six models share one selection pass.
		return &memoSelector{inner: sel}, nil
	})
	return sel
}

// memoSelector caches one maximal demonstration selection per query
// and derives smaller shot counts by balanced slicing, so the six
// models and both shot counts share a single selection pass.
type memoSelector struct {
	inner core.DemoSelector
	mu    sync.Mutex
	cache map[string][]entity.Pair
}

// maxShots is the largest shot count of the study (Section 4.1).
const maxShots = 10

// Select implements core.DemoSelector with memoization.
func (m *memoSelector) Select(query entity.Pair, k int) []entity.Pair {
	m.mu.Lock()
	if m.cache == nil {
		m.cache = map[string][]entity.Pair{}
	}
	full, ok := m.cache[query.ID]
	m.mu.Unlock()
	if !ok {
		full = m.inner.Select(query, maxShots)
		m.mu.Lock()
		m.cache[query.ID] = full
		m.mu.Unlock()
	}
	if k >= len(full) {
		return full
	}
	// Balanced prefix: (k+1)/2 matches and k/2 non-matches in the
	// cached order.
	nPos, nNeg := (k+1)/2, k/2
	out := make([]entity.Pair, 0, k)
	for _, d := range full {
		switch {
		case d.Match && nPos > 0:
			out = append(out, d)
			nPos--
		case !d.Match && nNeg > 0:
			out = append(out, d)
			nNeg--
		}
		if nPos == 0 && nNeg == 0 {
			break
		}
	}
	return out
}

// fewShotDesign is the prompt design used for the Section 4
// experiments.
var fewShotDesign = mustDesign("general-complex-force")

// ftDesign is the prompt design used for fine-tuning (Section 4.3).
var ftDesign = mustDesign("domain-simple-force")

func mustDesign(name string) prompt.Design {
	d, err := prompt.DesignByName(name)
	if err != nil {
		panic(err)
	}
	return d
}

// RuleKind distinguishes handwritten from learned rules.
type RuleKind string

// The two rule sources of Section 4.2.
const (
	RulesHandwritten RuleKind = "handwritten"
	RulesLearned     RuleKind = "learned"
)

// RuleSet returns the (cached) rule set of a kind for a domain.
// Learned rules are generated by GPT-4 from the hand-picked
// demonstration pool of the domain, per the paper.
func (s *Session) RuleSet(kind RuleKind, domain entity.Domain) ([]string, error) {
	return cached(s, "ruleset|"+string(kind)+"|"+domain.String(), func() ([]string, error) {
		if kind == RulesHandwritten {
			return rules.Handwritten(domain), nil
		}
		sourceKey := "wdc"
		if domain == entity.Publication {
			sourceKey = "ds"
		}
		examples := icl.CurateHandpicked(datasets.MustLoad(sourceKey).Train, 10)
		return rules.Learn(s.Model(llm.GPT4), domain, examples)
	})
}

// Adapter fine-tunes (or returns the cached adapter of) a model on a
// dataset.
func (s *Session) Adapter(model, dataset string) (llm.Adapter, error) {
	return cached(s, "adapter|"+model+"|"+dataset, func() (llm.Adapter, error) {
		return finetune.Train(model, datasets.MustLoad(dataset), finetune.Options{Epochs: s.Cfg.FTEpochs})
	})
}

// PLM trains (or returns the cached) baseline of a variant on a
// dataset, with its decision threshold fitted on the validation
// split.
func (s *Session) PLM(variant plm.Variant, dataset string) *plm.Model {
	m, _ := cached(s, "plm|"+variant.String()+"|"+dataset, func() (*plm.Model, error) {
		ds := datasets.MustLoad(dataset)
		m := plm.New(variant)
		m.Train(ds.TrainVal(), dataset, plm.DefaultOptions())
		m.FitThreshold(ds.Val)
		return m, nil
	})
	return m
}
