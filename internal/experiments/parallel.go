package experiments

import (
	"llm4em/internal/pipeline"
	"llm4em/internal/prompt"
)

// runParallel executes job(0..n-1) on the shared pipeline worker pool
// (bounded by GOMAXPROCS — experiment evaluations are CPU-bound local
// simulation) and returns the first error. Jobs must be independent;
// all experiment evaluations are pure and their results land in the
// session cache, so parallel prefetching never changes results — it
// only reorders when they are computed.
func runParallel(n int, job func(i int) error) error {
	return pipeline.ForEach(n, 0, job)
}

// PrefetchZeroShot evaluates the full zero-shot grid (models × prompt
// designs × datasets) in parallel, filling the session cache so that
// subsequent table construction is pure lookup.
func (s *Session) PrefetchZeroShot() error {
	type job struct {
		model   string
		design  prompt.Design
		dataset string
	}
	var jobs []job
	for _, mn := range s.Cfg.models() {
		for _, d := range prompt.Designs() {
			for _, key := range s.Cfg.datasets() {
				jobs = append(jobs, job{mn, d, key})
			}
		}
	}
	return runParallel(len(jobs), func(i int) error {
		_, err := s.ZeroShot(jobs[i].model, jobs[i].design, jobs[i].dataset)
		return err
	})
}

// PrefetchInContext evaluates the Section 4 grid (few-shot methods ×
// shot counts plus both rule kinds, per model and dataset) in
// parallel. Workers that need one rule set or demonstration selector
// share its single computation through the session cache.
func (s *Session) PrefetchInContext() error {
	type job struct {
		model, dataset string
		method         DemoMethod
		shots          int
		rules          RuleKind
	}
	var jobs []job
	for _, mn := range s.Cfg.models() {
		for _, key := range s.Cfg.datasets() {
			for _, method := range DemoMethods() {
				for _, k := range []int{6, 10} {
					jobs = append(jobs, job{model: mn, dataset: key, method: method, shots: k})
				}
			}
			for _, kind := range []RuleKind{RulesHandwritten, RulesLearned} {
				jobs = append(jobs, job{model: mn, dataset: key, rules: kind})
			}
		}
	}
	return runParallel(len(jobs), func(i int) error {
		j := jobs[i]
		if j.shots > 0 {
			_, err := s.FewShot(j.model, j.dataset, j.method, j.shots)
			return err
		}
		_, err := s.WithRules(j.model, j.dataset, j.rules)
		return err
	})
}
