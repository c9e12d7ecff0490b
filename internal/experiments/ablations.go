package experiments

import (
	"fmt"

	"llm4em/internal/core"
	"llm4em/internal/cost"
	"llm4em/internal/datasets"
	"llm4em/internal/entity"
	"llm4em/internal/llm"
	"llm4em/internal/promptsearch"
)

// AblationSerialization tests the serialization design choice of
// Section 2: the paper found that adding attribute names to the
// serialized strings hurt performance in early experiments and
// therefore concatenates bare values. The ablation compares both
// serializations per model on a dataset.
func AblationSerialization(s *Session, dataset string) (*Table, error) {
	ds := datasets.MustLoad(dataset)
	t := &Table{
		ID:      "Ablation A1",
		Title:   "Serialization with vs. without attribute names, " + ds.Name + " (F1)",
		Columns: []string{"Model", "Values only (paper)", "With attribute names", "Δ"},
	}
	design := mustDesign("general-complex-force")
	pairs := s.Cfg.testPairs(ds)
	for _, mn := range s.Cfg.models() {
		m := &core.Matcher{Client: s.Model(mn), Design: design, Domain: ds.Schema.Domain, Workers: s.Cfg.Workers}
		plain, err := m.Evaluate(pairs)
		if err != nil {
			return nil, err
		}
		named, err := m.Evaluate(withNamedSerialization(pairs, ds.Schema))
		if err != nil {
			return nil, err
		}
		t.AddRow(mn, f2(plain.F1()), f2(named.F1()), signed(named.F1()-plain.F1()))
	}
	return t, nil
}

// withNamedSerialization rewrites pairs so that each attribute value
// is prefixed with its attribute name ("brand: Sony title: ...").
func withNamedSerialization(pairs []entity.Pair, schema entity.Schema) []entity.Pair {
	out := make([]entity.Pair, len(pairs))
	for i, p := range pairs {
		out[i] = entity.Pair{ID: p.ID, A: nameRecord(p.A), B: nameRecord(p.B), Match: p.Match}
	}
	return out
}

func nameRecord(r entity.Record) entity.Record {
	cp := r.Clone()
	for i := range cp.Attrs {
		if cp.Attrs[i].Value != "" {
			cp.Attrs[i].Value = cp.Attrs[i].Name + ": " + cp.Attrs[i].Value
		}
	}
	return cp
}

// AblationShots sweeps the demonstration count of in-context learning
// (the paper evaluates 6 and 10; the sweep shows the full curve).
func AblationShots(s *Session, dataset string, model string) (*Table, error) {
	ds := datasets.MustLoad(dataset)
	t := &Table{
		ID:      "Ablation A2",
		Title:   fmt.Sprintf("Shot-count sweep for %s on %s (related demonstrations)", model, ds.Name),
		Columns: []string{"Shots", "F1", "Mean prompt tokens"},
	}
	_, zs, err := s.BestZeroShot(model, dataset)
	if err != nil {
		return nil, err
	}
	t.AddRow("0 (best zero-shot)", f2(zs.F1()), fmt.Sprintf("%.0f", zs.MeanPromptTokens()))
	sel := s.selector(DemoRelated, dataset)
	pairs := s.Cfg.testPairs(ds)
	for _, k := range []int{2, 4, 6, 8, 10} {
		m := &core.Matcher{
			Client:  s.Model(model),
			Design:  fewShotDesign,
			Domain:  ds.Schema.Domain,
			Demos:   sel,
			Shots:   k,
			Workers: s.Cfg.Workers,
		}
		r, err := m.Evaluate(pairs)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", k), f2(r.F1()), fmt.Sprintf("%.0f", r.MeanPromptTokens()))
	}
	return t, nil
}

// AblationBatch sweeps the batch size of batched matching (Fan et
// al., Section 8): per-pair cost falls with batch size while F1
// degrades.
func AblationBatch(s *Session, dataset, model string) (*Table, error) {
	ds := datasets.MustLoad(dataset)
	t := &Table{
		ID:      "Ablation A3",
		Title:   fmt.Sprintf("Batched matching for %s on %s", model, ds.Name),
		Columns: []string{"Batch size", "F1", "Prompt tok/pair", "Cost/pair (¢)"},
	}
	pairs := s.Cfg.testPairs(ds)
	pricing, hosted := cost.For(model)
	for _, size := range []int{1, 2, 5, 10, 20} {
		m := &core.BatchMatcher{Client: s.Model(model), Domain: ds.Schema.Domain, BatchSize: size}
		r, err := m.Evaluate(pairs)
		if err != nil {
			return nil, err
		}
		perPairPrompt := float64(r.PromptTokens) / float64(len(pairs))
		costCell := "-"
		if hosted {
			perPairCompl := float64(r.CompletionTokens) / float64(len(pairs))
			costCell = fmt.Sprintf("%.4f", cost.PerPromptCents(pricing, perPairPrompt, perPairCompl))
		}
		t.AddRow(fmt.Sprintf("%d", size), f2(r.F1()), fmt.Sprintf("%.0f", perPairPrompt), costCell)
	}
	return t, nil
}

// AblationAdditionalModels evaluates the extra models of the project
// repository (GPT3.5-turbo, SOLAR, StableBeluga2) with their best
// zero-shot prompt per dataset.
func AblationAdditionalModels(s *Session) (*Table, error) {
	keys := s.Cfg.datasets()
	abbrevs := make([]string, len(keys))
	for i, k := range keys {
		abbrevs[i] = datasets.MustLoad(k).Abbrev
	}
	t := &Table{
		ID:      "Ablation A4",
		Title:   "Best zero-shot F1 of the additional repository models",
		Columns: append([]string{"Model"}, abbrevs...),
	}
	for _, mn := range llm.AdditionalModels() {
		row := []string{mn}
		for _, key := range keys {
			_, r, err := s.BestZeroShot(mn, key)
			if err != nil {
				return nil, err
			}
			row = append(row, f2(r.F1()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationPromptSearch runs the automated prompt tuning the paper
// cites as an improvement direction (Section 3, Promptbreeder): an
// evolutionary search over task phrasings on the validation split,
// with the winners re-evaluated on the test split against the best
// fixed design.
func AblationPromptSearch(s *Session, dataset, model string) (*Table, error) {
	ds := datasets.MustLoad(dataset)
	client := s.Model(model)
	pop, err := promptsearch.Search(client, ds.Schema.Domain, ds.Val, promptsearch.Options{
		Generations: 4, Population: 8, ValidationPairs: 250, Seed: "ablation",
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Ablation A5",
		Title:   fmt.Sprintf("Evolved prompts for %s on %s (validation-selected, test-evaluated)", model, ds.Name),
		Columns: []string{"Prompt", "Force", "Val F1", "Test F1"},
	}
	_, best, err := s.BestZeroShot(model, dataset)
	if err != nil {
		return nil, err
	}
	t.AddRow("(best fixed design)", "-", "-", f2(best.F1()))
	pairs := s.Cfg.testPairs(ds)
	// Report the top three distinct candidates.
	var top []promptsearch.Candidate
	seen := map[string]bool{}
	for _, c := range pop {
		key := fmt.Sprintf("%s|%v", c.Task, c.Force)
		if seen[key] {
			continue
		}
		seen[key] = true
		top = append(top, c)
		if len(top) == 3 {
			break
		}
	}
	for _, c := range top {
		f1, err := promptsearch.Evaluate(client, ds.Schema.Domain, c, pairs)
		if err != nil {
			return nil, err
		}
		t.AddRow(c.Task, fmt.Sprintf("%v", c.Force), f2(c.F1), f2(f1))
	}
	return t, nil
}

// Ablations runs all ablation studies on their default targets.
func Ablations(s *Session) ([]*Table, error) {
	var out []*Table
	a1, err := AblationSerialization(s, "wdc")
	if err != nil {
		return nil, err
	}
	out = append(out, a1)
	a2, err := AblationShots(s, "wdc", llm.GPT4o)
	if err != nil {
		return nil, err
	}
	out = append(out, a2)
	a3, err := AblationBatch(s, "wdc", llm.GPTMini)
	if err != nil {
		return nil, err
	}
	out = append(out, a3)
	a4, err := AblationAdditionalModels(s)
	if err != nil {
		return nil, err
	}
	out = append(out, a4)
	a5, err := AblationPromptSearch(s, "wdc", llm.Mixtral)
	if err != nil {
		return nil, err
	}
	return append(out, a5), nil
}
