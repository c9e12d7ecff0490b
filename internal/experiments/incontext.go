package experiments

import (
	"llm4em/internal/datasets"
	"llm4em/internal/eval"
)

// fewShotRows enumerates the Table 5/6 row specification: the three
// selection heuristics at 6 and 10 shots, then the two rule kinds.
type fewShotRow struct {
	label  string
	method DemoMethod
	shots  int
	rules  RuleKind // set when shots == 0
}

func fewShotRowSpec() []fewShotRow {
	return []fewShotRow{
		{"Fewshot-related (6)", DemoRelated, 6, ""},
		{"Fewshot-related (10)", DemoRelated, 10, ""},
		{"Fewshot-random (6)", DemoRandom, 6, ""},
		{"Fewshot-random (10)", DemoRandom, 10, ""},
		{"Fewshot-handpicked (6)", DemoHandpicked, 6, ""},
		{"Fewshot-handpicked (10)", DemoHandpicked, 10, ""},
		{"Hand-written rules", "", 0, RulesHandwritten},
		{"Learned rules", "", 0, RulesLearned},
	}
}

// rowResult evaluates one Table 5 row cell.
func (s *Session) rowResult(row fewShotRow, model, dataset string) (float64, error) {
	if row.shots > 0 {
		r, err := s.FewShot(model, dataset, row.method, row.shots)
		if err != nil {
			return 0, err
		}
		return r.F1(), nil
	}
	r, err := s.WithRules(model, dataset, row.rules)
	if err != nil {
		return 0, err
	}
	return r.F1(), nil
}

// Table5 reproduces the few-shot and rule-based results per dataset,
// with the mean/standard-deviation block and the comparison rows
// against the best zero-shot prompt.
func Table5(s *Session) ([]*Table, error) {
	if err := s.PrefetchInContext(); err != nil {
		return nil, err
	}
	var out []*Table
	for _, key := range s.Cfg.datasets() {
		ds := datasets.MustLoad(key)
		t := &Table{
			ID:      "Table 5 (" + ds.Abbrev + ")",
			Title:   "Few-shot and rule-based F1 on " + ds.Name,
			Columns: append([]string{"Prompt"}, s.Cfg.models()...),
		}
		perModel := map[string][]float64{}
		bestFew := map[string]float64{}
		bestRules := map[string]float64{}
		for _, row := range fewShotRowSpec() {
			cells := []string{row.label}
			for _, mn := range s.Cfg.models() {
				f1, err := s.rowResult(row, mn, key)
				if err != nil {
					return nil, err
				}
				cells = append(cells, f2(f1))
				perModel[mn] = append(perModel[mn], f1)
				if row.shots > 0 {
					if f1 > bestFew[mn] {
						bestFew[mn] = f1
					}
				} else if f1 > bestRules[mn] {
					bestRules[mn] = f1
				}
			}
			t.AddRow(cells...)
		}
		meanRow, sdRow := []string{"Mean"}, []string{"Standard deviation"}
		zsRow := []string{"Best zero-shot"}
		dFew := []string{"Δ Few-shot/zero-shot"}
		dRules := []string{"Δ Rules/zero-shot"}
		for _, mn := range s.Cfg.models() {
			meanRow = append(meanRow, f2(eval.Mean(perModel[mn])))
			sdRow = append(sdRow, f2(eval.StdDev(perModel[mn])))
			_, best, err := s.BestZeroShot(mn, key)
			if err != nil {
				return nil, err
			}
			zsRow = append(zsRow, f2(best.F1()))
			dFew = append(dFew, signed(bestFew[mn]-best.F1()))
			dRules = append(dRules, signed(bestRules[mn]-best.F1()))
		}
		t.AddRow(meanRow...)
		t.AddRow(sdRow...)
		t.AddRow(zsRow...)
		t.AddRow(dFew...)
		t.AddRow(dRules...)
		out = append(out, t)
	}
	return out, nil
}

// Table6 reproduces the in-context learning means over all datasets.
func Table6(s *Session) (*Table, error) {
	if err := s.PrefetchInContext(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Table 6",
		Title:   "Mean few-shot and rule-based F1 over all datasets",
		Columns: append([]string{"Prompt"}, s.Cfg.models()...),
	}
	perModel := map[string][]float64{}
	bestFew := map[string]float64{}
	bestRules := map[string]float64{}
	for _, row := range fewShotRowSpec() {
		cells := []string{row.label}
		for _, mn := range s.Cfg.models() {
			var xs []float64
			for _, key := range s.Cfg.datasets() {
				f1, err := s.rowResult(row, mn, key)
				if err != nil {
					return nil, err
				}
				xs = append(xs, f1)
			}
			avg := eval.Mean(xs)
			cells = append(cells, f2(avg))
			perModel[mn] = append(perModel[mn], avg)
			if row.shots > 0 {
				if avg > bestFew[mn] {
					bestFew[mn] = avg
				}
			} else if avg > bestRules[mn] {
				bestRules[mn] = avg
			}
		}
		t.AddRow(cells...)
	}
	meanRow, sdRow := []string{"Mean"}, []string{"Standard deviation"}
	zsRow := []string{"Best zero-shot (mean)"}
	dFew := []string{"Δ Few-shot/zero-shot"}
	dRules := []string{"Δ Rules/zero-shot"}
	for _, mn := range s.Cfg.models() {
		meanRow = append(meanRow, f2(eval.Mean(perModel[mn])))
		sdRow = append(sdRow, f2(eval.StdDev(perModel[mn])))
		var zs []float64
		for _, key := range s.Cfg.datasets() {
			_, best, err := s.BestZeroShot(mn, key)
			if err != nil {
				return nil, err
			}
			zs = append(zs, best.F1())
		}
		zsMean := eval.Mean(zs)
		zsRow = append(zsRow, f2(zsMean))
		dFew = append(dFew, signed(bestFew[mn]-zsMean))
		dRules = append(dRules, signed(bestRules[mn]-zsMean))
	}
	t.AddRow(meanRow...)
	t.AddRow(sdRow...)
	t.AddRow(zsRow...)
	t.AddRow(dFew...)
	t.AddRow(dRules...)
	return t, nil
}

// Table7 reproduces the fine-tuning results: each fine-tunable model
// is trained on each dataset and applied to every dataset's test
// split, followed by the Δ rows against the best zero-shot prompt and
// against GPT-4's best zero-shot.
func Table7(s *Session, ftModels []string) (*Table, error) {
	keys := s.Cfg.datasets()
	abbrevs := make([]string, len(keys))
	for i, k := range keys {
		abbrevs[i] = datasets.MustLoad(k).Abbrev
	}
	t := &Table{
		ID:      "Table 7",
		Title:   "Fine-tuning and transfer to all datasets (F1)",
		Columns: append([]string{"Fine-tuned on", "Model"}, abbrevs...),
	}
	// ownBest[model][dataset] = best F1 across training sources when
	// evaluated on that dataset (used for the Δ rows, which the paper
	// computes from the per-dataset fine-tuning results).
	diag := map[string]map[string]float64{}
	for _, mn := range ftModels {
		diag[mn] = map[string]float64{}
	}
	for _, trainKey := range keys {
		for _, mn := range ftModels {
			row := []string{datasets.MustLoad(trainKey).Name, mn}
			for _, evalKey := range keys {
				r, err := s.FineTuned(mn, trainKey, evalKey)
				if err != nil {
					return nil, err
				}
				row = append(row, f2(r.F1()))
				if trainKey == evalKey {
					diag[mn][evalKey] = r.F1()
				}
			}
			t.AddRow(row...)
		}
	}
	// Reference rows.
	for _, mn := range ftModels {
		row := []string{"Best zero-shot", mn}
		for _, key := range keys {
			_, best, err := s.BestZeroShot(mn, key)
			if err != nil {
				return nil, err
			}
			row = append(row, f2(best.F1()))
		}
		t.AddRow(row...)
	}
	for _, mn := range ftModels {
		row := []string{"Δ best zero-shot", mn}
		for _, key := range keys {
			_, best, err := s.BestZeroShot(mn, key)
			if err != nil {
				return nil, err
			}
			row = append(row, signed(diag[mn][key]-best.F1()))
		}
		t.AddRow(row...)
	}
	gpt4Row := []string{"Best GPT-4 zero-shot", ""}
	for _, key := range keys {
		_, best, err := s.BestZeroShot("GPT-4", key)
		if err != nil {
			return nil, err
		}
		gpt4Row = append(gpt4Row, f2(best.F1()))
	}
	for _, mn := range ftModels {
		row := []string{"Δ best GPT-4", mn}
		for _, key := range keys {
			_, best, err := s.BestZeroShot("GPT-4", key)
			if err != nil {
				return nil, err
			}
			row = append(row, signed(diag[mn][key]-best.F1()))
		}
		t.AddRow(row...)
	}
	t.AddRow(gpt4Row...)
	return t, nil
}

// FTDefaults returns the fine-tunable models of the study in the
// paper's row order.
func FTDefaults() []string { return []string{"Llama2", "Llama3.1", "GPT-mini"} }
