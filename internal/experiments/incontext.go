package experiments

import (
	"llm4em/internal/datasets"
	"llm4em/internal/eval"
)

// fewShotRow is one row of Tables 5 and 6: a label and the cell it
// evaluates per model and dataset.
type fewShotRow struct {
	label string
	cell  cell
}

// fewShotRowSpec enumerates the rows: the three selection heuristics
// at 6 and 10 shots, then the two rule kinds.
func fewShotRowSpec() []fewShotRow {
	return []fewShotRow{
		{"Fewshot-related (6)", cell{demos: DemoRelated, shots: 6}},
		{"Fewshot-related (10)", cell{demos: DemoRelated, shots: 10}},
		{"Fewshot-random (6)", cell{demos: DemoRandom, shots: 6}},
		{"Fewshot-random (10)", cell{demos: DemoRandom, shots: 10}},
		{"Fewshot-handpicked (6)", cell{demos: DemoHandpicked, shots: 6}},
		{"Fewshot-handpicked (10)", cell{demos: DemoHandpicked, shots: 10}},
		{"Hand-written rules", cell{rules: RulesHandwritten}},
		{"Learned rules", cell{rules: RulesLearned}},
	}
}

// Table5 reproduces the few-shot and rule-based results per dataset,
// with the mean/standard-deviation block and the comparison rows
// against the best zero-shot prompt.
func Table5(s *Session) ([]*Table, error) {
	if err := s.prefetch(s.inContextCells()); err != nil {
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
		err := s.inContextBody(t, "Best zero-shot", func(row fewShotRow, mn string) (float64, error) {
			return s.f1(row.cell.on(mn, key))
		}, func(mn string) (float64, error) {
			return s.bestZeroShotF1(mn, key)
		})
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// Table6 reproduces the in-context learning means over all datasets.
func Table6(s *Session) (*Table, error) {
	if err := s.prefetch(s.inContextCells()); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Table 6",
		Title:   "Mean few-shot and rule-based F1 over all datasets",
		Columns: append([]string{"Prompt"}, s.Cfg.models()...),
	}
	err := s.inContextBody(t, "Best zero-shot (mean)", func(row fewShotRow, mn string) (float64, error) {
		return s.meanOverDatasets(func(key string) (float64, error) { return s.f1(row.cell.on(mn, key)) })
	}, func(mn string) (float64, error) {
		return s.meanOverDatasets(func(key string) (float64, error) { return s.bestZeroShotF1(mn, key) })
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// inContextBody adds the Table 5/6 rows to t: one row per
// fewShotRowSpec entry with the F1 that rowF1 reports per model, then
// the Mean / Standard deviation block, the zeroShot F1 under zsLabel
// and the best few-shot and rule rows' Δ against it.
func (s *Session) inContextBody(t *Table, zsLabel string, rowF1 func(fewShotRow, string) (float64, error), zeroShot func(string) (float64, error)) error {
	perModel := map[string][]float64{}
	bestFew := map[string]float64{}
	bestRules := map[string]float64{}
	for _, row := range fewShotRowSpec() {
		cells := []string{row.label}
		best := bestRules
		if row.cell.shots > 0 {
			best = bestFew
		}
		for _, mn := range s.Cfg.models() {
			f1, err := rowF1(row, mn)
			if err != nil {
				return err
			}
			cells = append(cells, f2(f1))
			perModel[mn] = append(perModel[mn], f1)
			if f1 > best[mn] {
				best[mn] = f1
			}
		}
		t.AddRow(cells...)
	}
	meanRow, sdRow := []string{"Mean"}, []string{"Standard deviation"}
	zsRow := []string{zsLabel}
	dFew := []string{"Δ Few-shot/zero-shot"}
	dRules := []string{"Δ Rules/zero-shot"}
	for _, mn := range s.Cfg.models() {
		meanRow = append(meanRow, f2(eval.Mean(perModel[mn])))
		sdRow = append(sdRow, f2(eval.StdDev(perModel[mn])))
		zs, err := zeroShot(mn)
		if err != nil {
			return err
		}
		zsRow = append(zsRow, f2(zs))
		dFew = append(dFew, signed(bestFew[mn]-zs))
		dRules = append(dRules, signed(bestRules[mn]-zs))
	}
	for _, r := range [][]string{meanRow, sdRow, zsRow, dFew, dRules} {
		t.AddRow(r...)
	}
	return nil
}

// bestZeroShotF1 is the F1 of a model's best zero-shot prompt on a
// dataset.
func (s *Session) bestZeroShotF1(model, dataset string) (float64, error) {
	_, best, err := s.BestZeroShot(model, dataset)
	return best.F1(), err
}

// meanOverDatasets averages f over the configured datasets.
func (s *Session) meanOverDatasets(f func(key string) (float64, error)) (float64, error) {
	var xs []float64
	for _, key := range s.Cfg.datasets() {
		x, err := f(key)
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return eval.Mean(xs), nil
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
				r, err := s.result(cell{model: mn, dataset: evalKey, trainedOn: trainKey})
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
