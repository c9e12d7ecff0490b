package experiments

import (
	"fmt"

	"llm4em/internal/datasets"
	"llm4em/internal/eval"
	"llm4em/internal/plm"
	"llm4em/internal/prompt"
)

// Table1 reproduces the dataset statistics table.
func Table1(cfg Config) *Table {
	t := &Table{
		ID:    "Table 1",
		Title: "Statistics for all datasets",
		Columns: []string{
			"Dataset", "Train #Pos", "Train #Neg",
			"Val #Pos", "Val #Neg", "Test #Pos", "Test #Neg",
		},
	}
	for _, key := range cfg.datasets() {
		ds := datasets.MustLoad(key)
		c := ds.Counts()
		t.AddRow(
			fmt.Sprintf("(%s) - %s", ds.Abbrev, ds.Name),
			fmt.Sprintf("%d", c.TrainPos), fmt.Sprintf("%d", c.TrainNeg),
			fmt.Sprintf("%d", c.ValPos), fmt.Sprintf("%d", c.ValNeg),
			fmt.Sprintf("%d", c.TestPos), fmt.Sprintf("%d", c.TestNeg),
		)
	}
	return t
}

// Table2 reproduces the zero-shot results: one table per dataset with
// F1 per prompt design and model, plus the per-model mean and
// standard deviation rows.
func Table2(s *Session) ([]*Table, error) {
	if err := s.prefetch(s.zeroShotCells()); err != nil {
		return nil, err
	}
	var out []*Table
	for _, key := range s.Cfg.datasets() {
		ds := datasets.MustLoad(key)
		t := &Table{
			ID:      "Table 2 (" + ds.Abbrev + ")",
			Title:   "Zero-shot F1 on " + ds.Name,
			Columns: append([]string{"Prompt"}, s.Cfg.models()...),
		}
		perModel := map[string][]float64{}
		for _, d := range prompt.Designs() {
			row := []string{d.Name}
			for _, mn := range s.Cfg.models() {
				r, err := s.result(cell{model: mn, dataset: key, design: d})
				if err != nil {
					return nil, err
				}
				row = append(row, f2(r.F1()))
				perModel[mn] = append(perModel[mn], r.F1())
			}
			t.AddRow(row...)
		}
		meanRow, sdRow := []string{"Mean"}, []string{"Standard deviation"}
		for _, mn := range s.Cfg.models() {
			meanRow = append(meanRow, f2(eval.Mean(perModel[mn])))
			sdRow = append(sdRow, f2(eval.StdDev(perModel[mn])))
		}
		t.AddRow(meanRow...)
		t.AddRow(sdRow...)
		out = append(out, t)
	}
	return out, nil
}

// Table3 reproduces the zero-shot averages over all datasets.
func Table3(s *Session) (*Table, error) {
	if err := s.prefetch(s.zeroShotCells()); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Table 3",
		Title:   "Average zero-shot F1 over all datasets",
		Columns: append([]string{"Prompt"}, s.Cfg.models()...),
	}
	perModel := map[string][]float64{}
	for _, d := range prompt.Designs() {
		row := []string{d.Name}
		for _, mn := range s.Cfg.models() {
			var xs []float64
			for _, key := range s.Cfg.datasets() {
				r, err := s.result(cell{model: mn, dataset: key, design: d})
				if err != nil {
					return nil, err
				}
				xs = append(xs, r.F1())
			}
			avg := eval.Mean(xs)
			row = append(row, f2(avg))
			perModel[mn] = append(perModel[mn], avg)
		}
		t.AddRow(row...)
	}
	meanRow, sdRow := []string{"Mean"}, []string{"Standard deviation"}
	for _, mn := range s.Cfg.models() {
		meanRow = append(meanRow, f2(eval.Mean(perModel[mn])))
		sdRow = append(sdRow, f2(eval.StdDev(perModel[mn])))
	}
	t.AddRow(meanRow...)
	t.AddRow(sdRow...)
	return t, nil
}

// Table4 reproduces the comparison of the best zero-shot prompt per
// model with the PLM baselines, including the unseen-entity transfer
// rows: every PLM fine-tuned on a non-WDC dataset is applied to the
// WDC Products test set.
func Table4(s *Session) (*Table, error) {
	keys := s.Cfg.datasets()
	abbrevs := make([]string, len(keys))
	for i, k := range keys {
		abbrevs[i] = datasets.MustLoad(k).Abbrev
	}
	t := &Table{
		ID:      "Table 4",
		Title:   "Best zero-shot prompt per model vs. PLM baselines (F1)",
		Columns: append([]string{"Model"}, abbrevs...),
	}

	bestLLM := map[string]float64{}
	for _, mn := range s.Cfg.models() {
		row := []string{mn}
		for _, key := range keys {
			_, r, err := s.BestZeroShot(mn, key)
			if err != nil {
				return nil, err
			}
			f1 := r.F1()
			row = append(row, f2(f1))
			if f1 > bestLLM[key] {
				bestLLM[key] = f1
			}
		}
		t.AddRow(row...)
	}

	bestPLM := map[string]float64{}
	for _, variant := range []plm.Variant{plm.RoBERTa, plm.Ditto} {
		row := []string{variant.String()}
		for _, key := range keys {
			m := s.PLM(variant, key)
			f1 := m.Evaluate(s.Cfg.testPairs(datasets.MustLoad(key))).F1()
			row = append(row, f2(f1))
			if f1 > bestPLM[key] {
				bestPLM[key] = f1
			}
		}
		t.AddRow(row...)
	}

	deltaRow := []string{"Δ best LLM/PLM"}
	for _, key := range keys {
		deltaRow = append(deltaRow, signed(bestLLM[key]-bestPLM[key]))
	}
	t.AddRow(deltaRow...)

	// Unseen-entity transfer: models fine-tuned on the other datasets
	// applied to the WDC Products test split.
	if containsString(keys, "wdc") {
		wdcTest := s.Cfg.testPairs(datasets.MustLoad("wdc"))
		for _, variant := range []plm.Variant{plm.RoBERTa, plm.Ditto} {
			row := []string{variant.String() + " unseen"}
			deltas := []string{"Δ " + variant.String() + " unseen"}
			for _, key := range keys {
				if key == "wdc" {
					row = append(row, "-")
					deltas = append(deltas, "-")
					continue
				}
				m := s.PLM(variant, key)
				f1 := m.Evaluate(wdcTest).F1()
				row = append(row, f2(f1))
				inDomain := m.Evaluate(s.Cfg.testPairs(datasets.MustLoad(key))).F1()
				deltas = append(deltas, signed(f1-inDomain))
			}
			t.AddRow(row...)
			t.AddRow(deltas...)
		}
	}
	return t, nil
}

func containsString(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
