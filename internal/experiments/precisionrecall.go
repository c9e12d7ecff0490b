package experiments

import (
	"fmt"

	"llm4em/internal/datasets"
	"llm4em/internal/prompt"
)

// PrecisionRecall reports precision and recall for every zero-shot
// model/design/dataset combination. The paper's tables show F1 only
// and note that "the precision and recall results of all experiments
// are available in the project repository" (Section 2); this runner
// is that companion report.
func PrecisionRecall(s *Session) ([]*Table, error) {
	var out []*Table
	for _, key := range s.Cfg.datasets() {
		ds := datasets.MustLoad(key)
		t := &Table{
			ID:      "P/R (" + ds.Abbrev + ")",
			Title:   "Zero-shot precision/recall on " + ds.Name,
			Columns: append([]string{"Prompt"}, s.Cfg.models()...),
		}
		for _, d := range prompt.Designs() {
			row := []string{d.Name}
			for _, mn := range s.Cfg.models() {
				r, err := s.result(cell{model: mn, dataset: key, design: d})
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%.2f/%.2f", r.Confusion.Precision(), r.Confusion.Recall()))
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out, nil
}
