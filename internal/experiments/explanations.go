package experiments

import (
	"fmt"

	"llm4em/internal/core"
	"llm4em/internal/datasets"
	"llm4em/internal/errorclass"
	"llm4em/internal/explain"
	"llm4em/internal/llm"
)

// explanationData bundles the Section 6 artifacts for one dataset:
// per-pair decisions of the best GPT-4 zero-shot prompt and the
// structured explanations for every test pair.
type explanationData struct {
	decisions    []core.Decision
	explanations []explain.Explanation
}

var explainDatasets = []string{"ds", "wa"}

// explanations generates (or returns cached) Section 6 data for a
// dataset, using GPT-4 with its best zero-shot prompt, as the paper
// does.
func (s *Session) explanations(dataset string) (explanationData, error) {
	return cached(s, "explanations|"+dataset, func() (explanationData, error) {
		design, _, err := s.BestZeroShot(llm.GPT4, dataset)
		if err != nil {
			return explanationData{}, err
		}
		ds := datasets.MustLoad(dataset)
		pairs := s.Cfg.testPairs(ds)
		client := s.Model(llm.GPT4)
		matcher := &core.Matcher{Client: client, Design: design, Domain: ds.Schema.Domain, Workers: s.Cfg.Workers}
		res, err := matcher.EvaluateKeeping(pairs)
		if err != nil {
			return explanationData{}, err
		}
		exps, err := explain.GenerateAll(client, design, ds.Schema.Domain, pairs)
		if err != nil {
			return explanationData{}, err
		}
		return explanationData{decisions: res.Decisions, explanations: exps}, nil
	})
}

// Table10 reproduces the global attribute-importance insights for
// DBLP-Scholar and Walmart-Amazon, plus the Section 6.1 correlation
// of model-generated similarities with Cosine and Generalized Jaccard.
func Table10(s *Session) ([]*Table, error) {
	var out []*Table
	for _, key := range explainDatasets {
		ds := datasets.MustLoad(key)
		data, err := s.explanations(key)
		if err != nil {
			return nil, err
		}
		rows := explain.Aggregate(data.explanations)
		t := &Table{
			ID:    "Table 10 (" + ds.Abbrev + ")",
			Title: "Attribute importance for matches and non-matches, " + ds.Name,
			Columns: []string{
				"Attribute", "M Freq", "M Mean Imp", "M StdDev",
				"N Freq", "N Mean Imp", "N StdDev",
			},
		}
		limit := 7
		if len(rows) < limit {
			limit = len(rows)
		}
		for _, r := range rows[:limit] {
			t.AddRow(
				r.Attribute,
				f2(r.MatchFreq), f2(r.MatchMean), f2(r.MatchStdDev),
				f2(r.NonFreq), f2(r.NonMean), f2(r.NonStdDev),
			)
		}
		corr := explain.CorrelationWithStringSims(data.explanations)
		t.AddRow("— similarity correlation:",
			fmt.Sprintf("Cosine %.2f", corr.Cosine),
			fmt.Sprintf("GenJaccard %.2f", corr.GeneralizedJaccard),
			fmt.Sprintf("n=%d", corr.Samples), "", "", "")
		out = append(out, t)
	}
	return out, nil
}

// errorCases returns the false positives and false negatives of the
// Section 6 runs together with their explanations.
func (s *Session) errorCases(dataset string) (fps, fns []errorclass.Case, err error) {
	data, err := s.explanations(dataset)
	if err != nil {
		return nil, nil, err
	}
	fps, fns = errorclass.CollectErrors(data.decisions, data.explanations)
	return fps, fns, nil
}

// errorClassTable builds one of Tables 11/12 for a dataset.
func (s *Session) errorClassTable(id, dataset string) (*Table, error) {
	ds := datasets.MustLoad(dataset)
	fps, fns, err := s.errorCases(dataset)
	if err != nil {
		return nil, err
	}
	turbo := s.Model(llm.GPT4Turbo)
	t := &Table{
		ID:      id,
		Title:   "Generated error classes for " + ds.Name + " with expert-annotated error counts",
		Columns: []string{"Direction", "Error class", "# errors"},
	}
	for _, block := range []struct {
		label string
		cases []errorclass.Case
	}{
		{fmt.Sprintf("False Negatives (%d overall)", len(fns)), fns},
		{fmt.Sprintf("False Positives (%d overall)", len(fps)), fps},
	} {
		if len(block.cases) == 0 {
			t.AddRow(block.label, "(no errors)", "0")
			continue
		}
		classes, err := errorclass.Discover(turbo, ds.Schema.Domain, block.cases, blockIsFP(block.label))
		if err != nil {
			return nil, err
		}
		for _, cc := range errorclass.CountByExpert(classes, block.cases) {
			t.AddRow(block.label, cc.Class.Name+": "+cc.Class.Description, fmt.Sprintf("%d", cc.Errors))
		}
	}
	return t, nil
}

func blockIsFP(label string) bool {
	return len(label) > 6 && label[:7] == "False P"
}

// Table11 reproduces the generated error classes for DBLP-Scholar.
func Table11(s *Session) (*Table, error) {
	return s.errorClassTable("Table 11", "ds")
}

// Table12 reproduces the generated error classes for Walmart-Amazon.
func Table12(s *Session) (*Table, error) {
	return s.errorClassTable("Table 12", "wa")
}

// Table13 reproduces the error-assignment accuracies: for each error
// class of Tables 11/12, the agreement between GPT4-turbo's
// assignments and the expert annotation.
func Table13(s *Session) (*Table, error) {
	t := &Table{
		ID:      "Table 13",
		Title:   "Accuracy of GPT4-turbo for classifying errors into the generated classes",
		Columns: []string{"Error class", "W-A FP", "W-A FN", "D-S FP", "D-S FN"},
	}
	turbo := s.Model(llm.GPT4Turbo)

	type column struct {
		dataset string
		fp      bool
	}
	cols := []column{{"wa", true}, {"wa", false}, {"ds", true}, {"ds", false}}
	acc := make([][]float64, len(cols))
	for ci, col := range cols {
		ds := datasets.MustLoad(col.dataset)
		fps, fns, err := s.errorCases(col.dataset)
		if err != nil {
			return nil, err
		}
		cases := fns
		if col.fp {
			cases = fps
		}
		if len(cases) == 0 {
			acc[ci] = make([]float64, 5)
			continue
		}
		classes, err := errorclass.Discover(turbo, ds.Schema.Domain, cases, col.fp)
		if err != nil {
			return nil, err
		}
		a, err := errorclass.AssignmentAccuracy(turbo, classes, cases)
		if err != nil {
			return nil, err
		}
		acc[ci] = a
	}
	n := 5
	for i := 0; i < n; i++ {
		row := []string{fmt.Sprintf("%d", i+1)}
		for ci := range cols {
			if i < len(acc[ci]) {
				row = append(row, f2(acc[ci][i]))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	meanRow := []string{"Mean"}
	for ci := range cols {
		sum, cnt := 0.0, 0
		for _, v := range acc[ci] {
			sum += v
			cnt++
		}
		if cnt == 0 {
			meanRow = append(meanRow, "-")
			continue
		}
		meanRow = append(meanRow, f2(sum/float64(cnt)))
	}
	t.AddRow(meanRow...)
	return t, nil
}
