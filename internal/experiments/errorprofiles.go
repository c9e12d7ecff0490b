package experiments

import (
	"fmt"

	"llm4em/internal/core"
	"llm4em/internal/datasets"
	"llm4em/internal/errorclass"
	"llm4em/internal/explain"
	"llm4em/internal/llm"
)

// ErrorProfiles implements the future-work analysis the paper
// sketches at the end of Section 7.2: classify the errors of several
// model/prompt combinations into one fixed set of generated error
// classes, so the strengths and weaknesses of each combination can be
// compared at the error-class level.
//
// The class inventory is generated once from the reference
// combination (GPT-4, best zero-shot prompt), then every model's
// errors on the dataset are assigned to those classes by GPT4-turbo.
// When the reference run lacks errors in one direction, the table has
// one row that says so.
func ErrorProfiles(s *Session, dataset string, models []string) (*Table, error) {
	ds := datasets.MustLoad(dataset)
	turbo := s.Model(llm.GPT4Turbo)

	// Reference classes from the GPT-4 run of Section 6/7.
	refFPs, refFNs, err := s.errorCases(dataset)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Future work (§7.2)",
		Title: "Error-class profile per model on " + ds.Name + " (best zero-shot prompt; % of errors in class)",
	}
	if len(refFPs) == 0 || len(refFNs) == 0 {
		// The class inventory needs reference errors in both
		// directions; a small test split can lack one.
		t.Columns = []string{"Skipped"}
		t.AddRow(fmt.Sprintf("the reference run on %s has %d false positives and %d false negatives; error classes need both",
			ds.Name, len(refFPs), len(refFNs)))
		return t, nil
	}
	fpClasses, err := errorclass.Discover(turbo, ds.Schema.Domain, refFPs, true)
	if err != nil {
		return nil, err
	}
	fnClasses, err := errorclass.Discover(turbo, ds.Schema.Domain, refFNs, false)
	if err != nil {
		return nil, err
	}

	t.Columns = []string{
		"Model", "Errors (FP/FN)",
		"FP: " + shorten(fpClasses[0].Name), "FP: " + shorten(fpClasses[1].Name),
		"FN: " + shorten(fnClasses[0].Name), "FN: " + shorten(fnClasses[1].Name),
	}

	explainer := s.Model(llm.GPT4)
	for _, mn := range models {
		design, _, err := s.BestZeroShot(mn, dataset)
		if err != nil {
			return nil, err
		}
		res, err := s.result(cell{model: mn, dataset: dataset, design: design, keep: true})
		if err != nil {
			return nil, err
		}
		// Explanations for the wrong decisions come from the reference
		// explainer (GPT-4), which the paper uses for all structured
		// explanations.
		var wrong []core.Decision
		for _, d := range res.Decisions {
			if !d.Correct() {
				wrong = append(wrong, d)
			}
		}
		var exps []explain.Explanation
		for _, d := range wrong {
			e, err := explain.Generate(explainer, design, ds.Schema.Domain, d.Pair)
			if err != nil {
				return nil, err
			}
			// The explanation must describe the *evaluated* model's
			// decision; override the explainer's own parse.
			e.Predicted = d.Match
			exps = append(exps, e)
		}
		fps, fns := errorclass.CollectErrors(wrong, exps)

		fpShare, err := classShares(turbo, fpClasses, fps)
		if err != nil {
			return nil, err
		}
		fnShare, err := classShares(turbo, fnClasses, fns)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			mn,
			fmt.Sprintf("%d/%d", len(fps), len(fns)),
			pct(fpShare[0]), pct(fpShare[1]),
			pct(fnShare[0]), pct(fnShare[1]),
		)
	}
	return t, nil
}

// classShares returns, per class, the fraction of cases GPT4-turbo
// assigns to it.
func classShares(turbo llm.Client, classes []errorclass.Class, cases []errorclass.Case) ([]float64, error) {
	shares := make([]float64, len(classes))
	if len(cases) == 0 {
		return shares, nil
	}
	for _, c := range cases {
		assigned, err := errorclass.Assign(turbo, classes, c)
		if err != nil {
			return nil, err
		}
		for idx := range assigned {
			shares[idx]++
		}
	}
	for i := range shares {
		shares[i] /= float64(len(cases))
	}
	return shares, nil
}

func pct(x float64) string { return fmt.Sprintf("%.0f%%", 100*x) }

func shorten(name string) string {
	if len(name) > 22 {
		return name[:19] + "..."
	}
	return name
}
