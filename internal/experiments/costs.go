package experiments

import (
	"fmt"

	"llm4em/internal/core"
	"llm4em/internal/cost"
	"llm4em/internal/datasets"
	"llm4em/internal/llm"
	"llm4em/internal/prompt"
	"llm4em/internal/tokenize"
)

// scenario identifies one column group of Tables 8 and 9.
type scenario string

// The cost/runtime scenarios of Section 5.
const (
	scZeroShot     scenario = "Zeroshot"
	sc6Shot        scenario = "6-Shot"
	sc10Shot       scenario = "10-Shot"
	scRulesWritten scenario = "Rules (written)"
	scRulesLearned scenario = "Rules (learned)"
	scFineTune     scenario = "Fine-tune (inference)"
)

func costScenarios() []scenario {
	return []scenario{scZeroShot, sc6Shot, sc10Shot, scRulesWritten, scRulesLearned}
}

// bestScenarioResult returns the best-performing run of a scenario
// for a model on a dataset ("Best performing prompts are selected for
// the analysis for each scenario", Table 8 caption).
func (s *Session) bestScenarioResult(sc scenario, model, dataset string) (core.Result, error) {
	switch sc {
	case scZeroShot:
		_, r, err := s.BestZeroShot(model, dataset)
		return r, err
	case sc6Shot, sc10Shot:
		k := 6
		if sc == sc10Shot {
			k = 10
		}
		var best core.Result
		bestF1 := -1.0
		for _, method := range DemoMethods() {
			r, err := s.result(cell{model: model, dataset: dataset, demos: method, shots: k})
			if err != nil {
				return core.Result{}, err
			}
			if r.F1() > bestF1 {
				bestF1, best = r.F1(), r
			}
		}
		return best, nil
	case scRulesWritten:
		return s.result(cell{model: model, dataset: dataset, rules: RulesHandwritten})
	case scRulesLearned:
		return s.result(cell{model: model, dataset: dataset, rules: RulesLearned})
	case scFineTune:
		return s.result(cell{model: model, dataset: dataset, trainedOn: dataset})
	default:
		return core.Result{}, fmt.Errorf("experiments: unknown scenario %q", sc)
	}
}

// Table8 reproduces the cost analysis for the hosted LLMs on WDC
// Products. Rows are (scenario, model) combinations; the reference
// for the increase columns is zero-shot GPT-mini, as in the paper.
func Table8(s *Session) (*Table, error) {
	const dataset = "wdc"
	t := &Table{
		ID:    "Table 8",
		Title: "Costs for hosted LLMs on WDC Products (best prompt per scenario)",
		Columns: []string{
			"Scenario", "Model", "F1", "Tok/prompt", "Tok/compl", "Tok/comb",
			"Tok xZS", "Cost/prompt (¢)", "Cost xZS-mini", "Cost per ΔF1",
		},
	}

	type costs struct {
		f1, meanPrompt, meanCompl, costCents float64
	}
	cells := map[scenario]map[string]costs{}
	for _, sc := range costScenarios() {
		cells[sc] = map[string]costs{}
		for _, mn := range llm.HostedModels() {
			r, err := s.bestScenarioResult(sc, mn, dataset)
			if err != nil {
				return nil, err
			}
			pricing, _ := cost.For(mn)
			cells[sc][mn] = costs{
				f1:         r.F1(),
				meanPrompt: r.MeanPromptTokens(),
				meanCompl:  r.MeanCompletionTokens(),
				costCents:  cost.PerPromptCents(pricing, r.MeanPromptTokens(), r.MeanCompletionTokens()),
			}
		}
	}
	ref := cells[scZeroShot]["GPT-mini"]

	for _, sc := range costScenarios() {
		for _, mn := range llm.HostedModels() {
			c := cells[sc][mn]
			combined := c.meanPrompt + c.meanCompl
			refCombined := ref.meanPrompt + ref.meanCompl
			costRatio := c.costCents / ref.costCents
			deltaF1 := c.f1 - ref.f1
			perDelta := "-"
			if deltaF1 > 0 {
				perDelta = fmt.Sprintf("%.1fx", costRatio/deltaF1)
			}
			t.AddRow(
				string(sc), mn, f2(c.f1),
				fmt.Sprintf("%.0f", c.meanPrompt),
				fmt.Sprintf("%.0f", c.meanCompl),
				fmt.Sprintf("%.0f", combined),
				fmt.Sprintf("%.1fx", combined/refCombined),
				fmt.Sprintf("%.4f", c.costCents),
				fmt.Sprintf("%.1fx", costRatio),
				perDelta,
			)
		}
	}

	// Fine-tuning block (GPT-mini, the hosted fine-tunable model):
	// training cost per example and inference cost.
	ftr, err := s.bestScenarioResult(scFineTune, "GPT-mini", dataset)
	if err != nil {
		return nil, err
	}
	ftPricing, _ := cost.ForFineTuned("GPT-mini")
	ds := datasets.MustLoad(dataset)
	trainTokens := meanTrainingTokens(ds)
	trainCost := cost.TrainingPerExampleCents(ftPricing, trainTokens, s.Cfg.FTEpochs)
	t.AddRow(
		"Fine-tune (train)", "GPT-mini", "-",
		fmt.Sprintf("%.0f", trainTokens), "1",
		fmt.Sprintf("%.0f", trainTokens+1),
		fmt.Sprintf("%.1fx", (trainTokens+1)/(ref.meanPrompt+ref.meanCompl)),
		fmt.Sprintf("%.4f", trainCost),
		fmt.Sprintf("%.1fx", trainCost/ref.costCents), "-",
	)
	infCost := cost.PerPromptCents(ftPricing.Inference, ftr.MeanPromptTokens(), ftr.MeanCompletionTokens())
	deltaF1 := ftr.F1() - ref.f1
	perDelta := "-"
	if deltaF1 > 0 {
		perDelta = fmt.Sprintf("%.2fx", infCost/ref.costCents/deltaF1)
	}
	t.AddRow(
		string(scFineTune), "GPT-mini", f2(ftr.F1()),
		fmt.Sprintf("%.0f", ftr.MeanPromptTokens()),
		fmt.Sprintf("%.0f", ftr.MeanCompletionTokens()),
		fmt.Sprintf("%.0f", ftr.MeanPromptTokens()+ftr.MeanCompletionTokens()),
		fmt.Sprintf("%.1fx", (ftr.MeanPromptTokens()+ftr.MeanCompletionTokens())/(ref.meanPrompt+ref.meanCompl)),
		fmt.Sprintf("%.4f", infCost),
		fmt.Sprintf("%.1fx", infCost/ref.costCents),
		perDelta,
	)
	return t, nil
}

// meanTrainingTokens estimates the mean tokens of one fine-tuning
// example: the domain-simple-force prompt plus the one-token label.
func meanTrainingTokens(ds *datasets.Dataset) float64 {
	spec := prompt.Spec{Design: ftDesign, Domain: ds.Schema.Domain}
	total := 0
	n := len(ds.Train)
	if n > 500 {
		n = 500
	}
	for _, p := range ds.Train[:n] {
		total += tokenize.EstimateTokens(spec.Build(p))
	}
	return float64(total) / float64(n)
}

// Table9 reproduces the runtime analysis: mean seconds per request on
// WDC Products for every model and scenario, using the
// best-performing prompt per scenario. Fine-tuned local models run at
// the quantized deployment speed.
func Table9(s *Session) (*Table, error) {
	const dataset = "wdc"
	t := &Table{
		ID:    "Table 9",
		Title: "Runtime in seconds per prompt on WDC Products",
		Columns: []string{
			"Model", "Zeroshot", "6-Shot", "10-Shot",
			"Rules (written)", "Rules (learned)", "Fine-Tune (inference)",
		},
	}
	for _, mn := range s.Cfg.models() {
		row := []string{mn}
		for _, sc := range costScenarios() {
			r, err := s.bestScenarioResult(sc, mn, dataset)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f s", r.MeanLatency().Seconds()))
		}
		p, _ := llm.ProfileByName(mn)
		if p.FTPlasticity > 0 {
			r, err := s.bestScenarioResult(scFineTune, mn, dataset)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f s", r.MeanLatency().Seconds()))
		} else {
			row = append(row, "-")
		}
		t.AddRow(row...)
	}
	return t, nil
}
