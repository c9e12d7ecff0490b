package llm

import (
	"testing"

	"llm4em/internal/datasets"
	"llm4em/internal/entity"
	"llm4em/internal/eval"
	"llm4em/internal/prompt"
)

// runF1 evaluates a model with a design over a dataset slice using
// the paper's answer-parsing rule.
func runF1(t *testing.T, model *Model, designName, key string, n int) float64 {
	t.Helper()
	ds := datasets.MustLoad(key)
	d, err := prompt.DesignByName(designName)
	if err != nil {
		t.Fatal(err)
	}
	spec := prompt.Spec{Design: d, Domain: ds.Schema.Domain}
	var c eval.Confusion
	for _, p := range ds.Test[:n] {
		resp, err := model.Chat([]Message{{Role: User, Content: spec.Build(p)}})
		if err != nil {
			t.Fatal(err)
		}
		c.Add(p.Match, parseYes(resp.Content))
	}
	return c.F1()
}

// parseYes mirrors the paper's answer parsing for test purposes.
func parseYes(answer string) bool {
	lower := []byte(answer)
	for i := range lower {
		if lower[i] >= 'A' && lower[i] <= 'Z' {
			lower[i] += 'a' - 'A'
		}
	}
	s := string(lower)
	for i := 0; i+3 <= len(s); i++ {
		if s[i:i+3] != "yes" {
			continue
		}
		beforeOK := i == 0 || !isWord(s[i-1])
		afterOK := i+3 == len(s) || !isWord(s[i+3])
		if beforeOK && afterOK {
			return true
		}
	}
	return false
}

func isWord(b byte) bool { return b >= 'a' && b <= 'z' || b >= '0' && b <= '9' }

// TestZeroShotQualityOrdering pins the paper's model ranking on a
// WDC slice with a strong force prompt: GPT-4 >= Llama3.1 > Llama2 >
// Mixtral.
func TestZeroShotQualityOrdering(t *testing.T) {
	const n = 400
	f1 := map[string]float64{}
	for _, name := range []string{GPT4, Llama31, Llama2, Mixtral} {
		f1[name] = runF1(t, MustNew(name), "general-complex-force", "wdc", n)
	}
	t.Logf("ordering: %v", f1)
	if !(f1[GPT4] >= f1[Llama31] && f1[Llama31] > f1[Llama2] && f1[Llama2] > f1[Mixtral]) {
		t.Errorf("quality ordering violated: %v", f1)
	}
}

// TestPromptSensitivityOrdering pins the paper's central sensitivity
// finding: GPT-4's F1 varies far less across prompt designs than
// Llama3.1's or GPT-mini's.
func TestPromptSensitivityOrdering(t *testing.T) {
	const n = 300
	sd := func(name string) float64 {
		var xs []float64
		m := MustNew(name)
		for _, d := range prompt.Designs() {
			xs = append(xs, runF1(t, m, d.Name, "wdc", n))
		}
		return eval.StdDev(xs)
	}
	gpt4 := sd(GPT4)
	llama31 := sd(Llama31)
	mini := sd(GPTMini)
	t.Logf("prompt-sensitivity SD: GPT-4 %.2f, Llama3.1 %.2f, GPT-mini %.2f", gpt4, llama31, mini)
	if gpt4 >= llama31 || gpt4 >= mini {
		t.Errorf("GPT-4 (SD %.2f) must be the most prompt-stable model (Llama3.1 %.2f, GPT-mini %.2f)", gpt4, llama31, mini)
	}
	if gpt4 > 6 {
		t.Errorf("GPT-4 SD %.2f too large; paper reports 2.26", gpt4)
	}
}

// TestSimpleFreeCollapse pins the free-format failure mode: GPT-mini
// under the bare "match?" wording with free answers loses massively
// against the same wording with the force instruction.
func TestSimpleFreeCollapse(t *testing.T) {
	const n = 300
	m := MustNew(GPTMini)
	force := runF1(t, m, "domain-simple-force", "wdc", n)
	free := runF1(t, m, "domain-simple-free", "wdc", n)
	t.Logf("GPT-mini domain-simple: force %.2f vs free %.2f", force, free)
	if free >= force-10 {
		t.Errorf("free format should collapse for GPT-mini under simple wording: force %.2f, free %.2f", force, free)
	}
}

// TestRulesRescueMixtral pins the Section 4.2 finding that matching
// rules give Mixtral its largest gains.
func TestRulesRescueMixtral(t *testing.T) {
	const n = 400
	ds := datasets.MustLoad("wdc")
	d, _ := prompt.DesignByName("general-complex-force")
	m := MustNew(Mixtral)

	evalWith := func(rules []string) float64 {
		spec := prompt.Spec{Design: d, Domain: ds.Schema.Domain, Rules: rules}
		var c eval.Confusion
		for _, p := range ds.Test[:n] {
			resp, err := m.Chat([]Message{{Role: User, Content: spec.Build(p)}})
			if err != nil {
				t.Fatal(err)
			}
			c.Add(p.Match, parseYes(resp.Content))
		}
		return c.F1()
	}
	productRules := []string{
		"The brands of the two products must match; allow for slight differences in spelling.",
		"The model numbers must refer to the same model; ignore dashes and capitalization.",
		"Capacity, size, and color variants must be identical for the products to match.",
		"Prices may differ moderately between vendors; a large price difference indicates different products.",
	}
	without := evalWith(nil)
	with := evalWith(productRules)
	t.Logf("Mixtral: without rules %.2f, with rules %.2f", without, with)
	if with <= without+5 {
		t.Errorf("rules should lift Mixtral substantially: %.2f -> %.2f", without, with)
	}
}

// TestFineTunedStability pins the fine-tuning side effects: a
// fine-tuned model ignores prompt-design variation and answers with
// bare labels.
func TestFineTunedStability(t *testing.T) {
	base := MustNew(Llama31)
	ft, err := NewFineTuned(Llama31, Adapter{Weights: base.BaseWeights(), TrainedOn: "wdc"})
	if err != nil {
		t.Fatal(err)
	}
	ds := datasets.MustLoad("wdc")
	var answers []string
	for _, designName := range []string{"domain-simple-force", "general-complex-free"} {
		d, _ := prompt.DesignByName(designName)
		spec := prompt.Spec{Design: d, Domain: entity.Product}
		resp, err := ft.Chat([]Message{{Role: User, Content: spec.Build(ds.Test[0])}})
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, resp.Content)
	}
	if answers[0] != answers[1] {
		t.Errorf("fine-tuned model should be prompt-stable: %q vs %q", answers[0], answers[1])
	}
	if answers[0] != "Yes" && answers[0] != "No" {
		t.Errorf("fine-tuned model should answer with a bare label, got %q", answers[0])
	}
}

// TestBatchAnswerShape checks the batched-matching reply format.
func TestBatchAnswerShape(t *testing.T) {
	ds := datasets.MustLoad("wdc")
	p := prompt.BuildBatch(entity.Product, ds.Test[:4])
	resp, err := MustNew(GPT4).Chat([]Message{{Role: User, Content: p}})
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, l := range splitLines(resp.Content) {
		if l != "" {
			lines++
		}
	}
	if lines != 4 {
		t.Errorf("batch reply has %d lines, want 4:\n%s", lines, resp.Content)
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}
