package llm

import (
	"strings"
	"testing"

	"llm4em/internal/entity"
	"llm4em/internal/prompt"
)

func productPair() entity.Pair {
	schema := entity.Schema{Domain: entity.Product, Attributes: []string{"title", "price"}}
	return entity.Pair{
		ID:    "t1",
		A:     schema.NewRecord("a", "Sony Cybershot DSC-120B digital camera black", "348.00"),
		B:     schema.NewRecord("b", "sony dsc120b digital camera black", "351.99"),
		Match: true,
	}
}

func nonMatchPair() entity.Pair {
	schema := entity.Schema{Domain: entity.Product, Attributes: []string{"title", "price"}}
	return entity.Pair{
		ID:    "t2",
		A:     schema.NewRecord("a", "Sony Cybershot DSC-120B digital camera black", "348.00"),
		B:     schema.NewRecord("b", "DeWalt XR DCD-771 cordless drill", "99.00"),
		Match: false,
	}
}

func buildPrompt(t *testing.T, designName string, pair entity.Pair) string {
	t.Helper()
	d, err := prompt.DesignByName(designName)
	if err != nil {
		t.Fatal(err)
	}
	return prompt.Spec{Design: d, Domain: entity.Product}.Build(pair)
}

func TestNewUnknownModel(t *testing.T) {
	if _, err := New("GPT-99"); err == nil {
		t.Fatal("unknown model should error")
	}
}

func TestStudyModelsHaveProfiles(t *testing.T) {
	for _, name := range StudyModels() {
		p, ok := ProfileByName(name)
		if !ok {
			t.Fatalf("missing profile for %s", name)
		}
		if p.Name != name || p.APIName == "" || p.ContextWindow == 0 {
			t.Errorf("incomplete profile for %s: %+v", name, p)
		}
	}
}

func TestChatEmptyConversation(t *testing.T) {
	m := MustNew(GPT4)
	if _, err := m.Chat(nil); err == nil {
		t.Fatal("empty conversation should error")
	}
}

func TestChatDeterministic(t *testing.T) {
	m := MustNew(GPT4)
	p := buildPrompt(t, "general-complex-force", productPair())
	r1, err := m.Chat([]Message{{Role: User, Content: p}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Chat([]Message{{Role: User, Content: p}})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Content != r2.Content || r1.Latency != r2.Latency {
		t.Error("Chat is not deterministic at temperature 0")
	}
}

func TestForceFormatAnswersAreShort(t *testing.T) {
	m := MustNew(GPT4)
	p := buildPrompt(t, "general-complex-force", productPair())
	r, err := m.Chat([]Message{{Role: User, Content: p}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Content != "Yes" && r.Content != "No" {
		t.Errorf("GPT-4 force answer = %q, want bare Yes/No", r.Content)
	}
}

func TestGPT4MatchesEasyPairs(t *testing.T) {
	m := MustNew(GPT4)
	pYes := buildPrompt(t, "general-complex-force", productPair())
	r, _ := m.Chat([]Message{{Role: User, Content: pYes}})
	if r.Content != "Yes" {
		t.Errorf("GPT-4 should match the near-identical pair, got %q", r.Content)
	}
	pNo := buildPrompt(t, "general-complex-force", nonMatchPair())
	r, _ = m.Chat([]Message{{Role: User, Content: pNo}})
	if r.Content != "No" {
		t.Errorf("GPT-4 should reject the unrelated pair, got %q", r.Content)
	}
}

func TestFreeFormatAnswersAreVerbose(t *testing.T) {
	m := MustNew(GPT4)
	p := buildPrompt(t, "general-complex-free", productPair())
	r, err := m.Chat([]Message{{Role: User, Content: p}})
	if err != nil {
		t.Fatal(err)
	}
	if r.CompletionTokens < 10 {
		t.Errorf("free answer has %d tokens, expected verbose text: %q", r.CompletionTokens, r.Content)
	}
}

func TestParseMatchPrompt(t *testing.T) {
	d, _ := prompt.DesignByName("general-complex-force")
	demo := nonMatchPair()
	spec := prompt.Spec{
		Design:         d,
		Domain:         entity.Product,
		Rules:          []string{"The model numbers must match.", "Prices may differ slightly."},
		Demonstrations: []entity.Pair{demo},
	}
	content := spec.Build(productPair())
	pp := parseMatchPrompt(content)
	if !pp.Force {
		t.Error("force instruction not detected")
	}
	if len(pp.Rules) != 2 {
		t.Errorf("rules = %v", pp.Rules)
	}
	if len(pp.Demos) != 1 || pp.Demos[0].Match {
		t.Errorf("demos = %+v", pp.Demos)
	}
	if !strings.Contains(pp.QueryA, "DSC-120B") || !strings.Contains(pp.QueryB, "dsc120b") {
		t.Errorf("query parse failed: %q / %q", pp.QueryA, pp.QueryB)
	}
}

func TestParseSimpleWordingDetection(t *testing.T) {
	simple := parseMatchPrompt("Do the two product descriptions match?\nEntity 1: 'a'\nEntity 2: 'b'")
	if !simple.SimpleWording {
		t.Error("simple wording not detected")
	}
	complexP := parseMatchPrompt("Do the two entity descriptions refer to the same real-world entity?\nEntity 1: 'a'\nEntity 2: 'b'")
	if complexP.SimpleWording {
		t.Error("complex wording misdetected as simple")
	}
}

func TestLatencyModelShape(t *testing.T) {
	gpt4 := MustNew(GPT4)
	short := gpt4.latency(100, 2)
	long := gpt4.latency(100, 50)
	if long <= short {
		t.Error("more completion tokens must increase latency")
	}
	llama2 := MustNew(Llama2)
	if llama2.latency(100, 100) <= gpt4.latency(100, 100) {
		t.Error("Llama2 must be slower than GPT-4 at equal token counts")
	}
}

func TestFineTunedVariant(t *testing.T) {
	base := MustNew(Llama31)
	ft, err := NewFineTuned(Llama31, Adapter{Weights: base.BaseWeights(), TrainedOn: "wdc"})
	if err != nil {
		t.Fatal(err)
	}
	if !ft.FineTuned() || ft.Name() != "Llama3.1-ft-wdc" {
		t.Errorf("fine-tuned naming wrong: %s", ft.Name())
	}
	// Fine-tuned local models respond at the quantized latency.
	if got := ft.latency(500, 2); got.Seconds() != 0.30 {
		t.Errorf("fine-tuned latency = %v, want 0.30s", got)
	}
}

func TestHedgingAnswerNeverContainsYes(t *testing.T) {
	m := MustNew(GPT4o)
	pp := parseMatchPrompt("Do the two entity descriptions match?\nEntity 1: 'alpha'\nEntity 2: 'alpha'")
	d := m.decide(pp)
	for range [3]int{} {
		ans := strings.ToLower(m.hedgingAnswer(pp, d))
		for _, token := range strings.Fields(strings.Map(func(r rune) rune {
			if r >= 'a' && r <= 'z' {
				return r
			}
			return ' '
		}, ans)) {
			if token == "yes" {
				t.Fatalf("hedging answer contains 'yes': %s", ans)
			}
		}
	}
}

func TestExplainProducesStructuredLines(t *testing.T) {
	m := MustNew(GPT4)
	match := buildPrompt(t, "general-complex-free", productPair())
	conv := []Message{
		{Role: User, Content: match},
		{Role: Assistant, Content: "Yes, they match."},
		{Role: User, Content: prompt.ExplanationRequest},
	}
	r, err := m.Chat(conv)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, l := range strings.Split(r.Content, "\n") {
		if strings.Count(l, "|") == 2 {
			lines++
		}
	}
	if lines < 3 {
		t.Errorf("explanation has %d structured lines, want >= 3:\n%s", lines, r.Content)
	}
	if !strings.Contains(r.Content, "model") || !strings.Contains(r.Content, "price") {
		t.Errorf("explanation misses expected attributes:\n%s", r.Content)
	}
}

func TestRuleLearningAnswer(t *testing.T) {
	m := MustNew(GPT4)
	p := "Derive a list of matching rules from the following examples of matching and non-matching product descriptions. Present the rules as a numbered list.\n" +
		"Entity 1: 'Sony DSC-120B camera black 348.00'\nEntity 2: 'sony dsc120b camera black 350.00'\nAnswer: Yes\n" +
		"Entity 1: 'Sony DSC-120A camera black 348.00'\nEntity 2: 'sony dsc120b camera black 600.00'\nAnswer: No\n"
	r, err := m.Chat([]Message{{Role: User, Content: p}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Content, "1.") {
		t.Errorf("rule-learning reply not numbered:\n%s", r.Content)
	}
	if !strings.Contains(strings.ToLower(r.Content), "model") {
		t.Errorf("learned rules should mention model numbers:\n%s", r.Content)
	}
}

func TestModelListsArePaperColumns(t *testing.T) {
	want := []string{"GPT-mini", "GPT-4", "GPT-4o", "Llama2", "Llama3.1", "Mixtral"}
	got := StudyModels()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("StudyModels()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	if len(HostedModels()) != 3 {
		t.Error("hosted models wrong")
	}
}

func TestConjunctiveRuleMisapplication(t *testing.T) {
	// With conjunctive misreading, a pair with one weak mentioned
	// attribute must be rejected even if the aggregate score is
	// positive.
	var v [13]float64
	_ = v
	pp := ParsedPrompt{
		Task:   "Do the two product descriptions match?",
		Rules:  []string{"The model numbers must match.", "The brands must match."},
		QueryA: "Sony Cybershot DSC-120A camera black 348.00",
		QueryB: "Sony Cybershot DSC-120B camera black 350.00",
	}
	m := MustNew(Llama2) // RuleConjunctive = 0.75
	d := m.decide(pp)
	// The sibling pair has modelSim ~0.5 < 0.82; if the conjunctive
	// path triggered, the decision must be No regardless of noise.
	if d.yes {
		t.Log("conjunctive check did not reject — acceptable if this task hash did not trigger conjunction")
	}
}
