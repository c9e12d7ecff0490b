package core

import (
	"errors"
	"strings"
	"testing"

	"llm4em/internal/datasets"
	"llm4em/internal/entity"
	"llm4em/internal/llm"
	"llm4em/internal/prompt"
)

func TestParseAnswer(t *testing.T) {
	tests := []struct {
		answer string
		want   bool
	}{
		{"Yes", true},
		{"Yes.", true},
		{"yes, they match", true},
		{"YES!", true},
		{"No", false},
		{"No, they do not match.", false},
		{"Yes, the two product descriptions refer to the same product.", true},
		{"The eyes have it", false}, // "yes" only inside a word
		{"It is not possible to say definitively whether they match.", false},
		{"", false},
		{"maybe", false},
		{"The answer is yes", true},
	}
	for _, tt := range tests {
		if got := ParseAnswer(tt.answer); got != tt.want {
			t.Errorf("ParseAnswer(%q) = %v, want %v", tt.answer, got, tt.want)
		}
	}
}

func testPair(match bool) entity.Pair {
	s := entity.Schema{Domain: entity.Product, Attributes: []string{"title", "price"}}
	if match {
		return entity.Pair{
			ID:    "m",
			A:     s.NewRecord("a", "Sony Cybershot DSC-120B camera black", "348.00"),
			B:     s.NewRecord("b", "sony dsc120b camera black", "350.00"),
			Match: true,
		}
	}
	return entity.Pair{
		ID:    "n",
		A:     s.NewRecord("a", "Sony Cybershot DSC-120B camera black", "348.00"),
		B:     s.NewRecord("b", "Makita LXT impact driver", "129.00"),
		Match: false,
	}
}

func newMatcher(t *testing.T, model, design string) *Matcher {
	t.Helper()
	d, err := prompt.DesignByName(design)
	if err != nil {
		t.Fatal(err)
	}
	return &Matcher{Client: llm.MustNew(model), Design: d, Domain: entity.Product}
}

func TestMatchPair(t *testing.T) {
	m := newMatcher(t, "GPT-4", "general-complex-force")
	d, err := m.MatchPair(testPair(true))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Match || !d.Correct() {
		t.Errorf("GPT-4 should match, got %+v", d.Answer)
	}
	if d.Usage.PromptTokens == 0 || d.Usage.Latency == 0 {
		t.Error("usage accounting missing")
	}
	if !strings.Contains(m.BuildPrompt(d.Pair), "DSC-120B") {
		t.Error("prompt does not carry the pair")
	}
	// A second MatchPair of the same pair is answered by the matcher's
	// prompt cache.
	again, err := m.MatchPair(testPair(true))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Answer != d.Answer || again.Usage != d.Usage {
		t.Errorf("repeat MatchPair = %+v, want the cached first answer", again)
	}
}

func TestEvaluateAggregates(t *testing.T) {
	m := newMatcher(t, "GPT-4", "general-complex-force")
	pairs := []entity.Pair{testPair(true), testPair(false)}
	r, err := m.Evaluate(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Requests != 2 || r.Confusion.Total() != 2 {
		t.Errorf("result = %+v", r)
	}
	if r.F1() != 100 {
		t.Errorf("easy pairs should score F1 100, got %.2f", r.F1())
	}
	if r.Decisions != nil {
		t.Error("Evaluate should not keep decisions")
	}
	rk, err := m.EvaluateKeeping(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rk.Decisions) != 2 {
		t.Errorf("EvaluateKeeping kept %d decisions", len(rk.Decisions))
	}
}

func TestResultMeans(t *testing.T) {
	var r Result
	if r.MeanPromptTokens() != 0 || r.MeanCompletionTokens() != 0 || r.MeanLatency() != 0 {
		t.Error("empty result means should be zero")
	}
	m := newMatcher(t, "GPT-mini", "general-complex-free")
	res, err := m.Evaluate([]entity.Pair{testPair(true), testPair(false)})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanPromptTokens() <= 0 || res.MeanCompletionTokens() <= 0 {
		t.Error("means should be positive")
	}
}

type errClient struct{}

func (errClient) Name() string { return "err" }
func (errClient) Chat([]llm.Message) (llm.Response, error) {
	return llm.Response{}, errors.New("boom")
}

func TestMatchPairPropagatesErrors(t *testing.T) {
	d, _ := prompt.DesignByName("general-complex-force")
	m := &Matcher{Client: errClient{}, Design: d, Domain: entity.Product}
	if _, err := m.MatchPair(testPair(true)); err == nil {
		t.Fatal("client error should propagate")
	}
	if _, err := m.Evaluate([]entity.Pair{testPair(true)}); err == nil {
		t.Fatal("Evaluate should propagate errors")
	}
	ch, wait := m.Stream([]entity.Pair{testPair(true), testPair(false)})
	for range ch {
	}
	if r, err := wait(); err == nil || r.Requests != 0 {
		t.Fatalf("Stream wait() = %+v, %v; want the client error and no result", r, err)
	}
}

type fixedSelector struct{ demos []entity.Pair }

func (f fixedSelector) Select(entity.Pair, int) []entity.Pair { return f.demos }

func TestMatcherWithDemonstrations(t *testing.T) {
	m := newMatcher(t, "GPT-4", "general-complex-force")
	m.Demos = fixedSelector{demos: []entity.Pair{testPair(true), testPair(false)}}
	m.Shots = 2
	p := m.BuildPrompt(testPair(true))
	if !strings.Contains(p, "Answer: Yes") || !strings.Contains(p, "Answer: No") {
		t.Errorf("demonstrations missing from prompt:\n%s", p)
	}
}

func TestMatcherWithRules(t *testing.T) {
	m := newMatcher(t, "Mixtral", "domain-complex-force")
	m.Rules = []string{"The model numbers must match."}
	p := m.BuildPrompt(testPair(true))
	if !strings.Contains(p, "model numbers must match") {
		t.Errorf("rules missing from prompt:\n%s", p)
	}
}

// TestGPT4BeatsMixtralOnSample is a smoke-level ordering check on a
// real dataset slice: the strongest model must not lose to the
// weakest on the same prompt.
func TestGPT4BeatsMixtralOnSample(t *testing.T) {
	ds := datasets.MustLoad("ab")
	pairs := ds.Test[:200]
	d, _ := prompt.DesignByName("domain-complex-force")
	g4 := &Matcher{Client: llm.MustNew("GPT-4"), Design: d, Domain: ds.Schema.Domain}
	mx := &Matcher{Client: llm.MustNew("Mixtral"), Design: d, Domain: ds.Schema.Domain}
	r4, err := g4.Evaluate(pairs)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := mx.Evaluate(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if r4.F1() <= rx.F1() {
		t.Errorf("GPT-4 (%.2f) should beat Mixtral (%.2f)", r4.F1(), rx.F1())
	}
}
