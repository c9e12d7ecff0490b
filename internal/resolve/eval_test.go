package resolve

import (
	"math"
	"reflect"
	"testing"

	"llm4em/internal/datasets"
	"llm4em/internal/entity"
	"llm4em/internal/llm"
	"llm4em/internal/prompt"
)

// evalTestPairs caps a dataset's test split for eval tests, keeping
// both classes represented.
func evalTestPairs(t *testing.T, key string, n int) []entity.Pair {
	t.Helper()
	ds := datasets.MustLoad(key)
	if len(ds.Test) < n {
		n = len(ds.Test)
	}
	return ds.Test[:n]
}

// TestEvaluatePairsSplitsCascade pins the offline eval's routing: the
// three methods partition the pairs, the report's stage counters add
// up, and the confusion covers every pair.
func TestEvaluatePairsSplitsCascade(t *testing.T) {
	model, err := llm.New("GPT-mini")
	if err != nil {
		t.Fatal(err)
	}
	pairs := evalTestPairs(t, "wdc", 150)
	res, err := Evaluate(model, EvalOptions{Domain: entity.Product}, PerPair(pairs))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != len(pairs) {
		t.Fatalf("outcomes %d, want %d", len(res.Outcomes), len(pairs))
	}
	var accepts, rejects, llmPairs int
	for i, out := range res.Outcomes {
		if out.PairID != pairs[i].ID || out.Gold != pairs[i].Match {
			t.Fatalf("outcome %d does not describe input pair %q", i, pairs[i].ID)
		}
		switch out.Method {
		case MethodAccept:
			accepts++
			if !out.Match {
				t.Fatal("cascade-accept outcome with Match=false")
			}
		case MethodReject:
			rejects++
			if out.Match {
				t.Fatal("cascade-reject outcome with Match=true")
			}
		case MethodLLM:
			llmPairs++
		default:
			t.Fatalf("outcome %d decided by unexpected method %q", i, out.Method)
		}
	}
	r := res.Report
	if r.Candidates != len(pairs) || r.LocalAccepts != accepts || r.LocalRejects != rejects || r.LLMPairs != llmPairs {
		t.Fatalf("report %+v disagrees with outcomes (accepts %d rejects %d llm %d)",
			r, accepts, rejects, llmPairs)
	}
	if llmPairs == 0 {
		t.Fatal("no pair landed in the uncertain band; the eval exercises nothing")
	}
	if r.PromptTokens == 0 || !r.Priced || r.Cents <= 0 {
		t.Fatalf("LLM usage not accounted: %+v", r)
	}
	if res.Confusion.Total() != len(pairs) {
		t.Fatalf("confusion covers %d pairs, want %d", res.Confusion.Total(), len(pairs))
	}
	if f1 := res.F1(); f1 < 50 || f1 > 100 {
		t.Fatalf("clean WDC F1 = %.1f, outside any plausible range", f1)
	}
}

// TestEvaluateDeterministic pins that evaluation is a pure function
// of (client, options, groups), including under worker concurrency:
// corrupted pairs as groups of one, and grouped fixtures under compare
// and select with the reason tier on.
func TestEvaluateDeterministic(t *testing.T) {
	model, err := llm.New("GPT-mini")
	if err != nil {
		t.Fatal(err)
	}
	fixtures, err := datasets.GroupedPairs("wdc", "det", 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := datasets.ForLevel("det", datasets.CorruptEmbed, 2).CorruptPairs(evalTestPairs(t, "ag", 100))
	for _, tc := range []struct {
		name    string
		cascade CascadeOptions
		groups  [][]entity.Pair
	}{
		{"per-pair", CascadeOptions{}, PerPair(corrupted)},
		{"compare", CascadeOptions{Strategy: prompt.StrategyCompare, ReasonTier: true}, GroupPairs(fixtures)},
		{"select", CascadeOptions{Strategy: prompt.StrategySelect, ReasonTier: true}, GroupPairs(fixtures)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) EvalResult {
				res, err := Evaluate(model, EvalOptions{Domain: entity.Product, Cascade: tc.cascade, Workers: workers}, tc.groups)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(1), run(8)
			if a.Report.LLMPairs == 0 {
				t.Fatal("no pair escalated; the concurrency comparison is vacuous")
			}
			i := 0
			for _, g := range tc.groups {
				for _, p := range g {
					if a.Outcomes[i].PairID != p.ID {
						t.Fatalf("outcome %d has PairID %q, want the input pair's %q", i, a.Outcomes[i].PairID, p.ID)
					}
					i++
				}
			}
			if !reflect.DeepEqual(a.Outcomes, b.Outcomes) || a.Confusion != b.Confusion ||
				!reflect.DeepEqual(a.Report, b.Report) || a.ClientCalls != b.ClientCalls {
				t.Fatalf("evaluation depends on worker concurrency:\n workers 1: %+v %d calls\n workers 8: %+v %d calls",
					a.Report, a.ClientCalls, b.Report, b.ClientCalls)
			}
		})
	}
}

// TestEvaluatePairsCorruptionDegrades is the harness's reason to
// exist: heavy corruption must not silently leave quality untouched —
// and must never crash the cascade on empty-after-corruption records.
func TestEvaluatePairsCorruptionDegrades(t *testing.T) {
	model, err := llm.New("GPT-mini")
	if err != nil {
		t.Fatal(err)
	}
	pairs := evalTestPairs(t, "wdc", 200)
	clean, err := Evaluate(model, EvalOptions{Domain: entity.Product}, PerPair(pairs))
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := Evaluate(model, EvalOptions{Domain: entity.Product},
		PerPair(datasets.Corruptor{Seed: "degrade", NullOut: 0.6, TypoRate: 0.3, NoiseWords: 3}.CorruptPairs(pairs)))
	if err != nil {
		t.Fatal(err)
	}
	if dirty.F1() > clean.F1() {
		t.Fatalf("heavy corruption improved F1: clean %.1f, dirty %.1f", clean.F1(), dirty.F1())
	}
	for i, out := range dirty.Outcomes {
		if math.IsNaN(out.Probability) {
			t.Fatalf("pair %d has NaN probability after corruption", i)
		}
	}
}

// TestEvaluatePairsLLMBudget pins the per-pair budget semantics:
// LLMBudget < 0 keeps the evaluation entirely local.
func TestEvaluatePairsLLMBudget(t *testing.T) {
	client := &countingClient{}
	pairs := evalTestPairs(t, "wdc", 80)
	res, err := Evaluate(client, EvalOptions{
		Domain:  entity.Product,
		Cascade: CascadeOptions{LLMBudget: -1},
	}, PerPair(pairs))
	if err != nil {
		t.Fatal(err)
	}
	if got := client.calls.Load(); got != 0 {
		t.Fatalf("LLMBudget -1 still made %d client calls", got)
	}
	if res.Report.LLMPairs != 0 {
		t.Fatalf("report counts %d LLM pairs under a negative budget", res.Report.LLMPairs)
	}
	if res.Report.BudgetDecided == 0 {
		t.Fatal("no pair was budget-decided; the band was empty and the test is vacuous")
	}
}

// TestEvaluatePairsEmpty pins the degenerate input.
func TestEvaluatePairsEmpty(t *testing.T) {
	res, err := Evaluate(&countingClient{}, EvalOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 0 || res.Confusion.Total() != 0 {
		t.Fatalf("empty input produced %+v", res)
	}
}

// TestLocalProbabilitiesMatchOutcomes pins that the threshold-free
// scorer half agrees with the probabilities Evaluate reports.
func TestLocalProbabilitiesMatchOutcomes(t *testing.T) {
	pairs := evalTestPairs(t, "ds", 60)
	probs := LocalProbabilities(pairs)
	res, err := Evaluate(&countingClient{}, EvalOptions{Domain: entity.Publication}, PerPair(pairs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range pairs {
		if probs[i] != res.Outcomes[i].Probability {
			t.Fatalf("pair %d: LocalProbabilities %.6f != outcome probability %.6f",
				i, probs[i], res.Outcomes[i].Probability)
		}
	}
}

// TestEvaluatePairsNoCascadeBand pins the calibration primitive: with
// both thresholds negative every pair gets the model's verdict and the
// usage is accounted.
func TestEvaluatePairsNoCascadeBand(t *testing.T) {
	model, err := llm.New("GPT-mini")
	if err != nil {
		t.Fatal(err)
	}
	pairs := evalTestPairs(t, "ds", 40)
	res, err := Evaluate(model, EvalOptions{Cascade: noCascade(), Domain: entity.Publication}, PerPair(pairs))
	if err != nil {
		t.Fatal(err)
	}
	if report := res.Report; report.LLMPairs != len(pairs) || report.PromptTokens == 0 {
		t.Fatalf("verdict usage not accounted: %+v", report)
	}
	agree := 0
	for i, out := range res.Outcomes {
		if out.Method != MethodLLM {
			t.Fatalf("pair %d decided by %q, want the LLM", i, out.Method)
		}
		if out.Match == pairs[i].Match {
			agree++
		}
	}
	if agree*2 < len(pairs) {
		t.Fatalf("GPT-mini agrees with gold on only %d/%d clean DBLP-Scholar pairs", agree, len(pairs))
	}
}
