package resolve

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"llm4em/internal/datasets"
	"llm4em/internal/entity"
	"llm4em/internal/features"
	"llm4em/internal/llm"
	"llm4em/internal/prompt"
)

// strategyClient is a deterministic llm.Client that understands every
// prompt formulation of the strategy tier. Verdicts key on the
// "sameent<salt>" marker tokens of the test fixtures: a pair matches
// iff both sides carry the same even salt (saltAnswer), and grouped
// prompts answer each candidate consistently with the pairwise
// formulation — the contract under which a strategy changes only the
// round-trip count, never the decisions.
type strategyClient struct {
	// garbleGroups answers compare/select prompts with prose the
	// strict parsers reject, forcing the per-pair fallback.
	garbleGroups bool
	// forcePair, when non-nil, overrides every pairwise match verdict
	// — used to manufacture first-pass decisions that conflict with
	// the local probability so the reason tier triggers.
	forcePair *bool
	// reasonYes is the verdict of reason-tier prompts.
	reasonYes bool

	calls, groupCalls atomic.Int64
}

func (c *strategyClient) Name() string { return "strategy-test" }

func (c *strategyClient) Chat(messages []llm.Message) (llm.Response, error) {
	c.calls.Add(1)
	content := messages[len(messages)-1].Content
	switch {
	case strings.HasPrefix(content, prompt.CompareInstruction):
		c.groupCalls.Add(1)
		if c.garbleGroups {
			return c.hedge()
		}
		query, cands := groupSides(content)
		var b strings.Builder
		for i, cand := range cands {
			answer := "No"
			if markerMatch(query, cand) {
				answer = "Yes"
			}
			fmt.Fprintf(&b, "%d. %s\n", i+1, answer)
		}
		return llm.Response{Content: strings.TrimRight(b.String(), "\n"),
			PromptTokens: len(content) / 4, CompletionTokens: 3 * len(cands)}, nil
	case strings.HasPrefix(content, prompt.SelectInstruction):
		c.groupCalls.Add(1)
		if c.garbleGroups {
			return c.hedge()
		}
		query, cands := groupSides(content)
		for i, cand := range cands {
			if markerMatch(query, cand) {
				return llm.Response{Content: fmt.Sprintf("Answer: %d", i+1),
					PromptTokens: len(content) / 4, CompletionTokens: 3}, nil
			}
		}
		return llm.Response{Content: "Answer: none",
			PromptTokens: len(content) / 4, CompletionTokens: 3}, nil
	case strings.HasPrefix(content, prompt.ReasonInstruction):
		answer := "Final Answer: No"
		if c.reasonYes {
			answer = "Final Answer: Yes"
		}
		return llm.Response{Content: "Step 1: attributes compared.\n" + answer,
			PromptTokens: len(content) / 4, CompletionTokens: 8}, nil
	default:
		answer := "No."
		if !strings.Contains(content, "negent") && saltAnswer(saltsOf(content)) == "Yes." {
			answer = "Yes."
		}
		if c.forcePair != nil {
			answer = "No."
			if *c.forcePair {
				answer = "Yes."
			}
		}
		return llm.Response{Content: answer, PromptTokens: len(content) / 4, CompletionTokens: 2}, nil
	}
}

func (c *strategyClient) hedge() (llm.Response, error) {
	return llm.Response{Content: "The candidates are hard to distinguish from the given attributes.",
		PromptTokens: 12, CompletionTokens: 9}, nil
}

// groupSides parses the query and candidate serializations out of a
// compare/select prompt.
func groupSides(content string) (query string, cands []string) {
	for _, line := range strings.Split(content, "\n") {
		if rest, ok := strings.CutPrefix(line, "Query: '"); ok {
			query = strings.TrimSuffix(rest, "'")
		}
		if strings.HasPrefix(line, "Candidate ") {
			if i := strings.Index(line, ": '"); i >= 0 {
				cands = append(cands, strings.TrimSuffix(line[i+3:], "'"))
			}
		}
	}
	return query, cands
}

// markerMatch is the per-pair verdict rule of strategyClient: the
// sides carry the same even salt and neither is poisoned with the
// "negent" non-match marker.
func markerMatch(query, cand string) bool {
	if strings.Contains(query, "negent") || strings.Contains(cand, "negent") {
		return false
	}
	return saltAnswer(append(saltsOf(query), saltsOf(cand)...)) == "Yes."
}

// bandGroupFixture seeds a store with two candidates that both block
// to the same query inside the uncertain band — the multi-candidate
// group shape the grouped strategies exist for. The salt is even, so
// the strategy client answers Yes for both candidates pairwise and
// under compare.
func bandGroupFixture(t *testing.T, client llm.Client, opts Options) (*Store, entity.Record) {
	t.Helper()
	s := New(client, opts)
	qText, c1 := midBandPair(t, 2)
	_, c2 := midBandPair(t, 2)
	if err := s.AddBatch([]entity.Record{rec("r1", c1), rec("r2", c2+" extra")}); err != nil {
		t.Fatal(err)
	}
	return s, rec("q1", qText)
}

// TestCompareStrategyAnswersBandInOneCall pins the tentpole saving: a
// compare-strategy store answers a query's whole uncertain band with
// one grouped round-trip, marks the decisions MethodCompare, and
// accounts the call under CompareUsage.
func TestCompareStrategyAnswersBandInOneCall(t *testing.T) {
	client := &strategyClient{}
	s, q := bandGroupFixture(t, client, Options{
		Cascade: CascadeOptions{Strategy: prompt.StrategyCompare},
	})
	res, err := s.Resolve(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 2 {
		t.Fatalf("decisions = %+v, want 2", res.Decisions)
	}
	for i, d := range res.Decisions {
		if d.Method != MethodCompare {
			t.Errorf("decision %d method = %q, want %q", i, d.Method, MethodCompare)
		}
		if !d.Match {
			t.Errorf("decision %d: even-salt pair answered No", i)
		}
	}
	if got := client.calls.Load(); got != 1 {
		t.Errorf("client calls = %d, want 1 grouped round-trip", got)
	}
	r := res.Cost
	if r.CompareUsage.Calls != 1 || r.CompareUsage.Pairs != 2 {
		t.Errorf("CompareUsage = %+v, want 1 call over 2 pairs", r.CompareUsage)
	}
	if r.MatchUsage.Calls != 0 || r.GroupFallbacks != 0 {
		t.Errorf("report %+v leaked into the match path", r)
	}
	st := s.Stats()
	if st.CompareUsage.Calls != 1 || st.CompareUsage.Pairs != 2 {
		t.Errorf("lifetime CompareUsage = %+v, want the call's usage", st.CompareUsage)
	}
}

// TestSelectStrategyPicksOneOrNone pins select semantics end to end:
// the chosen candidate is the only Match, and a "none" group leaves
// every decision a non-match.
func TestSelectStrategyPicksOneOrNone(t *testing.T) {
	client := &strategyClient{}
	s := New(client, Options{Cascade: CascadeOptions{Strategy: prompt.StrategySelect}})
	// Two candidates in the query's band; the "negent" marker makes
	// the second a non-match without changing its band shape.
	qText, c1 := midBandPair(t, 2)
	_, c2 := midBandPair(t, 2)
	if err := s.AddBatch([]entity.Record{rec("r1", c1), rec("r2", c2+" negent")}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Resolve(rec("q1", qText))
	if err != nil {
		t.Fatal(err)
	}
	matches := 0
	for _, d := range res.Decisions {
		if d.Method != MethodSelect {
			t.Errorf("decision %+v method, want %q", d, MethodSelect)
		}
		if d.Match {
			matches++
			if d.CandidateID != "r1" {
				t.Errorf("select picked %q, want r1", d.CandidateID)
			}
		}
	}
	if matches != 1 {
		t.Errorf("select produced %d matches, want exactly 1", matches)
	}
	if got := client.calls.Load(); got != 1 {
		t.Errorf("client calls = %d, want 1", got)
	}
	if res.Cost.SelectUsage.Calls != 1 || res.Cost.SelectUsage.Pairs != 2 {
		t.Errorf("SelectUsage = %+v, want 1 call over 2 pairs", res.Cost.SelectUsage)
	}

	// A query with no matching candidate: "Answer: none" leaves every
	// pair a non-match without a fallback.
	s2 := New(&strategyClient{}, Options{Cascade: CascadeOptions{Strategy: prompt.StrategySelect}})
	if err := s2.AddBatch([]entity.Record{
		rec("r1", c1+" negent"), rec("r2", c2+" negent"),
	}); err != nil {
		t.Fatal(err)
	}
	res2, err := s2.Resolve(rec("q1", qText))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res2.Decisions {
		if d.Match || d.Method != MethodSelect {
			t.Errorf("none-group decision %+v, want a select non-match", d)
		}
	}
	if res2.Cost.GroupFallbacks != 0 {
		t.Errorf("none answer caused %d fallbacks", res2.Cost.GroupFallbacks)
	}
}

// TestGroupFallbackDegradesToPairwise pins the degradation contract at
// the store level: a malformed grouped reply re-decides every pair
// with individual pairwise prompts — same verdicts as a match-strategy
// store, MethodLLM provenance, accounted under MatchUsage and
// GroupFallbacks — and reruns are deterministic.
func TestGroupFallbackDegradesToPairwise(t *testing.T) {
	run := func() (Result, int64) {
		client := &strategyClient{garbleGroups: true}
		s, q := bandGroupFixture(t, client, Options{
			Cascade: CascadeOptions{Strategy: prompt.StrategyCompare},
		})
		res, err := s.Resolve(q)
		if err != nil {
			t.Fatal(err)
		}
		return res, client.calls.Load()
	}
	res, calls := run()
	if len(res.Decisions) != 2 {
		t.Fatalf("fallback dropped decisions: %+v", res.Decisions)
	}
	for i, d := range res.Decisions {
		if d.Method != MethodLLM {
			t.Errorf("fallback decision %d method = %q, want %q", i, d.Method, MethodLLM)
		}
		if !d.Match {
			t.Errorf("fallback decision %d flipped the pairwise verdict", i)
		}
	}
	// One wasted grouped round-trip plus one pairwise prompt per pair.
	if calls != 3 {
		t.Errorf("client calls = %d, want 3 (1 group + 2 pairwise)", calls)
	}
	r := res.Cost
	if r.GroupFallbacks != 2 || r.CompareUsage.Calls != 0 || r.MatchUsage.Pairs != 2 {
		t.Errorf("fallback accounting wrong: %+v", r)
	}

	// The same store under the match strategy decides identically —
	// the strategy changes cost, never verdicts.
	mclient := &strategyClient{}
	ms, mq := bandGroupFixture(t, mclient, Options{})
	mres, err := ms.Resolve(mq)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Decisions {
		if res.Decisions[i].Match != mres.Decisions[i].Match ||
			res.Decisions[i].CandidateID != mres.Decisions[i].CandidateID {
			t.Errorf("fallback decision %d diverges from match strategy: %+v vs %+v",
				i, res.Decisions[i], mres.Decisions[i])
		}
	}

	again, _ := run()
	if !reflect.DeepEqual(pinDecisions(res.Decisions), pinDecisions(again.Decisions)) {
		t.Error("fallback decisions differ across reruns")
	}
}

// TestReasonTierRewritesConflictedPairs pins the reason-tier trigger:
// only pairs whose first-pass verdict disagrees with the local
// probability are re-asked, and the reasoning verdict replaces the
// first pass under MethodReason.
func TestReasonTierRewritesConflictedPairs(t *testing.T) {
	qText, cText := midBandPair(t, 9)
	v, p := features.PairFeaturesText(rec("q1", qText).Serialize(), rec("r1", cText).Serialize())
	prob := features.Ideal().Probability(v, p)

	// Force the first pass to disagree with the scorer and the reason
	// tier to agree with it — the rewrite is then observable.
	conflicted := prob <= 0.5
	client := &strategyClient{forcePair: &conflicted, reasonYes: prob > 0.5}
	s := New(client, Options{Cascade: CascadeOptions{ReasonTier: true}})
	if err := s.Add(rec("r1", cText)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Resolve(rec("q1", qText))
	if err != nil {
		t.Fatal(err)
	}
	d := res.Decisions[0]
	if d.Method != MethodReason {
		t.Fatalf("conflicted pair method = %q, want %q (decision %+v)", d.Method, MethodReason, d)
	}
	if d.Match != (prob > 0.5) {
		t.Errorf("reason verdict did not replace the first pass: %+v", d)
	}
	if res.Cost.ReasonUsage.Calls != 1 || res.Cost.MatchUsage.Calls != 1 {
		t.Errorf("reason accounting %+v, want one match call and one reason call", res.Cost)
	}
	if got := client.calls.Load(); got != 2 {
		t.Errorf("client calls = %d, want 2 (first pass + reason)", got)
	}

	// An agreeing first pass leaves the decision alone: no reason call.
	agreeing := prob > 0.5
	client2 := &strategyClient{forcePair: &agreeing}
	s2 := New(client2, Options{Cascade: CascadeOptions{ReasonTier: true}})
	if err := s2.Add(rec("r1", cText)); err != nil {
		t.Fatal(err)
	}
	res2, err := s2.Resolve(rec("q1", qText))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Decisions[0].Method != MethodLLM || res2.Cost.ReasonUsage.Calls != 0 {
		t.Errorf("agreeing pair escalated to reason tier: %+v %+v", res2.Decisions[0], res2.Cost)
	}
	if got := client2.calls.Load(); got != 1 {
		t.Errorf("client calls = %d, want 1", got)
	}
}

// TestStrategyPersistReplay pins strategy provenance across restarts:
// grouped decisions journal with their Method, and a reopened store
// replays them LLM-free.
func TestStrategyPersistReplay(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		PersistDir: dir,
		Cascade:    CascadeOptions{Strategy: prompt.StrategyCompare},
	}
	client := &strategyClient{}
	s, err := Open(client, opts)
	if err != nil {
		t.Fatal(err)
	}
	qText, c1 := midBandPair(t, 2)
	_, c2 := midBandPair(t, 2)
	if err := s.AddBatch([]entity.Record{rec("r1", c1), rec("r2", c2+" extra")}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Resolve(rec("q1", qText))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Decisions {
		if d.Method != MethodCompare {
			t.Fatalf("decision %+v, want MethodCompare", d)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	client2 := &strategyClient{}
	s2, err := Open(client2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	res2, err := s2.Resolve(rec("q1", qText))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Decisions) != len(res.Decisions) {
		t.Fatalf("replayed resolve returned %d decisions, want %d", len(res2.Decisions), len(res.Decisions))
	}
	for i, d := range res2.Decisions {
		if !d.Journaled {
			t.Errorf("decision %d not served from the journal: %+v", i, d)
		}
		if d.Method != MethodCompare || d.Match != res.Decisions[i].Match {
			t.Errorf("journal lost strategy provenance: %+v vs %+v", d, res.Decisions[i])
		}
	}
	if got := client2.calls.Load(); got != 0 {
		t.Errorf("replayed resolve made %d LLM calls, want 0", got)
	}
	if st := s2.Stats(); st.JournalHits != 2 {
		t.Errorf("JournalHits = %d, want 2", st.JournalHits)
	}
}

// TestEvaluateGroupsStrategiesDiffer is the offline differential: on
// the same grouped fixtures under the simulated study models, every
// strategy decides every pair, grouping issues fewer client calls than
// pairwise match, and each run is deterministic.
func TestEvaluateGroupsStrategiesDiffer(t *testing.T) {
	model, err := llm.New("GPT-4")
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := datasets.GroupedPairs("wdc", "strategy-test", 24, 4)
	if err != nil {
		t.Fatal(err)
	}
	groups := GroupPairs(pairs)
	if len(groups) != 24 {
		t.Fatalf("GroupPairs regrouped %d pairs into %d groups, want 24", len(pairs), len(groups))
	}
	for _, g := range groups {
		if len(g) != 4 {
			t.Fatalf("group of %d candidates, want 4", len(g))
		}
	}

	eval := func(c CascadeOptions) EvalResult {
		res, err := Evaluate(model, EvalOptions{Domain: entity.Product, Cascade: c}, groups)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Outcomes) != len(pairs) {
			t.Fatalf("outcomes %d, want %d", len(res.Outcomes), len(pairs))
		}
		return res
	}
	match := eval(CascadeOptions{})
	compare := eval(CascadeOptions{Strategy: prompt.StrategyCompare})
	sel := eval(CascadeOptions{Strategy: prompt.StrategySelect})
	if match.EscalatedGroups == 0 {
		t.Fatal("no group escalated; the fixtures exercise no strategy")
	}
	if compare.ClientCalls >= match.ClientCalls || sel.ClientCalls >= match.ClientCalls {
		t.Errorf("grouping saved nothing: match %d calls, compare %d, select %d",
			match.ClientCalls, compare.ClientCalls, sel.ClientCalls)
	}
	for _, m := range compare.Outcomes {
		if m.Method == MethodSelect {
			t.Fatalf("compare run produced a select decision: %+v", m)
		}
	}

	again := eval(CascadeOptions{Strategy: prompt.StrategyCompare})
	if !reflect.DeepEqual(compare.Outcomes, again.Outcomes) || compare.Confusion != again.Confusion {
		t.Error("compare evaluation differs across reruns")
	}
}
