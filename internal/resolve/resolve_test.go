package resolve

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"llm4em/internal/cost"
	"llm4em/internal/datasets"
	"llm4em/internal/entity"
	"llm4em/internal/features"
	"llm4em/internal/llm"
	"llm4em/internal/prompt"
	"llm4em/internal/tokenize"
)

// countingClient is a deterministic llm.Client that counts its calls.
// It answers Yes when the prompt mentions the marker token twice (one
// occurrence per entity description), No otherwise.
type countingClient struct {
	calls atomic.Int64
}

func (c *countingClient) Name() string { return "counting" }

func (c *countingClient) Chat(messages []llm.Message) (llm.Response, error) {
	c.calls.Add(1)
	prompt := messages[len(messages)-1].Content
	answer := "No."
	if strings.Count(prompt, "sameent") >= 2 {
		answer = "Yes."
	}
	return llm.Response{Content: answer, PromptTokens: len(prompt) / 4, CompletionTokens: 2}, nil
}

func rec(id, title string) entity.Record {
	return entity.Record{ID: id, Attrs: []entity.Attr{{Name: "title", Value: title}}}
}

// wdcStoreRecords derives a seed collection and query set from the
// WDC benchmark: B-side records seed the store, A-side records query
// it.
func wdcStoreRecords(t testing.TB, n int) (seed, queries []entity.Record) {
	t.Helper()
	ds := datasets.MustLoad("wdc")
	seenB := map[string]bool{}
	seenA := map[string]bool{}
	for _, p := range ds.Test {
		if len(seed) >= n {
			break
		}
		if !seenB[p.B.ID] {
			seed = append(seed, p.B)
			seenB[p.B.ID] = true
		}
		if !seenA[p.A.ID] {
			queries = append(queries, p.A)
			seenA[p.A.ID] = true
		}
	}
	if len(queries) > n {
		queries = queries[:n]
	}
	return seed, queries
}

func TestAddValidation(t *testing.T) {
	s := New(&countingClient{}, Options{})
	if err := s.Add(entity.Record{}); err == nil {
		t.Error("Add accepted a record without ID")
	}
	if err := s.Add(rec("r1", "sony camera")); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := s.Add(rec("r1", "sony camera again")); err == nil {
		t.Error("Add accepted a duplicate ID")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	if _, ok := s.Record("r1"); !ok {
		t.Error("Record(r1) not found")
	}
	if _, ok := s.Record("nope"); ok {
		t.Error("Record(nope) found")
	}
	if _, err := s.Resolve(entity.Record{}); err == nil {
		t.Error("Resolve accepted a query without ID")
	}
}

func TestResolveAcceptsIdenticalLocally(t *testing.T) {
	client := &countingClient{}
	s := New(client, Options{})
	if err := s.AddBatch([]entity.Record{
		rec("r1", "sony dsc120b cybershot camera silver"),
		rec("r2", "makita impact drill kit 18v"),
	}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Resolve(rec("q1", "sony dsc120b cybershot camera silver"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matched() {
		t.Fatalf("identical record did not match: %+v", res)
	}
	if res.EntityID != "q1" { // smallest member ID of {q1, r1}
		t.Errorf("EntityID = %q, want q1", res.EntityID)
	}
	if want := []string{"q1", "r1"}; !reflect.DeepEqual(res.Members, want) {
		t.Errorf("Members = %v, want %v", res.Members, want)
	}
	for _, d := range res.Decisions {
		if d.CandidateID == "r1" && d.Method != MethodAccept {
			t.Errorf("identical pair decided by %s, want %s", d.Method, MethodAccept)
		}
	}
	if got := client.calls.Load(); got != 0 {
		t.Errorf("confident resolve made %d LLM calls, want 0", got)
	}
	if res.Cost.LocalFraction() != 1 {
		t.Errorf("LocalFraction = %.2f, want 1", res.Cost.LocalFraction())
	}
}

func TestResolveMergesTransitively(t *testing.T) {
	s := New(&countingClient{}, Options{})
	// r1 and r2 are identical offers; the query matches both, so all
	// three collapse into one entity.
	if err := s.AddBatch([]entity.Record{
		rec("r1", "canon powershot sx620 camera black"),
		rec("r2", "canon powershot sx620 camera black"),
		rec("r3", "epson workforce printer"),
	}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Resolve(rec("q1", "canon powershot sx620 camera black"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"q1", "r1", "r2"}; !reflect.DeepEqual(res.Members, want) {
		t.Errorf("Members = %v, want %v", res.Members, want)
	}
	snap := s.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Snapshot = %v, want 2 entities", snap)
	}
	if ent, ok := s.Entity("r2"); !ok || !reflect.DeepEqual(ent, []string{"q1", "r1", "r2"}) {
		t.Errorf("Entity(r2) = %v %v", ent, ok)
	}
	if _, ok := s.Entity("ghost"); ok {
		t.Error("Entity(ghost) found")
	}
}

// midBandPair returns two record texts whose cascade probability under
// the Ideal weights falls strictly inside the default uncertain band,
// verified in the test itself.
func midBandPair(t testing.TB, salt int) (a, b string) {
	t.Helper()
	a = fmt.Sprintf("alpha beta gamma delta sameent%04d", salt)
	b = fmt.Sprintf("alpha beta epsilon zeta sameent%04d", salt)
	v, p := features.PairFeaturesText(a, b)
	prob := features.Ideal().Probability(v, p)
	if prob <= DefaultRejectBelow || prob >= DefaultAcceptAbove {
		t.Fatalf("mid-band fixture has probability %.3f outside (%.2f, %.2f)",
			prob, DefaultRejectBelow, DefaultAcceptAbove)
	}
	return a, b
}

func TestUncertainBandGoesToLLM(t *testing.T) {
	client := &countingClient{}
	s := New(client, Options{CacheSize: -1})
	qText, cText := midBandPair(t, 1)
	if err := s.Add(rec("r1", cText)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Resolve(rec("q1", qText))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 1 || res.Decisions[0].Method != MethodLLM {
		t.Fatalf("decisions = %+v, want one MethodLLM", res.Decisions)
	}
	if !res.Decisions[0].Match {
		t.Error("marker pair should be answered Yes by the fake client")
	}
	if res.Decisions[0].Answer == "" {
		t.Error("LLM decision carries no answer")
	}
	if got := client.calls.Load(); got != 1 {
		t.Errorf("client calls = %d, want 1", got)
	}
	if res.Cost.LLMPairs != 1 || res.Cost.PromptTokens == 0 {
		t.Errorf("cost report %+v, want 1 LLM pair with usage", res.Cost)
	}
	if res.Cost.Priced {
		t.Error("counting client should not be priced")
	}
}

func TestLLMBudgetCapsEscalation(t *testing.T) {
	client := &countingClient{}
	s := New(client, Options{
		CacheSize: -1,
		Cascade:   CascadeOptions{LLMBudget: 1},
	})
	qText, c1 := midBandPair(t, 2)
	_, c2 := midBandPair(t, 2) // same shape, different record
	if err := s.AddBatch([]entity.Record{rec("r1", c1), rec("r2", c2+" extra")}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Resolve(rec("q1", qText))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.LLMPairs != 1 {
		t.Errorf("LLMPairs = %d, want 1 under budget", res.Cost.LLMPairs)
	}
	if res.Cost.BudgetDecided != 1 {
		t.Errorf("BudgetDecided = %d, want 1", res.Cost.BudgetDecided)
	}
	if got := client.calls.Load(); got != 1 {
		t.Errorf("client calls = %d, want 1", got)
	}

	// A negative budget disables LLM calls entirely.
	s2 := New(&countingClient{}, Options{
		CacheSize: -1,
		Cascade:   CascadeOptions{LLMBudget: -1},
	})
	if err := s2.Add(rec("r1", c1)); err != nil {
		t.Fatal(err)
	}
	res2, err := s2.Resolve(rec("q1", qText))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cost.LLMPairs != 0 || res2.Cost.BudgetDecided != 1 {
		t.Errorf("negative budget: %+v", res2.Cost)
	}
}

// TestCascadeSendsFewerPairsToLLM is the acceptance test for the
// cascade: over a realistic workload, a cascade store must issue
// strictly fewer client calls than a no-cascade store while deciding
// every candidate pair.
func TestCascadeSendsFewerPairsToLLM(t *testing.T) {
	seed, queries := wdcStoreRecords(t, 120)

	run := func(cascade CascadeOptions) (int64, uint64, uint64) {
		client := &countingClient{}
		s := New(client, Options{CacheSize: -1, Cascade: cascade})
		if err := s.AddBatch(seed); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			res, err := s.Resolve(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range res.Decisions {
				if d.Method == "" {
					t.Fatalf("undecided pair %s", d.CandidateID)
				}
			}
		}
		st := s.Stats()
		return client.calls.Load(), uint64(st.Candidates), uint64(st.LLMPairs)
	}

	cascadeCalls, cascadePairs, cascadeLLM := run(CascadeOptions{})
	baselineCalls, baselinePairs, baselineLLM := run(CascadeOptions{Disable: true})

	if cascadePairs == 0 || cascadePairs != baselinePairs {
		t.Fatalf("candidate pairs differ: cascade %d baseline %d", cascadePairs, baselinePairs)
	}
	if baselineLLM != baselinePairs {
		t.Errorf("no-cascade run escalated %d of %d pairs, want all", baselineLLM, baselinePairs)
	}
	if cascadeCalls >= baselineCalls {
		t.Errorf("cascade made %d client calls, baseline %d — cascade must be strictly cheaper",
			cascadeCalls, baselineCalls)
	}
	if cascadeLLM >= baselineLLM {
		t.Errorf("cascade escalated %d pairs, baseline %d", cascadeLLM, baselineLLM)
	}
	t.Logf("cascade: %d/%d pairs to LLM (%.0f%% decided locally), baseline %d",
		cascadeLLM, cascadePairs, 100*(1-float64(cascadeLLM)/float64(cascadePairs)), baselineLLM)
}

// TestResolveConcurrentDeterministic is the acceptance test for
// concurrent serving: resolving a batch of queries concurrently must
// produce the same per-pair decisions and the same final entity
// groups as any sequential order.
func TestResolveConcurrentDeterministic(t *testing.T) {
	seed, queries := wdcStoreRecords(t, 80)

	type outcome struct {
		decisions []PairDecision
	}
	run := func(concurrent bool) (map[string]outcome, [][]string) {
		s := New(&countingClient{}, Options{})
		if err := s.AddBatch(seed); err != nil {
			t.Fatal(err)
		}
		results := make(map[string]outcome, len(queries))
		if concurrent {
			var mu sync.Mutex
			var wg sync.WaitGroup
			for _, q := range queries {
				wg.Add(1)
				go func(q entity.Record) {
					defer wg.Done()
					res, err := s.Resolve(q)
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					results[q.ID] = outcome{decisions: res.Decisions}
					mu.Unlock()
				}(q)
			}
			wg.Wait()
		} else {
			// Reverse order, to show order independence too.
			for i := len(queries) - 1; i >= 0; i-- {
				res, err := s.Resolve(queries[i])
				if err != nil {
					t.Fatal(err)
				}
				results[queries[i].ID] = outcome{decisions: res.Decisions}
			}
		}
		return results, s.Snapshot()
	}

	concResults, concSnap := run(true)
	seqResults, seqSnap := run(false)

	if len(concResults) != len(queries) {
		t.Fatalf("concurrent run produced %d results, want %d", len(concResults), len(queries))
	}
	for id, seq := range seqResults {
		conc, ok := concResults[id]
		if !ok {
			t.Fatalf("query %s missing from concurrent run", id)
		}
		if !reflect.DeepEqual(stripCached(seq.decisions), stripCached(conc.decisions)) {
			t.Errorf("query %s: decisions differ\nseq:  %+v\nconc: %+v", id, seq.decisions, conc.decisions)
		}
	}
	if !reflect.DeepEqual(concSnap, seqSnap) {
		t.Errorf("entity snapshots differ:\nconc: %v\nseq:  %v", concSnap, seqSnap)
	}
}

// stripCached zeroes the Cached flag, which legitimately depends on
// scheduling (who populated the shared prompt cache first).
func stripCached(ds []PairDecision) []PairDecision {
	out := make([]PairDecision, len(ds))
	copy(out, ds)
	for i := range out {
		out[i].Cached = false
	}
	return out
}

func TestStatsAccumulate(t *testing.T) {
	client := &countingClient{}
	s := New(client, Options{CacheSize: -1})
	if err := s.Add(rec("r1", "sony dsc120b cybershot camera silver")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(rec("q1", "sony dsc120b cybershot camera silver")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Records != 1 || st.Resolves != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Entities != 1 { // q1 merged into r1's entity
		t.Errorf("Entities = %d, want 1", st.Entities)
	}
	if st.LocalAccepts == 0 {
		t.Errorf("LocalAccepts = 0, want > 0")
	}
	if st.LocalFraction() != 1 {
		t.Errorf("LocalFraction = %.2f, want 1", st.LocalFraction())
	}
}

func TestPricedStoreReportsCents(t *testing.T) {
	model, err := llm.New("GPT-mini")
	if err != nil {
		t.Fatal(err)
	}
	s := New(model, Options{})
	qText, cText := midBandPair(t, 3)
	if err := s.Add(rec("r1", cText)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Resolve(rec("q1", qText))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cost.Priced {
		t.Fatal("GPT-mini store should be priced")
	}
	if res.Cost.LLMPairs != 1 || res.Cost.Cents <= 0 {
		t.Errorf("cost report %+v, want positive cents for one LLM pair", res.Cost)
	}
	st := s.Stats()
	if !st.Priced || st.Cents != res.Cost.Cents {
		t.Errorf("stats cents = %+v", st)
	}
}

func TestCostBudgetCapsEscalation(t *testing.T) {
	model, err := llm.New("GPT-mini")
	if err != nil {
		t.Fatal(err)
	}
	qText, c1 := midBandPair(t, 4)
	_, c2 := midBandPair(t, 4)

	// Compute the per-pair estimate the cost budget uses: the actual
	// built prompt plus the typical completion size.
	probe := New(model, Options{})
	spec := prompt.Spec{Design: probe.opts.Design, Domain: probe.opts.Domain}
	built := spec.Build(entity.Pair{ID: "q1|r1", A: rec("q1", qText), B: rec("r1", c1)})
	perPair := cost.PerPromptCents(probe.pricing,
		float64(tokenize.EstimateTokens(built)), EstCompletionTokens)
	if perPair <= 0 {
		t.Fatalf("per-pair estimate = %v", perPair)
	}

	// A cap between one and two pairs escalates exactly one.
	s := New(model, Options{
		Cascade: CascadeOptions{MaxCentsPerResolve: perPair * 1.5},
	})
	if err := s.AddBatch([]entity.Record{rec("r1", c1), rec("r2", c2+" extra")}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Resolve(rec("q1", qText))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.LLMPairs != 1 || res.Cost.BudgetDecided != 1 {
		t.Errorf("capped resolve: %+v, want 1 LLM pair and 1 budget-decided", res.Cost)
	}

	// A cap below one pair escalates none.
	s2 := New(model, Options{
		Cascade: CascadeOptions{MaxCentsPerResolve: perPair / 10},
	})
	if err := s2.Add(rec("r1", c1)); err != nil {
		t.Fatal(err)
	}
	res, err = s2.Resolve(rec("q1", qText))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.LLMPairs != 0 || res.Cost.BudgetDecided != 1 {
		t.Errorf("tiny cap: %+v, want no LLM pairs", res.Cost)
	}
}

func TestTypedErrors(t *testing.T) {
	s := New(&countingClient{}, Options{})
	if err := s.Add(entity.Record{}); !errors.Is(err, ErrNoID) {
		t.Errorf("Add without ID: %v, want ErrNoID", err)
	}
	if err := s.Add(rec("r1", "sony camera")); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(rec("r1", "sony camera")); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate Add: %v, want ErrDuplicateID", err)
	}
	if _, err := s.Resolve(entity.Record{}); !errors.Is(err, ErrNoID) {
		t.Errorf("Resolve without ID: %v, want ErrNoID", err)
	}
}
