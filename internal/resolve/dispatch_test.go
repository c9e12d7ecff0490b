package resolve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llm4em/internal/entity"
	"llm4em/internal/llm"
	"llm4em/internal/prompt"
)

// batchConsistentClient is a deterministic client whose batched
// answers agree with its per-pair answers — the contract under which
// the micro-batching dispatcher preserves decisions exactly. Each
// synthetic record carries one "sameent<salt>" marker token; a pair
// matches iff both sides carry the same even salt. Per-pair prompts
// are answered "Yes."/"No.", batched prompts with one "<i>. Yes." /
// "<i>. No." line per pair, so the dispatcher's per-pair extraction
// reproduces the per-pair answer byte for byte.
type batchConsistentClient struct {
	calls atomic.Int64
	// latency, when set, delays every reply — used to model a real
	// hosted LLM so that round-trip counts dominate wall-clock time.
	latency time.Duration
}

func (c *batchConsistentClient) Name() string { return "batch-consistent" }

func (c *batchConsistentClient) Chat(messages []llm.Message) (llm.Response, error) {
	c.calls.Add(1)
	if c.latency > 0 {
		time.Sleep(c.latency)
	}
	content := messages[len(messages)-1].Content
	if strings.HasPrefix(content, prompt.BatchInstruction) {
		blocks := strings.Split(content, "Pair ")[1:]
		var b strings.Builder
		for i, blk := range blocks {
			fmt.Fprintf(&b, "%d. %s\n", i+1, saltAnswer(saltsOf(blk)))
		}
		return llm.Response{
			Content:      strings.TrimRight(b.String(), "\n"),
			PromptTokens: len(content) / 4, CompletionTokens: 3 * len(blocks),
		}, nil
	}
	return llm.Response{
		Content:      saltAnswer(saltsOf(content)),
		PromptTokens: len(content) / 4, CompletionTokens: 2,
	}, nil
}

// saltsOf extracts the numeric suffixes of every "sameent<digits>"
// marker in order of appearance.
func saltsOf(s string) []string {
	var out []string
	for {
		i := strings.Index(s, "sameent")
		if i < 0 {
			return out
		}
		s = s[i+len("sameent"):]
		j := 0
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		out = append(out, s[:j])
		s = s[j:]
	}
}

// saltAnswer decides one pair from its two marker salts.
func saltAnswer(salts []string) string {
	if len(salts) == 2 && salts[0] != "" && salts[0] == salts[1] {
		if n, err := strconv.Atoi(salts[0]); err == nil && n%2 == 0 {
			return "Yes."
		}
	}
	return "No."
}

// dispatchWorkload builds n store records and n query records such
// that each query blocks to exactly its own candidate (the unique
// marker token is the only non-stop shared token) and every such pair
// falls in the cascade's uncertain band — n resolvers, n uncertain
// pairs, nothing decided locally.
func dispatchWorkload(t testing.TB, n int) (seed, queries []entity.Record) {
	t.Helper()
	for i := 0; i < n; i++ {
		a, b := midBandPair(t, i)
		seed = append(seed, rec(fmt.Sprintf("r%03d", i), b))
		queries = append(queries, rec(fmt.Sprintf("q%03d", i), a))
	}
	return seed, queries
}

// pinnedDecision is the decision content compared between the batched
// and unbatched paths: everything except the transport markers
// (Cached, Batched), which legitimately depend on concurrent traffic.
type pinnedDecision struct {
	CandidateID string  `json:"candidate_id"`
	BlockScore  float64 `json:"block_score"`
	Probability float64 `json:"probability"`
	Match       bool    `json:"match"`
	Method      Method  `json:"method"`
	Answer      string  `json:"answer"`
}

func pinDecisions(ds []PairDecision) []byte {
	out := make([]pinnedDecision, len(ds))
	for i, d := range ds {
		out[i] = pinnedDecision{
			CandidateID: d.CandidateID,
			BlockScore:  d.BlockScore,
			Probability: d.Probability,
			Match:       d.Match,
			Method:      d.Method,
			Answer:      d.Answer,
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return b
}

// TestDispatchDifferentialByteIdentical is the acceptance pin of the
// micro-batching dispatcher: at 64 concurrent resolvers, a store
// resolving through cross-request batched prompts must produce
// byte-identical decision content — candidate, scores, probability,
// match, method, and the answer text itself — and identical entity
// groups to the unbatched cascade (batches of one, resolved one query
// at a time), for a client whose batch answers are consistent with its
// per-pair answers.
func TestDispatchDifferentialByteIdentical(t *testing.T) {
	const n = 64
	seed, queries := dispatchWorkload(t, n)

	run := func(dispatchPairs int, concurrent bool) (map[string][]byte, [][]string, int64, uint64, Stats) {
		client := &batchConsistentClient{}
		s := New(client, Options{
			DispatchPairs: dispatchPairs,
			// Generous deadline: every resolver must get the chance to
			// join a batch even on a slow, loaded CI host.
			DispatchFlush: 50 * time.Millisecond,
		})
		if err := s.AddBatch(seed); err != nil {
			t.Fatal(err)
		}
		pinned := make(map[string][]byte, len(queries))
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
					pinned[q.ID] = pinDecisions(res.Decisions)
					mu.Unlock()
				}(q)
			}
			wg.Wait()
		} else {
			for _, q := range queries {
				res, err := s.Resolve(q)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Decisions) != 1 || res.Decisions[0].Method != MethodLLM {
					t.Fatalf("workload drift: query %s decisions %+v, want exactly one MethodLLM pair", q.ID, res.Decisions)
				}
				pinned[q.ID] = pinDecisions(res.Decisions)
			}
		}
		st := s.Stats()
		calls := client.calls.Load()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return pinned, s.Snapshot(), calls, uint64(st.LLMPairs), st
	}

	unbatched, uSnap, uCalls, uPairs, _ := run(1, false)
	batched, bSnap, bCalls, bPairs, bStats := run(16, true)

	if uPairs != n || bPairs != n {
		t.Fatalf("LLM pairs: unbatched %d, batched %d, want %d each", uPairs, bPairs, n)
	}
	for id, want := range unbatched {
		got, ok := batched[id]
		if !ok {
			t.Fatalf("query %s missing from batched run", id)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("query %s: decisions differ\nunbatched: %s\nbatched:   %s", id, want, got)
		}
	}
	if !reflect.DeepEqual(bSnap, uSnap) {
		t.Errorf("entity snapshots differ:\nbatched:   %v\nunbatched: %v", bSnap, uSnap)
	}
	if bStats.Dispatch.BatchedPairs == 0 {
		t.Errorf("dispatch stats %+v: the batched run never batched", bStats.Dispatch)
	}
	if uCalls != n {
		t.Errorf("unbatched run made %d client calls, want %d (one per pair)", uCalls, n)
	}
	if bCalls >= uCalls {
		t.Errorf("batched run made %d client calls, unbatched %d — batching must be strictly cheaper", bCalls, uCalls)
	}
	t.Logf("round-trips for %d uncertain pairs: unbatched %d, batched %d (%.1fx fewer, mean batch %.1f)",
		n, uCalls, bCalls, float64(uCalls)/float64(bCalls), bStats.Dispatch.MeanBatchSize())
}

// TestDispatchRoundTrips is the CI bench-regression gate for the
// dispatcher (scripts/bench_regression.sh): at 64 concurrent
// resolvers it requires at least the BENCH_dispatch.json baseline's
// min_improvement_x fewer client round-trips per uncertain pair than
// the one-call-per-pair path. Env-gated like TestLLMCallRegression so
// ordinary `go test ./...` runs stay independent of the baseline
// file.
func TestDispatchRoundTrips(t *testing.T) {
	if os.Getenv("BENCH_REGRESSION") == "" {
		t.Skip("set BENCH_REGRESSION=1 (CI bench-regression step) to run")
	}
	data, err := os.ReadFile("../../BENCH_dispatch.json")
	if err != nil {
		t.Fatalf("read baseline: %v", err)
	}
	var baseline struct {
		MinImprovementX float64 `json:"min_improvement_x"`
	}
	if err := json.Unmarshal(data, &baseline); err != nil {
		t.Fatalf("decode baseline: %v", err)
	}
	if baseline.MinImprovementX <= 1 {
		t.Fatal("baseline has no min_improvement_x > 1 — regenerate BENCH_dispatch.json")
	}

	const n = 64
	seed, queries := dispatchWorkload(t, n)
	client := &batchConsistentClient{}
	s := New(client, Options{DispatchPairs: 16, DispatchFlush: 50 * time.Millisecond})
	if err := s.AddBatch(seed); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, q := range queries {
		wg.Add(1)
		go func(q entity.Record) {
			defer wg.Done()
			if _, err := s.Resolve(q); err != nil {
				t.Error(err)
			}
		}(q)
	}
	wg.Wait()
	st := s.Stats()
	s.Close()

	calls := client.calls.Load()
	if st.LLMPairs != n {
		t.Fatalf("LLM pairs = %d, want %d — workload drift, regenerate BENCH_dispatch.json", st.LLMPairs, n)
	}
	improvement := float64(st.LLMPairs) / float64(calls)
	t.Logf("%d uncertain pairs in %d round-trips: %.1fx fewer calls per pair (baseline requires ≥ %.1fx; mean batch %.1f)",
		st.LLMPairs, calls, improvement, baseline.MinImprovementX, st.Dispatch.MeanBatchSize())
	if improvement < baseline.MinImprovementX {
		t.Errorf("round-trip improvement %.2fx below the %.2fx baseline — the dispatcher coalesces less than BENCH_dispatch.json records; if intentional, regenerate the JSON in this PR",
			improvement, baseline.MinImprovementX)
	}

	if out := os.Getenv("DISPATCH_COMPARISON_OUT"); out != "" {
		cmp, err := json.MarshalIndent(map[string]any{
			"workload":           fmt.Sprintf("%d concurrent resolvers, one uncertain pair each (TestDispatchRoundTrips)", n),
			"uncertain_pairs":    st.LLMPairs,
			"client_round_trips": calls,
			"improvement_x":      improvement,
			"min_improvement_x":  baseline.MinImprovementX,
			"mean_batch_size":    st.Dispatch.MeanBatchSize(),
			"batched_pairs":      st.Dispatch.BatchedPairs,
			"single_pair_calls":  st.Dispatch.SinglePairCalls,
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(cmp, '\n'), 0o644); err != nil {
			t.Errorf("write comparison artifact: %v", err)
		}
	}
}

// TestDispatchWithPersistence: batched decisions journal like any
// others — a restart replays them without LLM calls, and the batch
// totals survive in the recovered cost counters.
func TestDispatchWithPersistence(t *testing.T) {
	dir := t.TempDir()
	seed, queries := dispatchWorkload(t, 16)

	client := &batchConsistentClient{}
	s, err := Open(client, Options{DispatchPairs: 8, PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddBatch(seed); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, q := range queries {
		wg.Add(1)
		go func(q entity.Record) {
			defer wg.Done()
			if _, err := s.Resolve(q); err != nil {
				t.Error(err)
			}
		}(q)
	}
	wg.Wait()
	before := s.Stats()
	if before.BatchedPairs == 0 {
		t.Fatalf("stats %+v: no batched pairs to persist", before)
	}
	snapBefore := s.Snapshot()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	client2 := &batchConsistentClient{}
	s2, err := Open(client2, Options{DispatchPairs: 8, PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats().BatchedPairs; got != before.BatchedPairs {
		t.Errorf("recovered BatchedPairs = %d, want %d", got, before.BatchedPairs)
	}
	if !reflect.DeepEqual(s2.Snapshot(), snapBefore) {
		t.Error("entity groups differ after recovery")
	}
	// Re-resolving is served from the durable journal: no client call,
	// no dispatcher involvement.
	res, err := s2.Resolve(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) == 0 {
		t.Error("replay produced no decisions")
	}
	for _, d := range res.Decisions {
		if !d.Journaled {
			t.Errorf("decision %+v not journaled on replay", d)
		}
	}
	if client2.calls.Load() != 0 {
		t.Errorf("recovery made %d client calls, want 0", client2.calls.Load())
	}
}

// TestInMemoryCloseDrainsDispatcher: Close on an in-memory store is
// no longer a pure no-op — it drains the dispatcher, and later
// resolves that need the LLM fail cleanly instead of hanging.
func TestInMemoryCloseDrainsDispatcher(t *testing.T) {
	seed, queries := dispatchWorkload(t, 2)
	s := New(&batchConsistentClient{}, Options{DispatchPairs: 8, DispatchFlush: time.Millisecond})
	if err := s.AddBatch(seed); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(queries[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := s.Resolve(queries[1]); err == nil {
		t.Error("Resolve after Close should fail (dispatcher closed)")
	}
}
