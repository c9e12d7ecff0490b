package resolve

import (
	"encoding/json"
	"os"
	"testing"
)

// TestLLMCallRegression is the CI bench-regression gate
// (scripts/bench_regression.sh): it replays the cascade reference
// workload and compares the number of candidate pairs and LLM calls
// against the baseline recorded in BENCH_resolve.json. The workload
// and the simulated models are deterministic, so any drift is a real
// behavior change: more LLM calls is a cost regression and fails;
// fewer is an improvement that should be captured by regenerating the
// JSON in the same PR.
//
// The test is env-gated so ordinary `go test ./...` runs stay fast
// and independent of the benchmark baseline file.
func TestLLMCallRegression(t *testing.T) {
	if os.Getenv("BENCH_REGRESSION") == "" {
		t.Skip("set BENCH_REGRESSION=1 (CI bench-regression step) to run")
	}
	data, err := os.ReadFile("../../BENCH_resolve.json")
	if err != nil {
		t.Fatalf("read baseline: %v", err)
	}
	var baseline struct {
		Cascade struct {
			CandidatePairs      uint64 `json:"candidate_pairs"`
			LLMPairsWithCascade uint64 `json:"llm_pairs_with_cascade"`
		} `json:"cascade"`
	}
	if err := json.Unmarshal(data, &baseline); err != nil {
		t.Fatalf("decode baseline: %v", err)
	}
	if baseline.Cascade.CandidatePairs == 0 {
		t.Fatal("baseline has no cascade.candidate_pairs — regenerate BENCH_resolve.json")
	}

	// The reference workload of BENCH_resolve.json: 120 WDC seed
	// records queried by 120 A-side records, default cascade.
	seed, queries := wdcStoreRecords(t, 120)
	s := New(&countingClient{}, Options{CacheSize: -1})
	if err := s.AddBatch(seed); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if _, err := s.Resolve(q); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	t.Logf("workload: %d candidate pairs, %d LLM pairs (baseline %d / %d)",
		st.Candidates, st.LLMPairs, baseline.Cascade.CandidatePairs, baseline.Cascade.LLMPairsWithCascade)

	if uint64(st.Candidates) != baseline.Cascade.CandidatePairs {
		t.Errorf("candidate pairs = %d, baseline %d — blocking changed; if intentional, regenerate BENCH_resolve.json in this PR",
			st.Candidates, baseline.Cascade.CandidatePairs)
	}
	if uint64(st.LLMPairs) > baseline.Cascade.LLMPairsWithCascade {
		t.Errorf("LLM pairs = %d, baseline %d — the cascade now escalates more pairs (cost regression); if intentional, regenerate BENCH_resolve.json in this PR",
			st.LLMPairs, baseline.Cascade.LLMPairsWithCascade)
	} else if uint64(st.LLMPairs) < baseline.Cascade.LLMPairsWithCascade {
		t.Logf("improvement: %d LLM pairs vs baseline %d — consider regenerating BENCH_resolve.json",
			st.LLMPairs, baseline.Cascade.LLMPairsWithCascade)
	}
}
