package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"llm4em/internal/entity"
	"llm4em/internal/llm"
)

// fakeClient is a scriptable llm.Client that counts its calls.
type fakeClient struct {
	name  string
	calls atomic.Int64
	delay time.Duration
	// fail, when set, may return an error for a call; call numbers
	// start at 1.
	fail func(call int64, prompt string) error
}

func (c *fakeClient) Name() string {
	if c.name == "" {
		return "fake"
	}
	return c.name
}

func (c *fakeClient) Chat(messages []llm.Message) (llm.Response, error) {
	call := c.calls.Add(1)
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	prompt := messages[len(messages)-1].Content
	if c.fail != nil {
		if err := c.fail(call, prompt); err != nil {
			return llm.Response{}, err
		}
	}
	answer := "No."
	if strings.Contains(prompt, "same") {
		answer = "Yes."
	}
	return llm.Response{Content: answer, PromptTokens: len(prompt), CompletionTokens: 1}, nil
}

func makePairs(n int) []entity.Pair {
	pairs := make([]entity.Pair, n)
	for i := range pairs {
		kind := "same"
		if i%2 == 1 {
			kind = "different"
		}
		pairs[i] = entity.Pair{
			ID:    fmt.Sprintf("p%d", i),
			A:     entity.Record{ID: fmt.Sprintf("a%d", i), Attrs: []entity.Attr{{Name: "title", Value: fmt.Sprintf("%s item %d", kind, i)}}},
			B:     entity.Record{ID: fmt.Sprintf("b%d", i), Attrs: []entity.Attr{{Name: "title", Value: fmt.Sprintf("%s item %d", kind, i)}}},
			Match: i%2 == 0,
		}
	}
	return pairs
}

func buildPrompt(p entity.Pair) string {
	return "match? " + p.A.Serialize() + " vs " + p.B.Serialize()
}

func parseYes(answer string) bool {
	return strings.Contains(strings.ToLower(answer), "yes")
}

// completeAll answers every prompt on ForEach at the engine's worker
// count — the loop core.Matcher runs with one batch-of-one dispatcher
// submission per pair — and returns the responses and cache flags in
// input order. The first error stops new work.
func completeAll(e *Engine, prompts []string) ([]llm.Response, []bool, error) {
	resps := make([]llm.Response, len(prompts))
	cached := make([]bool, len(prompts))
	err := ForEach(len(prompts), e.Workers(), func(i int) error {
		resp, c, err := e.CompleteContext(context.Background(), prompts[i])
		if err != nil {
			return fmt.Errorf("prompt %d: %w", i, err)
		}
		resps[i], cached[i] = resp, c
		return nil
	})
	return resps, cached, err
}

func pairPrompts(pairs []entity.Pair, build func(entity.Pair) string) []string {
	prompts := make([]string, len(pairs))
	for i, p := range pairs {
		prompts[i] = build(p)
	}
	return prompts
}

func TestMatchDeterministicOrder(t *testing.T) {
	pairs := makePairs(40)
	e := New(&fakeClient{}, Options{Workers: 8})
	resps, _, err := completeAll(e, pairPrompts(pairs, buildPrompt))
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != len(pairs) {
		t.Fatalf("got %d responses, want %d", len(resps), len(pairs))
	}
	for i, r := range resps {
		if parseYes(r.Content) != pairs[i].Match {
			t.Errorf("pair %s: match = %v, want %v", pairs[i].ID, parseYes(r.Content), pairs[i].Match)
		}
		if r.PromptTokens != len(buildPrompt(pairs[i])) {
			t.Fatalf("response %d answers another pair's prompt", i)
		}
	}
}

func TestMatchAgreesWithSequential(t *testing.T) {
	prompts := pairPrompts(makePairs(30), buildPrompt)
	seq, _, err := completeAll(New(&fakeClient{}, Options{Workers: 1, CacheSize: -1}), prompts)
	if err != nil {
		t.Fatal(err)
	}
	conc, _, err := completeAll(New(&fakeClient{}, Options{Workers: 8}), prompts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != conc[i] {
			t.Fatalf("prompt %d: sequential and concurrent runs disagree", i)
		}
	}
}

// TestStreamDeliversAll pins the streaming shape core.Matcher.Stream
// builds on the pool: every job hands its answer to a channel buffered
// for the whole set, each exactly once.
func TestStreamDeliversAll(t *testing.T) {
	prompts := pairPrompts(makePairs(25), buildPrompt)
	e := New(&fakeClient{}, Options{Workers: 4})
	ch := make(chan int, len(prompts))
	err := ForEach(len(prompts), e.Workers(), func(i int) error {
		if _, _, err := e.CompleteContext(context.Background(), prompts[i]); err != nil {
			return err
		}
		ch <- i
		return nil
	})
	close(ch)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := range ch {
		if seen[i] {
			t.Fatalf("index %d delivered twice", i)
		}
		seen[i] = true
	}
	if len(seen) != len(prompts) {
		t.Fatalf("streamed %d answers, want %d", len(seen), len(prompts))
	}
}

func TestStreamPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	client := &fakeClient{fail: func(call int64, prompt string) error {
		if strings.Contains(prompt, "item 7") {
			return boom
		}
		return nil
	}}
	e := New(client, Options{Workers: 4})
	if _, _, err := completeAll(e, pairPrompts(makePairs(20), buildPrompt)); !errors.Is(err, boom) {
		t.Fatalf("completeAll = %v, want wrapped boom", err)
	}
}

func TestCacheDeduplicatesPrompts(t *testing.T) {
	client := &fakeClient{}
	e := New(client, Options{Workers: 8})
	// All pairs build the same two prompts.
	pairs := makePairs(64)
	samePrompt := func(p entity.Pair) string {
		if p.Match {
			return "match? same thing"
		}
		return "match? different thing"
	}
	_, cachedFlags, err := completeAll(e, pairPrompts(pairs, samePrompt))
	if err != nil {
		t.Fatal(err)
	}
	if got := client.calls.Load(); got != 2 {
		t.Fatalf("client saw %d calls for 2 unique prompts, want 2", got)
	}
	cached := 0
	for _, c := range cachedFlags {
		if c {
			cached++
		}
	}
	if cached != len(pairs)-2 {
		t.Fatalf("got %d cached answers, want %d", cached, len(pairs)-2)
	}
	if s := e.Stats(); s.ClientCalls != 2 || s.CacheHits != uint64(len(pairs)-2) {
		t.Fatalf("stats = %+v, want 2 calls and %d hits", s, len(pairs)-2)
	}
}

func TestCacheSharedAcrossRuns(t *testing.T) {
	client := &fakeClient{}
	e := New(client, Options{Workers: 4})
	prompts := pairPrompts(makePairs(10), buildPrompt)
	if _, _, err := completeAll(e, prompts); err != nil {
		t.Fatal(err)
	}
	first := client.calls.Load()
	if _, _, err := completeAll(e, prompts); err != nil {
		t.Fatal(err)
	}
	if got := client.calls.Load(); got != first {
		t.Fatalf("second run issued %d extra calls, want 0", got-first)
	}
}

func TestCacheDisabled(t *testing.T) {
	client := &fakeClient{}
	e := New(client, Options{Workers: 2, CacheSize: -1})
	prompts := []string{"p", "p", "p", "p"}
	if _, _, err := completeAll(e, prompts); err != nil {
		t.Fatal(err)
	}
	if got := client.calls.Load(); got != int64(len(prompts)) {
		t.Fatalf("client saw %d calls with cache disabled, want %d", got, len(prompts))
	}
}

// TestPeekAndSeed covers the cache-layering surface used by the
// batching dispatcher: Peek never computes or waits, Seed installs a
// response as if the client had answered, and neither touches
// existing entries.
func TestPeekAndSeed(t *testing.T) {
	client := &fakeClient{}
	e := New(client, Options{Workers: 2})

	if _, ok := e.Peek("p"); ok {
		t.Fatal("Peek reported a hit on an empty cache")
	}
	e.Seed("p", llm.Response{Content: "Yes.", PromptTokens: 7})
	resp, ok := e.Peek("p")
	if !ok || resp.Content != "Yes." || resp.PromptTokens != 7 {
		t.Fatalf("Peek after Seed = %+v %v", resp, ok)
	}
	// A Complete of the seeded prompt is a cache hit: no client call.
	if _, cached, err := e.CompleteContext(context.Background(), "p"); err != nil || !cached {
		t.Fatalf("Complete(seeded) cached=%v err=%v", cached, err)
	}
	if client.calls.Load() != 0 {
		t.Fatalf("client saw %d calls, want 0", client.calls.Load())
	}

	// Seeding an existing key leaves the original entry untouched.
	e.Seed("p", llm.Response{Content: "No."})
	if resp, _ := e.Peek("p"); resp.Content != "Yes." {
		t.Fatalf("Seed overwrote an existing entry: %+v", resp)
	}

	// An in-flight computation is not a Peek hit and is not displaced
	// by Seed: the coalesced answer wins.
	slow := &fakeClient{delay: 20 * time.Millisecond}
	es := New(slow, Options{Workers: 2})
	done := make(chan llm.Response, 1)
	go func() {
		resp, _, _ := es.CompleteContext(context.Background(), "same thing")
		done <- resp
	}()
	for slow.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, ok := es.Peek("same thing"); ok {
		t.Error("Peek joined an in-flight computation")
	}
	es.Seed("same thing", llm.Response{Content: "seeded"})
	if resp := <-done; resp.Content != "Yes." {
		t.Errorf("in-flight answer = %q, want the client's Yes.", resp.Content)
	}

	// With caching disabled both are inert.
	ed := New(&fakeClient{}, Options{CacheSize: -1})
	ed.Seed("p", llm.Response{Content: "Yes."})
	if _, ok := ed.Peek("p"); ok {
		t.Fatal("Peek hit with caching disabled")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	client := &fakeClient{}
	e := New(client, Options{Workers: 1, CacheSize: 2})
	for _, p := range []string{"a", "b", "c", "a"} {
		if _, _, err := e.CompleteContext(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	// "a" was evicted by "c", so the final "a" recomputes.
	if got := client.calls.Load(); got != 4 {
		t.Fatalf("client saw %d calls, want 4 (a evicted)", got)
	}
	if n := e.cache.len(); n > 2 {
		t.Fatalf("cache holds %d entries, capacity 2", n)
	}
	// "c" stayed resident.
	if _, cached, _ := e.CompleteContext(context.Background(), "c"); !cached {
		t.Fatal("expected c to still be cached")
	}
}

func TestCacheDoesNotCacheErrors(t *testing.T) {
	boom := errors.New("boom")
	var failed atomic.Bool
	client := &fakeClient{fail: func(call int64, prompt string) error {
		if failed.CompareAndSwap(false, true) {
			return boom
		}
		return nil
	}}
	e := New(client, Options{Workers: 1})
	if _, _, err := e.CompleteContext(context.Background(), "p"); !errors.Is(err, boom) {
		t.Fatalf("first call: %v, want boom", err)
	}
	if _, _, err := e.CompleteContext(context.Background(), "p"); err != nil {
		t.Fatalf("second call should recompute after error, got %v", err)
	}
	if got := client.calls.Load(); got != 2 {
		t.Fatalf("client saw %d calls, want 2", got)
	}
}

func TestRetryTransient(t *testing.T) {
	client := &fakeClient{fail: func(call int64, prompt string) error {
		if call <= 2 {
			return Transient(errors.New("rate limited"))
		}
		return nil
	}}
	e := New(client, Options{Workers: 1, MaxRetries: 2, Backoff: time.Microsecond})
	resp, _, err := e.CompleteContext(context.Background(), "p")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Content == "" {
		t.Fatal("empty response after successful retry")
	}
	if s := e.Stats(); s.Retries != 2 || s.ClientCalls != 1 {
		t.Fatalf("stats = %+v, want 2 retries within 1 logical call", s)
	}
}

func TestRetryExhausted(t *testing.T) {
	client := &fakeClient{fail: func(call int64, prompt string) error {
		return Transient(errors.New("still down"))
	}}
	e := New(client, Options{Workers: 1, MaxRetries: 2, Backoff: time.Microsecond})
	if _, _, err := e.CompleteContext(context.Background(), "p"); !IsTransient(err) {
		t.Fatalf("want transient error after exhausted retries, got %v", err)
	}
	if got := client.calls.Load(); got != 3 {
		t.Fatalf("client saw %d attempts, want 3 (1 + 2 retries)", got)
	}
}

func TestNoRetryOnPermanentError(t *testing.T) {
	boom := errors.New("bad request")
	client := &fakeClient{fail: func(call int64, prompt string) error { return boom }}
	e := New(client, Options{Workers: 1, MaxRetries: 5, Backoff: time.Microsecond})
	if _, _, err := e.CompleteContext(context.Background(), "p"); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if got := client.calls.Load(); got != 1 {
		t.Fatalf("client saw %d attempts for a permanent error, want 1", got)
	}
}

func TestIsTransient(t *testing.T) {
	if IsTransient(nil) {
		t.Error("nil should not be transient")
	}
	if IsTransient(errors.New("plain")) {
		t.Error("plain error should not be transient")
	}
	if !IsTransient(Transient(errors.New("x"))) {
		t.Error("Transient() should be transient")
	}
	if !IsTransient(fmt.Errorf("wrapped: %w", Transient(errors.New("x")))) {
		t.Error("wrapped transient should be transient")
	}
	if Transient(nil) != nil {
		t.Error("Transient(nil) should be nil")
	}
}

func TestForEachVisitsAll(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 100} {
		var visited atomic.Int64
		n := 50
		if err := ForEach(n, workers, func(i int) error {
			visited.Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := visited.Load(); got != int64(n) {
			t.Fatalf("workers=%d: visited %d jobs, want %d", workers, got, n)
		}
	}
}

func TestForEachStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	var after atomic.Int64
	err := ForEach(1000, 4, func(i int) error {
		if i == 3 {
			return boom
		}
		if i > 500 {
			after.Add(1)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if got := after.Load(); got > 100 {
		t.Fatalf("ran %d jobs far past the error, expected cancellation", got)
	}
}

// TestConcurrencySpeedup pins the acceptance criterion: with a
// latency-bound client, 4+ workers finish at least twice as fast as
// sequential evaluation.
func TestConcurrencySpeedup(t *testing.T) {
	const delay = 4 * time.Millisecond
	prompts := pairPrompts(makePairs(32), buildPrompt)

	run := func(workers int) time.Duration {
		e := New(&fakeClient{delay: delay}, Options{Workers: workers, CacheSize: -1})
		start := time.Now()
		if _, _, err := completeAll(e, prompts); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	seq := run(1)
	conc := run(8)
	if conc > seq/2 {
		t.Fatalf("8 workers took %v vs sequential %v; want at least 2x speedup", conc, seq)
	}
}

// TestMatchRaceSimulatedModel exercises the pool against the real
// simulated model so `go test -race` can observe the full path.
func TestMatchRaceSimulatedModel(t *testing.T) {
	model := llm.MustNew(llm.GPT4)
	pairs := makePairs(24)
	e := New(model, Options{Workers: 8})
	resps, _, err := completeAll(e, pairPrompts(pairs, buildPrompt))
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != len(pairs) {
		t.Fatalf("got %d responses, want %d", len(resps), len(pairs))
	}
	for i, r := range resps {
		if r.Content == "" {
			t.Fatalf("pair %s: empty answer", pairs[i].ID)
		}
	}
}

// TestCacheRace hammers a tiny cache from many goroutines; run with
// -race to validate the locking.
func TestCacheRace(t *testing.T) {
	client := &fakeClient{}
	e := New(client, Options{Workers: 16, CacheSize: 4})
	prompts := make([]string, 200)
	for i := range prompts {
		prompts[i] = fmt.Sprintf("p%d", i%8)
	}
	if _, _, err := completeAll(e, prompts); err != nil {
		t.Fatal(err)
	}
	if n := e.cache.len(); n > 4 {
		t.Fatalf("cache holds %d entries, capacity 4", n)
	}
}
