package dispatch

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llm4em/internal/clock"
	"llm4em/internal/entity"
	"llm4em/internal/llm"
	"llm4em/internal/pipeline"
)

// The test prompt formats: per-pair "match? <a> || <b>", batched one
// "<i> | <a> | <b>" line per pair under a header. Answers: "Yes." iff
// the two sides are equal, batch replies "i. Yes."/"i. No." — so the
// batched and per-pair answers agree and extraction is the identity.
func testBuildPair(p entity.Pair) string {
	return "match? " + p.A.Serialize() + " || " + p.B.Serialize()
}

func testBuildBatch(pairs []entity.Pair) string {
	var b strings.Builder
	b.WriteString("batch:\n")
	for i, p := range pairs {
		fmt.Fprintf(&b, "%d | %s | %s\n", i+1, p.A.Serialize(), p.B.Serialize())
	}
	return strings.TrimRight(b.String(), "\n")
}

// testClient answers the formats above deterministically and counts
// its calls. With garbleBatches set, batched prompts get an
// unparseable reply, forcing the dispatcher's per-pair fallback.
type testClient struct {
	latency       time.Duration // real sleep, to let queues build
	garbleBatches bool

	calls, batchCalls, pairCalls atomic.Int64
}

func (c *testClient) Name() string { return "dispatch-test" }

func (c *testClient) Chat(messages []llm.Message) (llm.Response, error) {
	c.calls.Add(1)
	if c.latency > 0 {
		time.Sleep(c.latency)
	}
	content := messages[len(messages)-1].Content
	if strings.HasPrefix(content, "batch:\n") {
		c.batchCalls.Add(1)
		if c.garbleBatches {
			return llm.Response{Content: "I cannot answer in that format.", PromptTokens: 10, CompletionTokens: 7}, nil
		}
		var b strings.Builder
		lines := strings.Split(content, "\n")[1:]
		for _, line := range lines {
			parts := strings.SplitN(line, " | ", 3)
			if len(parts) != 3 {
				return llm.Response{}, fmt.Errorf("malformed batch line %q", line)
			}
			answer := "No."
			if parts[1] == parts[2] {
				answer = "Yes."
			}
			fmt.Fprintf(&b, "%s. %s\n", parts[0], answer)
		}
		return llm.Response{
			Content:      strings.TrimRight(b.String(), "\n"),
			PromptTokens: len(content) / 4, CompletionTokens: 3 * len(lines),
		}, nil
	}
	c.pairCalls.Add(1)
	body := strings.TrimPrefix(content, "match? ")
	a, b, _ := strings.Cut(body, " || ")
	answer := "No."
	if a == b {
		answer = "Yes."
	}
	return llm.Response{Content: answer, PromptTokens: len(content) / 4, CompletionTokens: 2}, nil
}

func pair(i int, match bool) entity.Pair {
	a := fmt.Sprintf("item %04d", i)
	b := a
	if !match {
		b = fmt.Sprintf("other %04d", i)
	}
	return entity.Pair{
		ID: fmt.Sprintf("p%04d", i),
		A:  entity.Record{ID: fmt.Sprintf("a%04d", i), Attrs: []entity.Attr{{Name: "title", Value: a}}},
		B:  entity.Record{ID: fmt.Sprintf("b%04d", i), Attrs: []entity.Attr{{Name: "title", Value: b}}},
	}
}

func newTestDispatcher(client llm.Client, opts Options) *Dispatcher {
	eng := pipeline.New(client, pipeline.Options{Workers: 32})
	return New(eng, testBuildPair, testBuildBatch, opts)
}

// doOne submits one pair and blocks until it is decided.
func doOne(d *Dispatcher, p entity.Pair) (Result, error) {
	rs, err := d.DoAllContext(context.Background(), []entity.Pair{p})
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// TestBatchesCoalesceConcurrentCalls is the core behavior: many
// concurrent submissions ride far fewer client round-trips, every
// caller gets its own correct answer.
func TestBatchesCoalesceConcurrentCalls(t *testing.T) {
	client := &testClient{latency: time.Millisecond}
	d := newTestDispatcher(client, Options{MaxBatchPairs: 8, FlushInterval: 20 * time.Millisecond})
	defer d.Close()

	const n = 32
	results := make([]Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := doOne(d, pair(i, i%2 == 0))
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()

	for i, r := range results {
		if want := i%2 == 0; r.Match != want {
			t.Errorf("pair %d: Match = %v, want %v", i, r.Match, want)
		}
		wantAnswer := "No."
		if i%2 == 0 {
			wantAnswer = "Yes."
		}
		if r.Answer != wantAnswer {
			t.Errorf("pair %d: Answer = %q, want %q", i, r.Answer, wantAnswer)
		}
	}
	st := d.Stats()
	if got := st.BatchedPairs + st.SinglePairCalls + st.FallbackPairs; got != n {
		t.Errorf("accounted pairs = %d (stats %+v), want %d", got, st, n)
	}
	if calls := client.calls.Load(); calls >= n/2 {
		t.Errorf("client calls = %d for %d pairs — no meaningful coalescing", calls, n)
	}
	if st.Batches == 0 || st.MeanBatchSize() < 2 {
		t.Errorf("stats %+v: expected real batches", st)
	}
}

// TestFlushOnCloseWithPendingPairs: Close drains a queue whose
// deadline never comes — the clock stands still — and the waiting
// caller still gets real answers, not an error.
func TestFlushOnCloseWithPendingPairs(t *testing.T) {
	clk := new(clock.Manual)
	d := New(pipeline.New(&testClient{}, pipeline.Options{Clock: clk}), testBuildPair, testBuildBatch, Options{MaxBatchPairs: 16})
	const n = 5
	pairs := make([]entity.Pair, n)
	for i := range pairs {
		pairs[i] = pair(i, true)
	}
	done := make(chan []Result, 1)
	go func() {
		rs, err := d.DoAllContext(context.Background(), pairs)
		if err != nil {
			t.Error(err)
		}
		done <- rs
	}()
	clk.Next() // the n pairs are queued under the lock that arms the flush timer
	d.Close()
	for i, r := range <-done {
		if !r.Match {
			t.Errorf("pair %d: Match = false, want true", i)
		}
	}
	st := d.Stats()
	if st.DrainFlushes == 0 {
		t.Errorf("stats %+v: expected a drain flush", st)
	}
	if st.BatchedPairs != n {
		t.Errorf("BatchedPairs = %d, want %d (one drained batch)", st.BatchedPairs, n)
	}
	if _, err := doOne(d, pair(99, true)); !errors.Is(err, ErrClosed) {
		t.Errorf("submission after Close: %v, want ErrClosed", err)
	}
	d.Close() // idempotent
}

// TestDeadlineFlushAtFlushInterval: on a manual clock a partial batch
// is still pending a nanosecond short of FlushInterval, and the
// nanosecond that completes it deadline-flushes it as one batch.
func TestDeadlineFlushAtFlushInterval(t *testing.T) {
	clk := new(clock.Manual)
	client := &testClient{}
	d := New(pipeline.New(client, pipeline.Options{Clock: clk}), testBuildPair, testBuildBatch, Options{MaxBatchPairs: 16})
	defer d.Close()
	done := make(chan error, 1)
	go func() {
		_, err := d.DoAllContext(context.Background(), []entity.Pair{pair(0, true), pair(1, false), pair(2, true)})
		done <- err
	}()
	// The pairs are queued under the lock that arms the flush timer.
	if wait := clk.Next(); wait != DefaultFlushInterval {
		t.Fatalf("flush timer armed for %v, want %v", wait, DefaultFlushInterval)
	}
	clk.Advance(DefaultFlushInterval - time.Nanosecond)
	if st := d.Stats(); st.DeadlineFlushes != 0 || client.calls.Load() != 0 {
		t.Fatalf("1ns short of the deadline: %+v after %d calls, want nothing flushed", st, client.calls.Load())
	}
	clk.Advance(time.Nanosecond)
	if st := d.Stats(); st.DeadlineFlushes != 1 {
		t.Fatalf("at the deadline: %d deadline flushes, want 1", st.DeadlineFlushes)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Batches != 1 || st.BatchedPairs != 3 || st.SizeFlushes != 0 {
		t.Errorf("stats %+v: want the three pairs in one deadline batch", st)
	}
}

// TestDeadlineFlushRacesFullBatch stresses the two flush triggers
// against each other: submissions arrive in bursts that both fill
// batches (size flush) and straggle past the deadline (timer flush).
// Every pair must be answered exactly once, correctly, regardless of
// which trigger wins; run with -race this also proves the locking.
func TestDeadlineFlushRacesFullBatch(t *testing.T) {
	client := &testClient{}
	d := newTestDispatcher(client, Options{MaxBatchPairs: 4, FlushInterval: time.Millisecond})
	defer d.Close()

	const rounds = 20
	const burst = 7 // not a multiple of MaxBatchPairs: every round leaves a partial batch for the timer
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for j := 0; j < burst; j++ {
			i := r*burst + j
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := doOne(d, pair(i, i%3 == 0))
				if err != nil {
					t.Error(err)
					return
				}
				if want := i%3 == 0; res.Match != want {
					t.Errorf("pair %d: Match = %v, want %v", i, res.Match, want)
				}
			}(i)
		}
		time.Sleep(time.Duration(r%3) * time.Millisecond) // vary the race window
	}
	wg.Wait()

	st := d.Stats()
	if got := st.BatchedPairs + st.SinglePairCalls + st.FallbackPairs; got != rounds*burst {
		t.Errorf("accounted pairs = %d (stats %+v), want %d", got, st, rounds*burst)
	}
	if st.SizeFlushes == 0 || st.DeadlineFlushes == 0 {
		t.Errorf("stats %+v: wanted both size and deadline flushes to fire", st)
	}
	d.mu.Lock()
	leftover := len(d.pending)
	inflight := len(d.inflight)
	d.mu.Unlock()
	if leftover != 0 || inflight != 0 {
		t.Errorf("queue not drained: %d pending, %d inflight", leftover, inflight)
	}
}

// TestBatchParseFailureFallsBackPerPair: a model that ignores the
// batch format costs the batch one wasted round-trip, then every pair
// is answered individually — never defaulted to No.
func TestBatchParseFailureFallsBackPerPair(t *testing.T) {
	client := &testClient{garbleBatches: true}
	d := newTestDispatcher(client, Options{MaxBatchPairs: 4, FlushInterval: time.Minute})
	defer d.Close()

	const n = 4 // exactly one full batch
	var wg sync.WaitGroup
	results := make([]Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := doOne(d, pair(i, i%2 == 0))
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()

	for i, r := range results {
		if want := i%2 == 0; r.Match != want {
			t.Errorf("pair %d: Match = %v, want %v", i, r.Match, want)
		}
		if !r.FellBack {
			t.Errorf("pair %d: FellBack = false, want true", i)
		}
		if r.Batched {
			t.Errorf("pair %d: Batched = true on a fallback answer", i)
		}
	}
	st := d.Stats()
	if st.ParseFallbacks != 1 || st.FallbackPairs != n {
		t.Errorf("stats %+v: want 1 parse fallback covering %d pairs", st, n)
	}
	if st.Batches != 0 || st.BatchedPairs != 0 {
		t.Errorf("stats %+v: garbled batch must not count as batched", st)
	}
	if got, want := client.calls.Load(), int64(1+n); got != want {
		t.Errorf("client calls = %d, want %d (1 garbled batch + %d per-pair)", got, want, n)
	}
}

// TestSingleFlightAndCacheLayering: identical in-flight pairs
// coalesce onto one future; answered pairs seed the per-pair prompt
// cache so later repeats cost zero client calls.
func TestSingleFlightAndCacheLayering(t *testing.T) {
	client := &testClient{}
	d := newTestDispatcher(client, Options{MaxBatchPairs: 2, FlushInterval: 5 * time.Millisecond})
	defer d.Close()

	// Two distinct pairs plus a duplicate of the first, submitted in
	// one call: DoAllContext enqueues all three under one lock acquisition, so
	// the duplicate deterministically coalesces onto the in-flight twin
	// and the two distinct pairs form exactly one full batch.
	rs, err := d.DoAllContext(context.Background(), []entity.Pair{pair(0, true), pair(1, true), pair(0, true)})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if !r.Match {
			t.Errorf("pair %d: Match = false, want true", i)
		}
	}
	if !rs[2].Cached {
		t.Errorf("duplicate submission not marked Cached: %+v", rs[2])
	}

	st := d.Stats()
	if st.SingleFlightHits != 1 {
		t.Errorf("stats %+v: want exactly 1 single-flight hit", st)
	}
	if client.calls.Load() != 1 {
		t.Errorf("client calls = %d, want 1 (one batch covers all three submissions)", client.calls.Load())
	}

	// A later repeat is served from the seeded per-pair cache.
	r, err := doOne(d, pair(0, true))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Cached || !r.Match || r.Answer != "Yes." {
		t.Errorf("repeat = %+v, want cached Yes.", r)
	}
	if client.calls.Load() != 1 {
		t.Errorf("client calls = %d after repeat, want still 1", client.calls.Load())
	}
	if st := d.Stats(); st.CacheHits == 0 {
		t.Errorf("stats %+v: repeat did not count as cache hit", st)
	}
}

func TestDoAllMixedWithinOneCall(t *testing.T) {
	client := &testClient{}
	d := newTestDispatcher(client, Options{MaxBatchPairs: 3, FlushInterval: time.Millisecond})
	defer d.Close()

	// Five pairs in one call, including an in-call duplicate: one full
	// batch of 3, a deadline-flushed partial of 1 (the duplicate
	// coalesces onto its twin).
	pairs := []entity.Pair{pair(0, true), pair(1, false), pair(2, true), pair(0, true), pair(3, false)}
	rs, err := d.DoAllContext(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, true, false}
	for i, r := range rs {
		if r.Match != want[i] {
			t.Errorf("pair %d: Match = %v, want %v", i, r.Match, want[i])
		}
	}
	if !rs[3].Cached {
		t.Errorf("in-call duplicate not marked Cached: %+v", rs[3])
	}
	if rs[0].BatchID == 0 || rs[0].BatchID != rs[1].BatchID || rs[0].BatchID != rs[2].BatchID {
		t.Errorf("first three pairs should share a batch: %+v %+v %+v", rs[0], rs[1], rs[2])
	}
	if rs[4].Batched {
		t.Errorf("singleton flush marked batched: %+v", rs[4])
	}

	if rs2, err := d.DoAllContext(context.Background(), nil); err != nil || rs2 != nil {
		t.Errorf("DoAllContext(nil) = %v, %v", rs2, err)
	}
}

func TestClientErrorPropagates(t *testing.T) {
	eng := pipeline.New(&failingClient{}, pipeline.Options{MaxRetries: -1})
	d := New(eng, testBuildPair, testBuildBatch, Options{MaxBatchPairs: 2, FlushInterval: time.Millisecond})
	defer d.Close()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = doOne(d, pair(i, true))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Errorf("pair %d: expected an error", i)
		}
	}
	// The failed keys left the in-flight set, so a retry re-attempts.
	d.mu.Lock()
	inflight := len(d.inflight)
	d.mu.Unlock()
	if inflight != 0 {
		t.Errorf("inflight = %d after failure, want 0 (retryable)", inflight)
	}
}

type failingClient struct{}

func (failingClient) Name() string { return "failing" }
func (failingClient) Chat([]llm.Message) (llm.Response, error) {
	return llm.Response{}, errors.New("boom")
}

func TestSplitUsageSumsExactly(t *testing.T) {
	// 700 ms + 3 ns leaves a 3 ns remainder over 5 pairs.
	resp := llm.Response{PromptTokens: 107, CompletionTokens: 23, Latency: 700*time.Millisecond + 3}
	shares := splitUsage(resp, 5)
	var pt, ct int
	var lat time.Duration
	for _, s := range shares {
		pt += s.PromptTokens
		ct += s.CompletionTokens
		lat += s.Latency
	}
	if pt != 107 || ct != 23 || lat != resp.Latency {
		t.Errorf("shares sum to %d/%d/%v, want 107/23/%v", pt, ct, lat, resp.Latency)
	}
	if shares[0].PromptTokens < shares[4].PromptTokens || shares[0].Latency < shares[4].Latency {
		t.Errorf("remainder should go to the earliest pairs: %+v", shares)
	}
}
