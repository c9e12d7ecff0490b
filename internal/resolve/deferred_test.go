package resolve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"llm4em/internal/entity"
	"llm4em/internal/llm"
	"llm4em/internal/persist"
	"llm4em/internal/resilience"
)

// outageClient answers like countingClient when up and fails every
// call while down — the unit-test stand-in for a backend outage (the
// chaos package injects richer fault mixes).
type outageClient struct {
	calls atomic.Int64
	down  atomic.Bool
}

func (c *outageClient) Name() string { return "counting" }

func (c *outageClient) Chat(messages []llm.Message) (llm.Response, error) {
	c.calls.Add(1)
	if c.down.Load() {
		return llm.Response{}, errors.New("backend down")
	}
	prompt := messages[len(messages)-1].Content
	answer := "No."
	if strings.Count(prompt, "sameent") >= 2 {
		answer = "Yes."
	}
	return llm.Response{Content: answer, PromptTokens: len(prompt) / 4, CompletionTokens: 2}, nil
}

// resilientOptions is the fast-converging test configuration: trip on
// the first failure, recover within milliseconds.
func resilientOptions() ResilienceOptions {
	return ResilienceOptions{
		Enabled: true,
		Breaker: resilience.BreakerOptions{
			ConsecutiveFailures: 1,
			Cooldown:            time.Millisecond,
		},
		RetryInterval: 2 * time.Millisecond,
	}
}

func waitForStore(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestDegradeAndReescalate(t *testing.T) {
	client := &outageClient{}
	s := New(client, Options{
		Cascade:    CascadeOptions{Disable: true},
		Resilience: resilientOptions(),
	})
	defer s.Close()
	if err := s.Add(rec("r1", "alpha beta sameent0001")); err != nil {
		t.Fatal(err)
	}

	client.down.Store(true)
	res, err := s.Resolve(rec("q1", "alpha beta sameent0001"))
	if err != nil {
		t.Fatalf("Resolve during outage: %v", err)
	}
	if len(res.Decisions) != 1 {
		t.Fatalf("decisions = %d, want 1", len(res.Decisions))
	}
	d := res.Decisions[0]
	if !d.Deferred || d.Method != MethodDeferred {
		t.Fatalf("decision = %+v, want deferred with method %q", d, MethodDeferred)
	}
	if res.Matched() {
		t.Error("deferred match folded into the entity graph before re-escalation")
	}
	st := s.Stats()
	if st.DeferredPairs != 1 || st.Resilience.DeferredQueue != 1 {
		t.Fatalf("DeferredPairs = %d, queue = %d, want 1 and 1",
			st.DeferredPairs, st.Resilience.DeferredQueue)
	}
	if st.Resilience.BreakerState != "open" {
		t.Fatalf("breaker state = %q, want open", st.Resilience.BreakerState)
	}
	if got := s.Degraded(); got != "llm_breaker_open" {
		t.Fatalf("Degraded() = %q, want llm_breaker_open", got)
	}

	client.down.Store(false)
	waitForStore(t, "deferred queue drain", func() bool {
		return s.Stats().Resilience.DeferredQueue == 0
	})
	members, ok := s.Entity("q1")
	if !ok || len(members) != 2 {
		t.Fatalf("entity after re-escalation = %v (ok=%v), want {q1,r1}", members, ok)
	}
	st = s.Stats()
	if st.Redecided != 1 {
		t.Errorf("Redecided = %d, want 1", st.Redecided)
	}
	if got := s.Degraded(); got != "" {
		t.Errorf("Degraded() after recovery = %q, want empty", got)
	}
}

func TestDeadlineDegradesWithoutTrippingBreaker(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s := New(&hangingClient{block: block}, Options{
		Cascade:    CascadeOptions{Disable: true},
		Resilience: resilientOptions(),
	})
	defer s.Close()
	if err := s.Add(rec("r1", "alpha beta sameent0001")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	res, err := s.ResolveContext(ctx, rec("q1", "alpha beta sameent0001"))
	if err != nil {
		t.Fatalf("ResolveContext with spent deadline: %v", err)
	}
	if !res.Decisions[0].Deferred {
		t.Fatalf("decision = %+v, want deferred", res.Decisions[0])
	}
	// Deadline failures say nothing about backend health; the breaker
	// must stay closed.
	if st := s.Stats().Resilience; st.BreakerState != "closed" {
		t.Errorf("breaker state = %q after deadline, want closed", st.BreakerState)
	}
}

// hangingClient blocks every request until its context expires (or
// the test closes block), exercising deadline propagation.
type hangingClient struct{ block chan struct{} }

func (c *hangingClient) Name() string { return "hanging" }

func (c *hangingClient) Chat(messages []llm.Message) (llm.Response, error) {
	<-c.block
	return llm.Response{}, errors.New("released")
}

func (c *hangingClient) ChatContext(ctx context.Context, messages []llm.Message) (llm.Response, error) {
	select {
	case <-ctx.Done():
		return llm.Response{}, ctx.Err()
	case <-c.block:
		return llm.Response{}, errors.New("released")
	}
}

func TestShedSurfacesAsError(t *testing.T) {
	enter := make(chan struct{})
	release := make(chan struct{})
	client := &gateClient{enter: enter, release: release}
	opts := resilientOptions()
	opts.Shed = resilience.ShedOptions{MaxConcurrent: 1, MaxQueue: 1}
	s := New(client, Options{
		Cascade:    CascadeOptions{Disable: true},
		Resilience: opts,
	})
	defer s.Close()
	if err := s.Add(rec("r1", "alpha beta sameent0001")); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 2)
	go func() {
		_, err := s.Resolve(rec("q1", "alpha beta sameent0001"))
		done <- err
	}()
	<-enter // first resolve holds the only slot, blocked in Chat
	go func() {
		// Distinct titles keep the three prompts distinct — identical
		// prompts would coalesce in the engine's single-flight cache and
		// never reach the shedder-guarded client.
		_, err := s.Resolve(rec("q2", "alpha beta sameent0002"))
		done <- err
	}()
	waitForStore(t, "second resolve to queue", func() bool {
		return s.Stats().Resilience.Waiting == 1
	})

	_, err := s.Resolve(rec("q3", "alpha beta sameent0003"))
	if !errors.Is(err, resilience.ErrShed) {
		t.Fatalf("third concurrent resolve: %v, want ErrShed", err)
	}
	if s.Stats().Resilience.Shed != 1 {
		t.Errorf("Shed = %d, want 1", s.Stats().Resilience.Shed)
	}

	close(release)
	<-enter // admit the queued second resolve
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Errorf("blocked resolve: %v", err)
		}
	}
}

// gateClient signals entry on enter and blocks until release closes,
// then answers Yes.
type gateClient struct {
	enter   chan struct{}
	release chan struct{}
}

func (c *gateClient) Name() string { return "gate" }

func (c *gateClient) Chat(messages []llm.Message) (llm.Response, error) {
	c.enter <- struct{}{}
	<-c.release
	return llm.Response{Content: "Yes.", PromptTokens: 4, CompletionTokens: 2}, nil
}

// TestDeferredConvergesToHealthyRun is the unit-scale differential
// check: an outage-then-recovery run must end with the same durable
// journal and entity groups as an uninterrupted run. (The chaos
// package repeats this at scale with richer fault mixes.)
func TestDeferredConvergesToHealthyRun(t *testing.T) {
	seed := []entity.Record{
		rec("r1", "alpha beta sameent0001"),
		rec("r2", "gamma delta other0001"),
	}
	queries := []entity.Record{
		rec("q1", "alpha beta sameent0001"),
		rec("q2", "gamma delta sameent0002"),
	}
	run := func(dir string, outage bool) *persist.Snapshot {
		client := &outageClient{}
		s, err := Open(client, Options{
			Cascade:    CascadeOptions{Disable: true},
			PersistDir: dir,
			Resilience: resilientOptions(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddBatch(seed); err != nil {
			t.Fatal(err)
		}
		client.down.Store(outage)
		for _, q := range queries {
			if _, err := s.Resolve(q); err != nil {
				t.Fatalf("resolve %s: %v", q.ID, err)
			}
		}
		if outage {
			client.down.Store(false)
			waitForStore(t, "deferred queue drain", func() bool {
				return s.Stats().Resilience.DeferredQueue == 0
			})
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		snap, ok, err := persist.ReadSnapshot(dir)
		if err != nil || !ok {
			t.Fatalf("ReadSnapshot: ok=%v err=%v", ok, err)
		}
		return snap
	}

	healthyDir, recoveredDir := t.TempDir(), t.TempDir()
	healthy := run(healthyDir, false)
	recovered := run(recoveredDir, true)

	if !reflect.DeepEqual(healthy.Groups, recovered.Groups) {
		t.Errorf("groups diverged:\nhealthy:   %v\nrecovered: %v",
			healthy.Groups, recovered.Groups)
	}
	toMap := func(js []journaled) map[string]persist.DecisionEntry {
		m := map[string]persist.DecisionEntry{}
		for _, j := range js {
			m[j.query+"|"+j.CandidateID] = j.DecisionEntry
		}
		return m
	}
	hj, rj := toMap(committedJournal(t, healthyDir)), toMap(committedJournal(t, recoveredDir))
	if !reflect.DeepEqual(hj, rj) {
		t.Errorf("journals diverged:\nhealthy:   %v\nrecovered: %v", hj, rj)
	}
	if len(recovered.Deferred) != 0 {
		t.Errorf("recovered snapshot still carries %d deferred pairs", len(recovered.Deferred))
	}
}

// TestResolveAllocBudgetWithResilience pins the fault-tolerance cost
// on the healthy hot path: a resolve with the full resilience layer
// enabled allocates exactly as much as one without — the breaker and
// shedder are atomics and channel operations, and the degradation
// machinery is never touched while the backend answers.
func TestResolveAllocBudgetWithResilience(t *testing.T) {
	build := func(opts Options) *Store {
		s := New(benchClient{}, opts)
		for i := 0; i < 500; i++ {
			if err := s.Add(rec(fmt.Sprintf("r%04d", i),
				fmt.Sprintf("sony camera model%04d", i))); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	measure := func(s *Store) float64 {
		defer s.Close()
		q := rec("q0001", "sony camera digital model0001")
		for i := 0; i < 10; i++ {
			if _, err := s.Resolve(q); err != nil {
				t.Fatal(err)
			}
		}
		return minAllocsPerRun(3, func() {
			if _, err := s.Resolve(q); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := measure(build(Options{}))
	// A long retry interval keeps the idle re-escalator's ticker out of
	// the measurement window.
	resilient := measure(build(Options{Resilience: ResilienceOptions{
		Enabled:       true,
		RetryInterval: time.Hour,
	}}))
	slack := 0.0
	if raceEnabled {
		slack = 1
	}
	if resilient > base+slack {
		t.Errorf("resilience added allocations: %v allocs/op with, %v without", resilient, base)
	}
}

// TestDeferredQueueSurvivesCrash resolves during an outage, abandons
// the store without Close (the crash), and reopens the directory: the
// WAL replay must rebuild the deferred queue and the re-escalator
// must settle it.
func TestDeferredQueueSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	client1 := &outageClient{}
	s1, err := Open(client1, Options{
		Cascade:    CascadeOptions{Disable: true},
		PersistDir: dir,
		Resilience: resilientOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Add(rec("r1", "alpha beta sameent0001")); err != nil {
		t.Fatal(err)
	}
	client1.down.Store(true)
	if _, err := s1.Resolve(rec("q1", "alpha beta sameent0001")); err != nil {
		t.Fatal(err)
	}
	// Crash: stop the background goroutine (its client stays down, so
	// it would otherwise keep probing the shared directory) and drop
	// the store without Close. The WAL keeps the deferred entry.
	s1.stopResilience()

	s2, err := Open(&outageClient{}, Options{
		Cascade:    CascadeOptions{Disable: true},
		PersistDir: dir,
		Resilience: resilientOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	waitForStore(t, "replayed deferred queue drain", func() bool {
		return s2.Stats().Resilience.DeferredQueue == 0
	})
	members, ok := s2.Entity("q1")
	if !ok || len(members) != 2 {
		t.Fatalf("entity after crash recovery = %v (ok=%v), want {q1,r1}", members, ok)
	}
	if st := s2.Stats(); st.Redecided != 1 {
		t.Errorf("Redecided = %d, want 1", st.Redecided)
	}
	// The journal entry must now be the final LLM verdict.
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var final *persist.DecisionEntry
	for _, j := range committedJournal(t, dir) {
		if j.query == "q1" && j.CandidateID == "r1" {
			final = &j.DecisionEntry
		}
	}
	if final == nil {
		t.Fatal("journal entry for q1|r1 not found")
	}
	if final.Deferred || final.Method != string(MethodLLM) || !final.Match {
		t.Errorf("journal entry after recovery = %+v, want final llm match", *final)
	}
}
