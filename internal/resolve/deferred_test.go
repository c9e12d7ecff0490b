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

	"llm4em/internal/clock"
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

// resilientOptions is the fast-converging test configuration on clk:
// trip on the first failure, probe and retry deferred pairs a
// millisecond later. On a clock.Manual nothing re-decides until the
// test advances it.
func resilientOptions(clk clock.Clock) ResilienceOptions {
	return ResilienceOptions{
		Breaker: resilience.BreakerOptions{
			ConsecutiveFailures: 1,
			Cooldown:            time.Millisecond,
			Clock:               clk,
		},
	}
}

// noCascade is the no-cascade baseline: both thresholds negative, so
// every candidate pair goes to the LLM.
func noCascade() CascadeOptions { return CascadeOptions{AcceptAbove: -1, RejectBelow: -1} }

func TestDegradeAndReescalate(t *testing.T) {
	client := &outageClient{}
	// The clock stands still until the outage is lifted, so the 1 ms
	// cooldown cannot lapse (open reads half-open once it has) before the
	// strict open-state assertion below.
	clk := new(clock.Manual)
	ropts := resilientOptions(clk)
	s := New(client, Options{
		Cascade:    noCascade(),
		Resilience: ropts,
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
	// The re-escalator's tick one cooldown on finds the breaker half-open
	// and drains the queue before Advance returns.
	clk.Advance(ropts.Breaker.Cooldown)
	if q := s.Stats().Resilience.DeferredQueue; q != 0 {
		t.Fatalf("deferred queue = %d after the cooldown, want drained", q)
	}
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
	for _, dispatchPairs := range []int{0, 16} {
		t.Run(fmt.Sprintf("dispatch=%d", dispatchPairs), func(t *testing.T) {
			block := make(chan struct{})
			defer close(block)
			// Trip on the first failure, to show the deadline is none. The
			// dispatcher's flush runs on the wall clock here.
			s := New(&hangingClient{block: block}, Options{
				Cascade:       noCascade(),
				Resilience:    ResilienceOptions{Breaker: resilience.BreakerOptions{ConsecutiveFailures: 1}},
				DispatchPairs: dispatchPairs,
			})
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
			// Deadline failures say nothing about backend health; the
			// breaker must stay closed.
			if st := s.Stats().Resilience; st.BreakerState != "closed" {
				t.Errorf("breaker state = %q after deadline, want closed", st.BreakerState)
			}
			// The abandoned model call was cancelled with the deadline, so
			// Close does not wait out the hung backend.
			closed := make(chan error, 1)
			go func() { closed <- s.Close() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(time.Second):
				t.Fatal("Close still blocked on the abandoned model call after 1s")
			}
		})
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
	opts := resilientOptions(new(clock.Manual))
	opts.Shed = resilience.ShedOptions{MaxConcurrent: 1} // one slot queues four waiters
	s := New(client, Options{
		Cascade:    noCascade(),
		Resilience: opts,
	})
	defer s.Close()
	if err := s.Add(rec("r1", "alpha beta sameent0001")); err != nil {
		t.Fatal(err)
	}

	// Distinct titles keep the prompts distinct — identical prompts
	// would coalesce in the engine's single-flight cache and never reach
	// the shedder-guarded client.
	query := func(i int) entity.Record {
		return rec(fmt.Sprintf("q%d", i), fmt.Sprintf("alpha beta sameent%04d", i))
	}
	const held = 1 + 4
	done := make(chan error, held)
	resolveAsync := func(i int) {
		_, err := s.Resolve(query(i))
		done <- err
	}
	go resolveAsync(1)
	<-enter // the first resolve holds the only slot, blocked in Chat
	for i := 2; i <= held; i++ {
		go resolveAsync(i)
	}
	// Wait for the four to block in the shedder's queue.
	for deadline := time.Now().Add(5 * time.Second); s.Stats().Resilience.Waiting != held-1; {
		if time.Now().After(deadline) {
			t.Fatalf("%d resolves queued for the slot, want %d", s.Stats().Resilience.Waiting, held-1)
		}
		time.Sleep(time.Millisecond)
	}

	_, err := s.Resolve(query(held + 1))
	if !errors.Is(err, resilience.ErrShed) {
		t.Fatalf("resolve beyond slot and queue: %v, want ErrShed", err)
	}
	if s.Stats().Resilience.Shed != 1 {
		t.Errorf("Shed = %d, want 1", s.Stats().Resilience.Shed)
	}

	close(release)
	for i := 1; i < held; i++ {
		<-enter // admit the queued resolves one at a time
	}
	for i := 0; i < held; i++ {
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
		clk := new(clock.Manual)
		s, err := Open(client, Options{
			Cascade:    noCascade(),
			PersistDir: dir,
			Resilience: resilientOptions(clk),
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
			clk.Advance(time.Millisecond)
			if q := s.Stats().Resilience.DeferredQueue; q != 0 {
				t.Fatalf("deferred queue = %d a cooldown after the outage, want drained", q)
			}
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
	run(healthyDir, false)
	recovered := run(recoveredDir, true)

	if hg, rg := reopenedGroups(t, healthyDir), reopenedGroups(t, recoveredDir); !reflect.DeepEqual(hg, rg) {
		t.Errorf("groups diverged:\nhealthy:   %v\nrecovered: %v", hg, rg)
	}
	toMap := func(js []journaled) map[string]persist.DecisionEntry {
		m := map[string]persist.DecisionEntry{}
		for _, j := range js {
			m[j.query+"|"+j.CandidateID] = j.DecisionEntry
		}
		return m
	}
	hj, rj := toMap(committedJournal(t, persist.OS, healthyDir)), toMap(committedJournal(t, persist.OS, recoveredDir))
	if !reflect.DeepEqual(hj, rj) {
		t.Errorf("journals diverged:\nhealthy:   %v\nrecovered: %v", hj, rj)
	}
	if len(recovered.Deferred) != 0 {
		t.Errorf("recovered snapshot still carries %d deferred pairs", len(recovered.Deferred))
	}
}

// reopenedGroups opens dir and returns the entity groups the store
// recovers from it.
func reopenedGroups(t *testing.T, dir string) [][]string {
	t.Helper()
	s, err := Open(&outageClient{}, Options{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	return s.Snapshot()
}

// TestDeferredQueueSurvivesCrash resolves during an outage, abandons
// the store without Close (the crash), and reopens the directory with a
// healthy client: recovery must rebuild the deferred queue — from the
// WAL, or from the snapshot when a checkpoint ran before the crash —
// and the re-escalator must settle it, whatever the reopen's resilience
// options.
func TestDeferredQueueSurvivesCrash(t *testing.T) {
	for _, tc := range []struct {
		name       string
		checkpoint bool
		cooldown   time.Duration // of the reopened store; 0 is the default
	}{
		{"resilient", false, time.Millisecond},
		{"defaults", false, 0},
		{"defaults after checkpoint", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			client1 := &outageClient{}
			s1, err := Open(client1, Options{
				Cascade:    noCascade(),
				PersistDir: dir,
				Resilience: resilientOptions(new(clock.Manual)),
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
			if tc.checkpoint {
				if err := s1.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			// Crash: drop the store without Close; its clock never moves
			// again, so it re-decides nothing. The WAL or the snapshot
			// keeps the deferred entry.
			clk := new(clock.Manual)
			s2, err := Open(&outageClient{}, Options{
				Cascade:    noCascade(),
				PersistDir: dir,
				Resilience: ResilienceOptions{Breaker: resilience.BreakerOptions{Cooldown: tc.cooldown, Clock: clk}},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			// The re-escalator's first tick is due at once.
			clk.Advance(0)
			if st := s2.Stats(); st.Redecided != 1 || st.Resilience.DeferredQueue != 0 {
				t.Fatalf("after the first tick: %d re-decided, %d queued; want 1 and 0", st.Redecided, st.Resilience.DeferredQueue)
			}
			members, ok := s2.Entity("q1")
			if !ok || len(members) != 2 {
				t.Fatalf("entity after crash recovery = %v (ok=%v), want {q1,r1}", members, ok)
			}
			// The journal entry must now be the final LLM verdict.
			if err := s2.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			var final *persist.DecisionEntry
			for _, j := range committedJournal(t, persist.OS, dir) {
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
			checkJournalClosure(t, dir, s2)
		})
	}
}
