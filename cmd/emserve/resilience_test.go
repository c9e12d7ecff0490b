package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"llm4em"
	"llm4em/internal/chaos"
	"llm4em/internal/clock"
	"llm4em/internal/llm"
	"llm4em/internal/resolve"
)

// fastResilience trips the breaker on the first failure and retries
// the deferred queue a millisecond of clk later. The clock stands
// still while the test asserts the degraded mode, so the breaker stays
// open (not probing half-open) until the test advances it.
func fastResilience(clk *clock.Manual) llm4em.ResilienceOptions {
	return llm4em.ResilienceOptions{
		Breaker: llm4em.BreakerOptions{
			ConsecutiveFailures: 1,
			Cooldown:            time.Millisecond,
			Clock:               clk,
		},
	}
}

// noCascade is the no-cascade baseline: both thresholds negative, so
// every candidate pair goes to the LLM.
func noCascade() llm4em.CascadeOptions {
	return llm4em.CascadeOptions{AcceptAbove: -1, RejectBelow: -1}
}

// newResilientServer builds a handler over a store with the given
// client and resilience configuration, every candidate pair routed to
// the LLM (noCascade) so outages are guaranteed to matter.
func newResilientServer(t *testing.T, client llm4em.Client, opts llm4em.StoreOptions) (*httptest.Server, *llm4em.Store) {
	t.Helper()
	opts.Domain = llm4em.Product
	opts.Cascade = noCascade()
	store := llm4em.NewStore(client, opts)
	t.Cleanup(func() { store.Close() })
	srv := httptest.NewServer(newHandler(handlerConfig{store: store}))
	t.Cleanup(srv.Close)
	return srv, store
}

// TestServerDegradedModeUnderOutage drives the serving path through a
// full LLM outage: resolves keep answering 200 with decisions marked
// deferred, /readyz stays ready but annotated, /stats exposes the
// breaker and queue, and recovery drains the deferred pairs.
func TestServerDegradedModeUnderOutage(t *testing.T) {
	model, err := llm4em.NewModel(llm4em.GPTMini)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := chaos.Wrap(model, chaos.ClientOptions{})
	clk := new(clock.Manual)
	srv, _ := newResilientServer(t, wrapped, llm4em.StoreOptions{Resilience: fastResilience(clk)})

	resp, body := postJSON(t, srv.URL+"/v1/records", seedBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /records = %d: %v", resp.StatusCode, body)
	}

	wrapped.SetOutage(true)
	resp, body = postJSON(t, srv.URL+"/v1/resolve",
		`{"id":"q1","attrs":[{"name":"title","value":"sony dsc120b cybershot camera black"},{"name":"price","value":"348.00"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /resolve during outage = %d: %v", resp.StatusCode, body)
	}
	decisions := body["decisions"].([]any)
	if len(decisions) == 0 {
		t.Fatal("resolve returned no decisions")
	}
	for _, d := range decisions {
		dm := d.(map[string]any)
		if dm["deferred"] != true || dm["method"] != string(resolve.MethodDeferred) {
			t.Fatalf("outage decision not deferred: %v", dm)
		}
	}

	resp, body = getJSON(t, srv.URL+"/v1/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /readyz during outage = %d, want 200 (degraded replicas stay ready)", resp.StatusCode)
	}
	if body["degraded"] != "llm_breaker_open" {
		t.Fatalf("readyz degraded = %v, want llm_breaker_open", body["degraded"])
	}

	_, body = getJSON(t, srv.URL+"/v1/stats")
	res := body["resilience"].(map[string]any)
	if res["breaker_state"] != "open" {
		t.Fatalf("stats resilience block during outage: %v", res)
	}
	if res["deferred_pairs"].(float64) == 0 || res["deferred_queue"].(float64) == 0 {
		t.Fatalf("no deferred pairs surfaced in stats: %v", res)
	}

	wrapped.SetOutage(false)
	clk.Advance(time.Millisecond) // the tick past the cooldown drains the queue
	_, body = getJSON(t, srv.URL+"/v1/stats")
	if res := body["resilience"].(map[string]any); res["deferred_queue"].(float64) != 0 || res["redecided"].(float64) == 0 {
		t.Fatalf("stats resilience block a cooldown after the outage: %v", res)
	}
	resp, body = getJSON(t, srv.URL+"/v1/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /readyz after recovery = %d", resp.StatusCode)
	}
	if _, still := body["degraded"]; still {
		t.Fatalf("readyz still degraded after recovery: %v", body)
	}
}

// gateClient blocks every call until released, so tests control how
// many escalations are in flight.
type gateClient struct {
	mu      sync.Mutex
	entered chan struct{}
	release chan struct{}
}

func newGateClient() *gateClient {
	return &gateClient{entered: make(chan struct{}, 8), release: make(chan struct{})}
}

func (c *gateClient) Name() string { return "gate" }

func (c *gateClient) Chat(messages []llm.Message) (llm.Response, error) {
	c.entered <- struct{}{}
	<-c.release
	return llm.Response{Content: "No.", PromptTokens: 4, CompletionTokens: 2}, nil
}

// TestServerShedsWith503 fills the escalation slots and queue, then
// checks the next resolve is rejected with 503 and a Retry-After
// hint instead of piling on.
func TestServerShedsWith503(t *testing.T) {
	client := newGateClient()
	// One slot queues four waiters.
	opts := llm4em.StoreOptions{Resilience: llm4em.ResilienceOptions{
		Shed: llm4em.ShedOptions{MaxConcurrent: 1},
	}}
	srv, store := newResilientServer(t, client, opts)

	resp, body := postJSON(t, srv.URL+"/v1/records", seedBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /records = %d: %v", resp.StatusCode, body)
	}

	// Distinct titles: identical prompts would coalesce in the
	// engine's single-flight cache and never occupy a second slot.
	resolveBody := func(i byte) string {
		return `{"id":"qs` + string('0'+i) + `","attrs":[{"name":"title","value":"sony dsc120b cybershot camera black v` + string('0'+i) + `"}]}`
	}
	const held = 1 + 4
	statuses := make(chan int, held)
	var wg sync.WaitGroup
	for i := byte(1); i <= held; i++ {
		wg.Add(1)
		go func(i byte) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/resolve", "application/json", strings.NewReader(resolveBody(i)))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			statuses <- resp.StatusCode
		}(i)
	}
	// One escalation holds the slot; wait for the other four to block in
	// the queue.
	<-client.entered
	for deadline := time.Now().Add(5 * time.Second); store.Stats().Resilience.Waiting != held-1; {
		if time.Now().After(deadline) {
			t.Fatalf("%d escalations queued for the slot, want %d", store.Stats().Resilience.Waiting, held-1)
		}
		time.Sleep(time.Millisecond)
	}

	// Slot and queue full: the next resolve is shed immediately.
	resp, body = postJSON(t, srv.URL+"/v1/resolve", resolveBody(held+1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed resolve = %d: %v, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}

	close(client.release) // let the held resolves finish
	wg.Wait()
	close(statuses)
	for s := range statuses {
		if s != http.StatusOK {
			t.Fatalf("held resolve finished with %d", s)
		}
	}
}

// TestServerResolveTimeout pins the deadline behaviour: an expired
// escalation degrades into deferred local verdicts (200).
func TestServerResolveTimeout(t *testing.T) {
	model, err := llm4em.NewModel(llm4em.GPTMini)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := chaos.Wrap(model, chaos.ClientOptions{HangRate: 1})
	store := llm4em.NewStore(wrapped, llm4em.StoreOptions{
		Domain:  llm4em.Product,
		Cascade: noCascade(),
		Resilience: llm4em.ResilienceOptions{
			// An hour between ticks keeps the re-escalator quiet.
			Breaker: llm4em.BreakerOptions{Cooldown: time.Hour},
		},
	})
	t.Cleanup(func() { store.Close() })
	srv := httptest.NewServer(newHandler(handlerConfig{
		store:          store,
		resolveTimeout: 50 * time.Millisecond,
	}))
	t.Cleanup(srv.Close)
	resp, body := postJSON(t, srv.URL+"/v1/records", seedBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /records = %d: %v", resp.StatusCode, body)
	}

	resp, body = postJSON(t, srv.URL+"/v1/resolve",
		`{"id":"q1","attrs":[{"name":"title","value":"sony dsc120b cybershot camera black"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resolve with deadline = %d: %v, want 200", resp.StatusCode, body)
	}
	for _, d := range body["decisions"].([]any) {
		if dm := d.(map[string]any); dm["deferred"] != true {
			t.Fatalf("deadline-expired decision not deferred: %v", dm)
		}
	}
}
