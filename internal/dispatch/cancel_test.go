package dispatch

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llm4em/internal/entity"
	"llm4em/internal/llm"
)

// gateClient is a context-aware client that holds every request until
// open is called or the request's context ends. Each request hands
// its context to the test on entered, so the test can tell a cancelled
// client call from a live one; released requests are answered like
// testClient's.
type gateClient struct {
	entered chan context.Context
	release chan struct{}
	once    sync.Once
	calls   atomic.Int64
}

// open releases every held and future request; idempotent, so a test
// can defer it to unblock Close whatever path it fails on.
func (c *gateClient) open() { c.once.Do(func() { close(c.release) }) }

func newGateClient() *gateClient {
	return &gateClient{entered: make(chan context.Context, 16), release: make(chan struct{})}
}

func (c *gateClient) Name() string { return "dispatch-gate" }

func (c *gateClient) Chat(messages []llm.Message) (llm.Response, error) {
	return c.ChatContext(context.Background(), messages)
}

func (c *gateClient) ChatContext(ctx context.Context, messages []llm.Message) (llm.Response, error) {
	c.calls.Add(1)
	c.entered <- ctx
	select {
	case <-ctx.Done():
		return llm.Response{}, ctx.Err()
	case <-c.release:
		return (&testClient{}).Chat(messages)
	}
}

// awaitEntered returns the context of the next request to reach the
// client.
func (c *gateClient) awaitEntered(t *testing.T) context.Context {
	t.Helper()
	select {
	case ctx := <-c.entered:
		return ctx
	case <-time.After(5 * time.Second):
		t.Fatal("no request reached the client")
		return nil
	}
}

// outcome is what one DoAllContext call returned.
type outcome struct {
	rs  []Result
	err error
}

// submit runs DoAllContext on a goroutine and returns its outcome.
func submit(ctx context.Context, d *Dispatcher, pairs ...entity.Pair) <-chan outcome {
	done := make(chan outcome, 1)
	go func() {
		rs, err := d.DoAllContext(ctx, pairs)
		done <- outcome{rs, err}
	}()
	return done
}

func await(t *testing.T, done <-chan outcome) outcome {
	t.Helper()
	select {
	case o := <-done:
		return o
	case <-time.After(5 * time.Second):
		t.Fatal("DoAllContext did not return")
		return outcome{}
	}
}

// TestCancelAbandonedBatch: once the only caller gives up, the batch's
// client call sees its context cancelled, and Close does not wait out
// the hung backend.
func TestCancelAbandonedBatch(t *testing.T) {
	client := newGateClient()
	defer client.open()
	d := newTestDispatcher(client, Options{MaxBatchPairs: 1})

	ctx, cancel := context.WithCancel(context.Background())
	done := submit(ctx, d, pair(0, true))
	callCtx := client.awaitEntered(t)
	cancel()
	if err := await(t, done).err; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned DoAllContext = %v, want context.Canceled", err)
	}
	select {
	case <-callCtx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("client call still live after its only waiter left")
	}

	start := time.Now()
	d.Close()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("Close took %v with the backend hung", elapsed)
	}
}

// TestCancelKeepsAwaitedBatch: a batch shared by two callers keeps
// running when one of them gives up, and answers the other.
func TestCancelKeepsAwaitedBatch(t *testing.T) {
	client := newGateClient()
	d := newTestDispatcher(client, Options{MaxBatchPairs: 2, FlushInterval: time.Minute})
	defer d.Close()
	defer client.open()

	ctx, cancel := context.WithCancel(context.Background())
	leaving := submit(ctx, d, pair(0, true))
	staying := submit(context.Background(), d, pair(1, true))
	callCtx := client.awaitEntered(t) // the full batch of two
	cancel()
	if err := await(t, leaving).err; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned DoAllContext = %v, want context.Canceled", err)
	}
	if err := callCtx.Err(); err != nil {
		t.Fatalf("batch cancelled while a caller still waits: %v", err)
	}
	client.open()
	if o := await(t, staying); o.err != nil || !o.rs[0].Match || !o.rs[0].Batched || o.rs[0].BatchSize != 2 {
		t.Errorf("remaining caller got %+v, %v; want a batched match", o.rs, o.err)
	}
	if got := client.calls.Load(); got != 1 {
		t.Errorf("client calls = %d, want 1", got)
	}
}

// TestCancelSingleFlightJoinerKeepsCall: a caller that joined an
// in-flight pair through single-flight is a waiter too — the call
// survives the original submitter leaving and answers the joiner.
func TestCancelSingleFlightJoinerKeepsCall(t *testing.T) {
	client := newGateClient()
	d := newTestDispatcher(client, Options{MaxBatchPairs: 1})
	defer d.Close()
	defer client.open()

	ctx, cancel := context.WithCancel(context.Background())
	leaving := submit(ctx, d, pair(0, true))
	callCtx := client.awaitEntered(t)
	joined := submit(context.Background(), d, pair(0, true))
	for deadline := time.Now().Add(5 * time.Second); d.Stats().SingleFlightHits == 0; {
		if time.Now().After(deadline) {
			t.Fatal("second submission never joined the in-flight pair")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := await(t, leaving).err; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned DoAllContext = %v, want context.Canceled", err)
	}
	if err := callCtx.Err(); err != nil {
		t.Fatalf("call cancelled while its joiner still waits: %v", err)
	}
	client.open()
	if o := await(t, joined); o.err != nil || !o.rs[0].Match || !o.rs[0].Cached {
		t.Errorf("joiner got %+v, %v; want a coalesced match", o.rs, o.err)
	}
	if got := client.calls.Load(); got != 1 {
		t.Errorf("client calls = %d, want 1", got)
	}
}
