package pipeline

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"llm4em/internal/clock"
	"llm4em/internal/llm"
)

// TestBackoffFullJitter pins the full-jitter schedule: each retry
// sleeps rand()*cap with the cap doubling per attempt, so two engines
// with different draws never stampede in lockstep.
func TestBackoffFullJitter(t *testing.T) {
	cases := []struct {
		name  string
		draws []float64
		want  []time.Duration // expected sleeps for Backoff=100ms, 3 retries
	}{
		{
			name:  "mid draws double the cap",
			draws: []float64{0.5, 0.5, 0.5},
			want:  []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond},
		},
		{
			// A zero draw arms no timer — retries still happen, they
			// just don't wait.
			name:  "zero draw skips the sleep",
			draws: []float64{0, 0, 0},
			want:  nil,
		},
		{
			name:  "mixed draws",
			draws: []float64{0.25, 1, 0.1},
			want:  []time.Duration{25 * time.Millisecond, 200 * time.Millisecond, 40 * time.Millisecond},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			client := &fakeClient{fail: func(call int64, prompt string) error {
				return Transient(errors.New("down"))
			}}
			draw := 0
			slept, err := backoffs(client, 3, func() float64 {
				draw++
				return tc.draws[(draw-1)%len(tc.draws)]
			}, len(tc.want))
			if !IsTransient(err) {
				t.Fatalf("err = %v, want transient after exhausted retries", err)
			}
			if !slices.Equal(slept, tc.want) {
				t.Errorf("slept %v, want %v", slept, tc.want)
			}
		})
	}
}

// backoffs completes one prompt with up to retries retries of 100 ms
// Backoff and jitter draws from rand, and returns the call's error and
// the n backoff sleeps it waits, read off its manual clock as each is
// armed.
func backoffs(client llm.Client, retries int, rand func() float64, n int) ([]time.Duration, error) {
	clk := new(clock.Manual)
	e := New(client, Options{Workers: 1, MaxRetries: retries, Backoff: 100 * time.Millisecond, Clock: clk})
	e.rand = rand
	done := make(chan error, 1)
	go func() {
		_, _, err := e.CompleteContext(context.Background(), "p")
		done <- err
	}()
	var slept []time.Duration
	for range n {
		d := clk.Next()
		slept = append(slept, d)
		clk.Advance(d)
	}
	return slept, <-done
}

// TestRetryAfterHint pins the Retry-After contract: a hinted transient
// error overrides the jitter draw exactly, and unhinted ones fall back
// to it.
func TestRetryAfterHint(t *testing.T) {
	cases := []struct {
		name string
		errs []error // per-attempt errors; nil = success
		want []time.Duration
	}{
		{
			name: "hint overrides jitter",
			errs: []error{TransientAfter(errors.New("429"), 123*time.Millisecond), nil},
			want: []time.Duration{123 * time.Millisecond},
		},
		{
			name: "hint per attempt",
			errs: []error{
				TransientAfter(errors.New("429"), 10*time.Millisecond),
				TransientAfter(errors.New("429"), 70*time.Millisecond),
				nil,
			},
			want: []time.Duration{10 * time.Millisecond, 70 * time.Millisecond},
		},
		{
			name: "unhinted falls back to jitter of the doubling cap",
			errs: []error{
				Transient(errors.New("503")),
				TransientAfter(errors.New("429"), 5*time.Millisecond),
				Transient(errors.New("503")),
				nil,
			},
			// draw=1.0: 1*100ms, then the 5ms hint, then 1*400ms (cap
			// kept doubling across the hinted attempt).
			want: []time.Duration{100 * time.Millisecond, 5 * time.Millisecond, 400 * time.Millisecond},
		},
		{
			name: "zero hint behaves like plain transient",
			errs: []error{TransientAfter(errors.New("429"), 0), nil},
			want: []time.Duration{100 * time.Millisecond},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			client := &fakeClient{fail: func(call int64, prompt string) error {
				return tc.errs[(call-1)%int64(len(tc.errs))]
			}}
			slept, err := backoffs(client, 5, func() float64 { return 1.0 }, len(tc.want))
			if err != nil {
				t.Fatalf("Complete: %v", err)
			}
			if !slices.Equal(slept, tc.want) {
				t.Errorf("slept %v, want %v", slept, tc.want)
			}
		})
	}
}

func TestRetryAfterAccessor(t *testing.T) {
	if _, ok := RetryAfter(nil); ok {
		t.Error("nil error should carry no hint")
	}
	if _, ok := RetryAfter(errors.New("plain")); ok {
		t.Error("plain error should carry no hint")
	}
	if _, ok := RetryAfter(Transient(errors.New("x"))); ok {
		t.Error("unhinted transient should carry no hint")
	}
	hinted := TransientAfter(errors.New("429"), 7*time.Second)
	if d, ok := RetryAfter(hinted); !ok || d != 7*time.Second {
		t.Errorf("RetryAfter = %v, %v; want 7s, true", d, ok)
	}
	if !IsTransient(hinted) {
		t.Error("TransientAfter should still be transient")
	}
	if TransientAfter(nil, time.Second) != nil {
		t.Error("TransientAfter(nil) should be nil")
	}
}

// ctxClient implements llm.ContextClient: it blocks until the context
// is cancelled unless scripted to answer.
type ctxClient struct {
	answer bool
}

func (c *ctxClient) Name() string { return "ctx" }

func (c *ctxClient) Chat(messages []llm.Message) (llm.Response, error) {
	return c.ChatContext(context.Background(), messages)
}

func (c *ctxClient) ChatContext(ctx context.Context, messages []llm.Message) (llm.Response, error) {
	if c.answer {
		return llm.Response{Content: "Yes."}, nil
	}
	<-ctx.Done()
	return llm.Response{}, ctx.Err()
}

func TestCompleteContextCancelsInFlightWork(t *testing.T) {
	e := New(&ctxClient{}, Options{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := e.CompleteContext(ctx, "p")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, deadline was 10ms", elapsed)
	}
}

func TestCompleteContextExpiredBeforeAttempt(t *testing.T) {
	client := &fakeClient{}
	e := New(client, Options{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.CompleteContext(ctx, "p"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if client.calls.Load() != 0 {
		t.Fatal("expired context still reached the client")
	}
}
