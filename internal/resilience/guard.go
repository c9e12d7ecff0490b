package resilience

import (
	"context"
	"fmt"

	"llm4em/internal/llm"
)

// GuardedClient wraps an llm.Client with a circuit breaker: every
// attempt (including each retry the pipeline issues) first consults
// the breaker and then reports its outcome, so an outage trips the
// breaker within a handful of attempts and subsequent calls fail fast
// with ErrOpen instead of burning the retry budget. It implements
// llm.ContextClient so deadlines pass through to context-aware inner
// clients.
type GuardedClient struct {
	inner   llm.Client
	breaker *Breaker
}

// Guard wraps inner with breaker.
func Guard(inner llm.Client, breaker *Breaker) *GuardedClient {
	return &GuardedClient{inner: inner, breaker: breaker}
}

// Name returns the inner client's name.
func (g *GuardedClient) Name() string { return g.inner.Name() }

// Breaker returns the wrapped breaker.
func (g *GuardedClient) Breaker() *Breaker { return g.breaker }

// Chat issues one request through the breaker.
func (g *GuardedClient) Chat(messages []llm.Message) (llm.Response, error) {
	return g.ChatContext(context.Background(), messages)
}

// ChatContext issues one request through the breaker, honouring ctx.
// A failure that leaves the breaker open fails as ErrOpen at once: the
// pipeline would only sleep a backoff to have its retry rejected.
func (g *GuardedClient) ChatContext(ctx context.Context, messages []llm.Message) (llm.Response, error) {
	if !g.breaker.Allow() {
		return llm.Response{}, fmt.Errorf("llm %s: %w", g.inner.Name(), ErrOpen)
	}
	resp, err := llm.ChatContext(ctx, g.inner, messages)
	if g.breaker.Report(err) {
		return resp, fmt.Errorf("llm %s: %v: %w", g.inner.Name(), err, ErrOpen)
	}
	return resp, err
}
