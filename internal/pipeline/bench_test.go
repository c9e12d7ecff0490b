package pipeline

import (
	"fmt"
	"testing"
	"time"

	"llm4em/internal/entity"
	"llm4em/internal/llm"
)

// delayedClient wraps a client with a fixed real-time delay per
// request, standing in for the network latency of a hosted API. The
// simulated models answer instantly (their Latency field is
// accounting only), so wall-clock benchmarks need real waiting to
// show what the worker pool buys.
type delayedClient struct {
	inner llm.Client
	delay time.Duration
}

func (c *delayedClient) Name() string { return c.inner.Name() }

func (c *delayedClient) Chat(messages []llm.Message) (llm.Response, error) {
	time.Sleep(c.delay)
	return c.inner.Chat(messages)
}

func benchPairs(n int) []entity.Pair {
	pairs := make([]entity.Pair, n)
	for i := range pairs {
		pairs[i] = entity.Pair{
			ID: fmt.Sprintf("bench%d", i),
			A:  entity.Record{ID: "a", Attrs: []entity.Attr{{Name: "title", Value: fmt.Sprintf("logitech mouse m%d", i)}}},
			B:  entity.Record{ID: "b", Attrs: []entity.Attr{{Name: "title", Value: fmt.Sprintf("logitech wireless mouse m%d", i)}}},
		}
	}
	return pairs
}

// benchMatch measures one full evaluation of 32 pairs against the
// simulated GPT-4 behind 2ms of per-request latency. Comparing
// workers=1 with workers=4/8 demonstrates the pipeline's speedup:
// sequential pays 32 × 2ms ≈ 64ms of latency per evaluation, 8
// workers pay ≈ 8ms.
func benchMatch(b *testing.B, workers int) {
	client := &delayedClient{inner: llm.MustNew(llm.GPT4), delay: 2 * time.Millisecond}
	prompts := pairPrompts(benchPairs(32), buildPrompt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh engine per iteration keeps the cache cold, so every
		// iteration measures real client traffic.
		e := New(client, Options{Workers: workers, CacheSize: -1})
		if _, _, err := completeAll(e, prompts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatchSequential(b *testing.B) { benchMatch(b, 1) }
func BenchmarkMatchWorkers4(b *testing.B)   { benchMatch(b, 4) }
func BenchmarkMatchWorkers8(b *testing.B)   { benchMatch(b, 8) }

// BenchmarkMatchCached measures a warm-cache evaluation: after the
// first run every prompt is a cache hit and no request pays the
// simulated network latency.
func BenchmarkMatchCached(b *testing.B) {
	client := &delayedClient{inner: llm.MustNew(llm.GPT4), delay: 2 * time.Millisecond}
	prompts := pairPrompts(benchPairs(32), buildPrompt)
	e := New(client, Options{Workers: 8})
	if _, _, err := completeAll(e, prompts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := completeAll(e, prompts); err != nil {
			b.Fatal(err)
		}
	}
}
