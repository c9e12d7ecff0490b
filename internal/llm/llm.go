// Package llm provides the large language models of the study as
// deterministic local simulations behind an API-client interface.
//
// Each simulated model is a genuine text-in/text-out chat system: it
// parses the prompt it receives (task description, output-format
// instruction, matching rules, in-context demonstrations, serialized
// entity pair), grounds the pair in its lexical world-knowledge
// substrate (internal/features), makes a matching decision, and
// generates a natural-language answer — verbose free-form text,
// forced Yes/No, structured explanations (Section 6) or error-class
// analyses (Section 7). Six capability profiles (profiles.go)
// reproduce the behavioural differences between GPT-4, GPT-4o,
// GPT-mini, Llama2, Llama3.1 and Mixtral that the paper reports:
// answer quality, prompt sensitivity, free-format hedging, in-context
// learning gain, rule utilisation, fine-tunability, verbosity, cost
// and latency.
//
// Swapping a simulated model for a real hosted one requires
// implementing the one-method Client interface with an HTTP client.
// Hosted implementations should mark rate limits, timeouts and
// 5xx-style failures as retryable (see internal/pipeline.Transient)
// so the concurrent matching pipeline retries them with backoff.
package llm

import (
	"context"
	"fmt"
	"time"
)

// Role identifies the author of a chat message.
type Role string

// Chat roles.
const (
	User      Role = "user"
	Assistant Role = "assistant"
	System    Role = "system"
)

// Message is one turn of a chat conversation.
type Message struct {
	Role    Role
	Content string
}

// Response is the model's reply together with the usage accounting a
// hosted API would bill for and the request latency.
type Response struct {
	// Content is the generated text.
	Content string
	// PromptTokens and CompletionTokens are the billed token counts.
	PromptTokens     int
	CompletionTokens int
	// Latency is the simulated wall-clock duration of the request.
	Latency time.Duration
}

// Client is the chat interface shared by all models. The simulation
// implements it locally; a production deployment would implement it
// with an HTTP client against a hosted API.
type Client interface {
	// Name returns the short model name used in the paper's tables,
	// e.g. "GPT-4".
	Name() string
	// Chat generates a reply to the conversation. Temperature is fixed
	// to 0 throughout the study (Section 2), so generation is
	// deterministic.
	Chat(messages []Message) (Response, error)
}

// ContextClient is the optional context-aware extension of Client.
// Implementations honour cancellation and deadlines on ctx, returning
// ctx.Err() for work abandoned in flight. Hosted HTTP clients should
// implement it so per-resolve deadlines actually cancel requests; the
// local simulations are instant, so they don't need to.
type ContextClient interface {
	Client
	// ChatContext is Chat with cancellation.
	ChatContext(ctx context.Context, messages []Message) (Response, error)
}

// ChatContext issues one chat request through c, using ChatContext
// when c implements it and otherwise checking ctx before falling back
// to the uncancellable Chat. It is the single seam every caller that
// holds a context goes through.
func ChatContext(ctx context.Context, c Client, messages []Message) (Response, error) {
	if cc, ok := c.(ContextClient); ok {
		return cc.ChatContext(ctx, messages)
	}
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	return c.Chat(messages)
}

// ErrEmptyConversation is returned by Chat when no user message is
// present.
var ErrEmptyConversation = fmt.Errorf("llm: conversation contains no user message")
