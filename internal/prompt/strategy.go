package prompt

import (
	"fmt"
	"strings"

	"llm4em/internal/entity"
)

// Strategy selects the prompt formulation for a query's uncertain
// candidate band — the tiered alternatives of "Match, Compare, or
// Select?" (Wang et al.): independent pairwise match prompts, one
// compare prompt ranking all candidates against the query side by
// side, or one select prompt picking the best match (or "none") from
// the candidate set. Compare and select answer a whole candidate
// group in a single round-trip, so they cut LLM calls per escalated
// query from k to 1.
type Strategy string

// Strategies of the uncertain band, in pairwise-to-grouped order.
const (
	// StrategyMatch sends one independent pairwise matching prompt per
	// uncertain pair — the paper's baseline formulation.
	StrategyMatch Strategy = "match"
	// StrategyCompare sends one prompt per query listing every
	// uncertain candidate and asks for a Yes/No verdict on each,
	// letting the model weigh the candidates against each other.
	StrategyCompare Strategy = "compare"
	// StrategySelect sends one prompt per query asking which single
	// candidate — if any — matches; every other candidate is a No.
	StrategySelect Strategy = "select"
)

// ParseStrategy maps a flag value to a Strategy. The empty string
// selects StrategyMatch, the default.
func ParseStrategy(name string) (Strategy, error) {
	switch Strategy(name) {
	case "", StrategyMatch:
		return StrategyMatch, nil
	case StrategyCompare:
		return StrategyCompare, nil
	case StrategySelect:
		return StrategySelect, nil
	}
	return "", fmt.Errorf("prompt: unknown strategy %q (want match, compare or select)", name)
}

// CompareInstruction is the task description of compare prompts: all
// of a query's uncertain candidates in one request, one verdict per
// candidate. The leading words are the classification prefix the
// simulated models key on.
const CompareInstruction = "Compare each candidate against the query and against the other candidates, and decide for every candidate whether it describes the same real-world entity as the query. Answer with one line per candidate in the format '<candidate number>. Yes' or '<candidate number>. No'."

// SelectInstruction is the task description of select prompts: pick
// the single matching candidate, or none.
const SelectInstruction = "Select the candidate that describes the same real-world entity as the query, if any. Answer with a single line in the format 'Answer: <candidate number>', or 'Answer: none' if no candidate matches."

// ReasonInstruction is the task description of the structured
// multi-step reasoning prompt (the reason tier): attribute listing,
// pairwise attribute comparison, evidence weighing, then a final
// verdict line.
const ReasonInstruction = "Decide step by step whether the two entity descriptions refer to the same real-world entity. First list the key attributes of each description, then compare the attributes one by one, then weigh the matching and conflicting evidence. Conclude with a final line in the format 'Final Answer: Yes' or 'Final Answer: No'."

// BuildCompare renders a compare prompt: the query followed by its
// numbered candidates.
func BuildCompare(domain entity.Domain, query entity.Record, candidates []entity.Record) string {
	return buildGroup(CompareInstruction, query, candidates)
}

// BuildSelect renders a select prompt over the query's candidates.
func BuildSelect(domain entity.Domain, query entity.Record, candidates []entity.Record) string {
	return buildGroup(SelectInstruction, query, candidates)
}

// buildGroup renders the shared grouped-prompt layout of compare and
// select: instruction, query line, numbered candidate lines.
func buildGroup(instruction string, query entity.Record, candidates []entity.Record) string {
	var b strings.Builder
	b.WriteString(instruction)
	b.WriteString("\n")
	fmt.Fprintf(&b, "Query: '%s'\n", query.Serialize())
	for i, c := range candidates {
		fmt.Fprintf(&b, "Candidate %d: '%s'\n", i+1, c.Serialize())
	}
	return strings.TrimRight(b.String(), "\n")
}

// BuildReason renders the structured multi-step reasoning prompt for
// one pair — the reason tier's second pass over pairs the first LLM
// pass left uncertain.
func BuildReason(domain entity.Domain, pair entity.Pair) string {
	var b strings.Builder
	b.WriteString(ReasonInstruction)
	b.WriteString("\n")
	fmt.Fprintf(&b, "Entity 1: '%s'\nEntity 2: '%s'", pair.A.Serialize(), pair.B.Serialize())
	return b.String()
}
