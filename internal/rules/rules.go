// Package rules provides the textual matching rules of Section 4.2:
// handwritten rule sets per domain and rule learning, where an LLM is
// shown the hand-picked demonstration pairs and asked to derive
// matching rules from them.
package rules

import (
	"fmt"
	"strings"

	"llm4em/internal/entity"
	"llm4em/internal/llm"
)

// Handwritten returns the handwritten rule set for a domain. The
// rules define which attributes need to match and inform the model of
// potential heterogeneity in these attributes (Figure 3).
func Handwritten(domain entity.Domain) []string {
	if domain == entity.Publication {
		return []string{
			"The titles of the two publications must refer to the same work; allow for small differences in wording, word order, or truncation.",
			"The author lists must be consistent; first names may be abbreviated to initials and trailing authors may be missing in one source.",
			"The publication years must match; a difference of more than one year indicates different publications.",
			"The venue names may differ in surface form (abbreviations, full names); however, the conference and the journal version of a work are different publications.",
		}
	}
	return []string{
		"The brands of the two products must match; allow for slight differences in spelling or formatting.",
		"The model numbers must refer to the same model; ignore differences in dashes, spacing, or capitalization.",
		"Capacity, size, and color variants must be identical for the products to match.",
		"Version and edition information must be consistent; an upgrade or academic edition is a different product than the full version.",
		"Prices may differ moderately between vendors; a large price difference indicates different products.",
		"Ignore marketing words such as 'new', 'original', or seller decorations when comparing titles.",
	}
}

// LearnRequestPrefix marks rule-learning prompts; the simulated
// models recognize it.
const LearnRequestPrefix = "Derive a list of matching rules from the following examples"

// BuildLearnPrompt renders the rule-learning prompt from labelled
// example pairs (the hand-picked demonstration set, per the paper).
func BuildLearnPrompt(domain entity.Domain, examples []entity.Pair) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s of matching and non-matching %s. ", LearnRequestPrefix, domain.Noun())
	b.WriteString("Each rule should state which attributes need to match and mention possible heterogeneity in their values, such as differences in surface form or value formats. Present the rules as a numbered list.\n")
	for _, ex := range examples {
		fmt.Fprintf(&b, "Entity 1: '%s'\nEntity 2: '%s'\n", ex.A.Serialize(), ex.B.Serialize())
		if ex.Match {
			b.WriteString("Answer: Yes\n")
		} else {
			b.WriteString("Answer: No\n")
		}
	}
	return b.String()
}

// Learn asks the client (GPT-4 in the paper) to generate matching
// rules from the given labelled examples and parses the numbered
// rules out of the reply.
func Learn(client llm.Client, domain entity.Domain, examples []entity.Pair) ([]string, error) {
	p := BuildLearnPrompt(domain, examples)
	resp, err := client.Chat([]llm.Message{{Role: llm.User, Content: p}})
	if err != nil {
		return nil, fmt.Errorf("rules: learning chat: %w", err)
	}
	learned := ParseNumbered(resp.Content)
	if len(learned) == 0 {
		return nil, fmt.Errorf("rules: no rules found in model reply %q", resp.Content)
	}
	return learned, nil
}

// ParseNumbered extracts "N. text" lines from a model reply.
func ParseNumbered(reply string) []string {
	var out []string
	for _, line := range strings.Split(reply, "\n") {
		trimmed := strings.TrimSpace(line)
		i := 0
		for i < len(trimmed) && trimmed[i] >= '0' && trimmed[i] <= '9' {
			i++
		}
		if i == 0 || i >= len(trimmed) || trimmed[i] != '.' {
			continue
		}
		out = append(out, strings.TrimSpace(trimmed[i+1:]))
	}
	return out
}
