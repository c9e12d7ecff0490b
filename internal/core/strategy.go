package core

import (
	"iter"
	"strconv"
	"strings"
)

// Strict parsers for the batched and grouped compare/select replies
// and the reason tier's final verdict. They are deliberately stricter
// than ParseBatchAnswers: a batched or grouped reply decides several
// pairs at once, so any ambiguity — a missing candidate, an empty
// answer, and for grouped replies a duplicated index or an
// out-of-range reference — rejects the whole reply and the caller
// degrades to per-pair pairwise prompts instead of guessing at a
// partial mapping.

// numberedLines yields the number and the trimmed answer text of each
// numbered line of a reply ("3. Yes", "3) Yes" or "3: Yes"), in reply
// order: a line splits at its first ".", ")" or ":", and the part
// before must read as an integer. It is the one line scanner of
// ParseBatchAnswers, SplitBatchAnswers and ParseCompareAnswers.
func numberedLines(answer string) iter.Seq2[int, string] {
	return func(yield func(int, string) bool) {
		for _, line := range strings.Split(answer, "\n") {
			trimmed := strings.TrimSpace(line)
			i := strings.IndexAny(trimmed, ".):")
			if i < 0 {
				continue
			}
			idx, err := strconv.Atoi(strings.TrimSpace(trimmed[:i]))
			if err != nil {
				continue
			}
			if !yield(idx, strings.TrimSpace(trimmed[i+1:])) {
				return
			}
		}
	}
}

// SplitBatchAnswers is the strict counterpart of ParseBatchAnswers for
// a caller that can re-ask: it returns the answer text of each pair
// 1..n, read exactly as ParseBatchAnswers reads it (out-of-range
// numbers ignored, the last occurrence of a number wins), and reports
// ok only if every one of those texts is non-empty. Where it succeeds,
// ParseAnswer of each text is ParseBatchAnswers' decision; where a pair
// is missing or its last answer is empty, it fails and the caller
// falls back to per-pair prompts instead of defaulting the pair to No.
func SplitBatchAnswers(answer string, n int) ([]string, bool) {
	out := make([]string, n)
	for idx, rest := range numberedLines(answer) {
		if idx >= 1 && idx <= n {
			out[idx-1] = rest
		}
	}
	for _, a := range out {
		if a == "" {
			return nil, false
		}
	}
	return out, true
}

// ParseCompareAnswers reads a compare reply: one numbered verdict
// line per candidate ("2. Yes", "2) No" or "2: Yes"). It reports ok
// only if every candidate 1..n received exactly one non-empty
// verdict; a duplicated index, an index outside 1..n or a missing
// candidate fails the parse.
func ParseCompareAnswers(answer string, n int) ([]bool, bool) {
	out := make([]bool, n)
	seen := make([]bool, n)
	for idx, rest := range numberedLines(answer) {
		if idx < 1 || idx > n {
			return nil, false // out-of-range candidate
		}
		if rest == "" {
			return nil, false // empty verdict
		}
		if seen[idx-1] {
			return nil, false // duplicated index
		}
		seen[idx-1] = true
		out[idx-1] = ParseAnswer(rest)
	}
	for _, s := range seen {
		if !s {
			return nil, false // missing candidate
		}
	}
	return out, true
}

// ParseSelectAnswer reads a select reply: a single "Answer: <k>" or
// "Answer: none" line. It returns the 1-based chosen candidate, or 0
// for "none". ok is false on an empty answer, a candidate outside
// 1..n, or several Answer lines that disagree.
func ParseSelectAnswer(answer string, n int) (int, bool) {
	found, choice := false, 0
	for _, line := range strings.Split(answer, "\n") {
		rest, ok := strings.CutPrefix(strings.TrimSpace(line), "Answer:")
		if !ok {
			continue
		}
		rest = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "."))
		var c int
		switch {
		case rest == "":
			return 0, false // empty answer
		case strings.EqualFold(rest, "none"):
			c = 0
		default:
			idx, err := strconv.Atoi(rest)
			if err != nil {
				return 0, false
			}
			if idx < 1 || idx > n {
				return 0, false // out-of-range candidate
			}
			c = idx
		}
		if found && c != choice {
			return 0, false // conflicting answers
		}
		found, choice = true, c
	}
	if !found {
		return 0, false
	}
	return choice, true
}

// ParseReasonAnswer reads the concluding verdict of a structured
// reasoning reply: the last "Final Answer: Yes/No" line. ok is false
// when no such line exists — the caller then falls back to
// ParseAnswer over the full reply.
func ParseReasonAnswer(answer string) (match, ok bool) {
	for _, line := range strings.Split(answer, "\n") {
		if rest, found := strings.CutPrefix(strings.TrimSpace(line), "Final Answer:"); found {
			match, ok = ParseAnswer(rest), true
		}
	}
	return match, ok
}
