package prompt

import (
	"reflect"
	"strings"
	"testing"

	"llm4em/internal/datasets"
	"llm4em/internal/entity"
	"llm4em/internal/llm"
)

// parseBatchAnswers is the lenient reading of a batched reply that
// SplitBatchAnswers must agree with wherever it accepts: numbered
// Yes/No lines into n decisions, absent or out-of-range numbers
// defaulting to false and the last occurrence of a number winning.
func parseBatchAnswers(answer string, n int) []bool {
	out := make([]bool, n)
	for idx, rest := range numberedLines(answer) {
		if idx >= 1 && idx <= n {
			out[idx-1] = ParseAnswer(rest)
		}
	}
	return out
}

// FuzzParseReplies feeds arbitrary model replies to every reply parser
// — LLM output is untrusted, and grouped formats are where models
// deviate — with a candidate count n in 0..64 drawn from the input. No
// parser may panic, and the strict parsers must agree with the lenient
// one wherever they accept: a strict batch or compare parse yields n
// answers that decide exactly as parseBatchAnswers does, a select
// parse picks a candidate in 0..n, and a reason parse succeeds exactly
// when some trimmed line starts with "Final Answer:". The seeds are
// the simulated models' replies to each strategy's prompt.
func FuzzParseReplies(f *testing.F) {
	// Four matches then four non-matches; the grouped prompts set the
	// first match's B among three non-matching candidates.
	var pairs []entity.Pair
	for _, want := range []bool{true, false} {
		k := 0
		for _, p := range datasets.MustLoad("wdc").Test {
			if p.Match == want && k < 4 {
				pairs = append(pairs, p)
				k++
			}
		}
	}
	domain := entity.Product
	query, cands := pairs[0].A, []entity.Record{pairs[4].B, pairs[0].B, pairs[5].B, pairs[6].B}
	for _, name := range []string{"GPT-4", "Llama2", "Mixtral"} {
		m := llm.MustNew(name)
		for _, p := range []struct {
			text string
			n    uint8
		}{
			{BuildBatch(domain, pairs[:4]), 4},
			{BuildBatch(domain, pairs[2:8]), 6},
			{BuildCompare(domain, query, cands), 4},
			{BuildSelect(domain, query, cands), 4},
			{BuildReason(domain, pairs[0]), 1},
			{BuildReason(domain, pairs[4]), 1},
		} {
			resp, err := m.Chat([]llm.Message{{Role: llm.User, Content: p.text}})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(resp.Content, p.n)
		}
	}
	f.Add("1. Yes\n1.", uint8(1))
	f.Fuzz(func(t *testing.T, reply string, nIn uint8) {
		n := int(nIn) % 65
		_ = ParseAnswer(reply)
		batch := parseBatchAnswers(reply, n)
		if len(batch) != n {
			t.Fatalf("parseBatchAnswers returned %d decisions, want %d", len(batch), n)
		}
		if answers, ok := SplitBatchAnswers(reply, n); ok {
			if len(answers) != n {
				t.Fatalf("SplitBatchAnswers returned %d answers, want %d", len(answers), n)
			}
			for i, a := range answers {
				if ParseAnswer(a) != batch[i] {
					t.Fatalf("pair %d: strict answer %q decides %v, parseBatchAnswers %v", i+1, a, !batch[i], batch[i])
				}
			}
		}
		if verdicts, ok := ParseCompareAnswers(reply, n); ok && !reflect.DeepEqual(verdicts, batch) {
			t.Fatalf("ParseCompareAnswers = %v, parseBatchAnswers = %v", verdicts, batch)
		}
		if k, ok := ParseSelectAnswer(reply, n); ok && (k < 0 || k > n) {
			t.Fatalf("ParseSelectAnswer picked %d of %d candidates", k, n)
		}
		final := false
		for _, line := range strings.Split(reply, "\n") {
			final = final || strings.HasPrefix(strings.TrimSpace(line), "Final Answer:")
		}
		if _, ok := ParseReasonAnswer(reply); ok != final {
			t.Fatalf("ParseReasonAnswer ok = %v, want %v", ok, final)
		}
	})
}
