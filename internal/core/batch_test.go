package core

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"llm4em/internal/datasets"
	"llm4em/internal/entity"
	"llm4em/internal/llm"
	"llm4em/internal/prompt"
)

// ParseBatchAnswers is the lenient batch parse of the reference loop
// below: numbered Yes/No lines ("3. Yes", "3) Yes" or "3: Yes") into a
// decision slice of length n. Absent or out-of-range numbers default
// to false; when a number appears on several lines, the last
// occurrence wins. prompt.SplitBatchAnswers is its strict counterpart.
func ParseBatchAnswers(answer string, n int) []bool {
	out := make([]bool, n)
	for _, line := range strings.Split(answer, "\n") {
		trimmed := strings.TrimSpace(line)
		i := strings.IndexAny(trimmed, ".):")
		if i < 0 {
			continue
		}
		idx, err := strconv.Atoi(strings.TrimSpace(trimmed[:i]))
		if err == nil && idx >= 1 && idx <= n {
			out[idx-1] = prompt.ParseAnswer(strings.TrimSpace(trimmed[i+1:]))
		}
	}
	return out
}

// referenceBatch is BatchMatcher's evaluation before it rode the
// dispatcher: consecutive BatchSize chunks in input order, one
// BuildBatch prompt per chunk sent straight to the client, the reply
// read by the lenient ParseBatchAnswers.
func referenceBatch(t *testing.T, m *BatchMatcher, pairs []entity.Pair) Result {
	t.Helper()
	size := max(1, m.BatchSize)
	var r Result
	for start := 0; start < len(pairs); start += size {
		batch := pairs[start:min(start+size, len(pairs))]
		resp, err := m.Client.Chat([]llm.Message{{Role: llm.User, Content: prompt.BuildBatch(m.Domain, batch)}})
		if err != nil {
			t.Fatal(err)
		}
		decisions := ParseBatchAnswers(resp.Content, len(batch))
		for j, p := range batch {
			r.Confusion.Add(p.Match, decisions[j])
		}
		r.PromptTokens += resp.PromptTokens
		r.CompletionTokens += resp.CompletionTokens
		r.TotalLatency += resp.Latency
		r.Requests++
	}
	return r
}

// TestBatchMatcherMatchesOracle pins that routing the batched-prompt
// ablation through the dispatcher changed nothing it reports: on every
// row the dispatcher's strict parse accepts every reply, and its usage
// split sums back to each request, so quality, tokens, latency and
// request count equal the direct chunking loop's.
func TestBatchMatcherMatchesOracle(t *testing.T) {
	for _, key := range []string{"wdc", "ds"} {
		ds := datasets.MustLoad(key)
		// 500 pairs keep the 20 rows near 5 s under -race; the full test
		// sets agree as well.
		pairs := ds.Test[:500]
		for _, model := range []string{llm.GPTMini, llm.GPT4} {
			client := llm.MustNew(model)
			for _, size := range []int{1, 2, 5, 10, 20} {
				m := &BatchMatcher{Client: client, Domain: ds.Schema.Domain, BatchSize: size}
				got, err := m.Evaluate(pairs)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceBatch(t, m, pairs)
				if got.Confusion != want.Confusion || got.PromptTokens != want.PromptTokens ||
					got.CompletionTokens != want.CompletionTokens || got.TotalLatency != want.TotalLatency ||
					got.Requests != want.Requests {
					t.Errorf("%s/%s/batch %d: dispatcher %+v, reference %+v", key, model, size, got, want)
				}
			}
		}
	}
}

func TestParseBatchAnswers(t *testing.T) {
	answer := "1. Yes\n2. No\n3. Yes"
	got := ParseBatchAnswers(answer, 3)
	want := []bool{true, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("answer %d = %v, want %v", i+1, got[i], want[i])
		}
	}
	// Missing and out-of-range numbers default to false.
	partial := ParseBatchAnswers("2. Yes\n9. Yes\nnot a line", 3)
	if partial[0] || !partial[1] || partial[2] {
		t.Errorf("partial = %v", partial)
	}
}

func TestParseBatchAnswersSeparators(t *testing.T) {
	// Models vary the list separator: "3. Yes", "3) Yes", "3: Yes".
	for _, answer := range []string{
		"1. Yes\n2) No\n3: Yes",
		"1) Yes\n2: No\n3. Yes",
		" 1 . Yes\n 2 ) No\n 3 : Yes",
	} {
		got := ParseBatchAnswers(answer, 3)
		want := []bool{true, false, true}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%q: answer %d = %v, want %v", answer, i+1, got[i], want[i])
			}
		}
	}
}

func TestParseBatchAnswersOutOfRange(t *testing.T) {
	got := ParseBatchAnswers("0. Yes\n-1. Yes\n4. Yes\n1000000. Yes", 3)
	for i, v := range got {
		if v {
			t.Errorf("out-of-range numbers must not set index %d", i)
		}
	}
}

func TestParseBatchAnswersDuplicateNumbers(t *testing.T) {
	// When a number appears on several lines, the last occurrence
	// wins — a model correcting itself mid-answer.
	got := ParseBatchAnswers("1. Yes\n1. No\n2. No\n2. Yes", 2)
	if got[0] {
		t.Errorf("answer 1 = %v, want false (last occurrence)", got[0])
	}
	if !got[1] {
		t.Errorf("answer 2 = %v, want true (last occurrence)", got[1])
	}
}

func TestParseBatchAnswersEmpty(t *testing.T) {
	for _, answer := range []string{"", "\n\n", "no numbered lines here", ". Yes", ") Yes"} {
		got := ParseBatchAnswers(answer, 4)
		if len(got) != 4 {
			t.Fatalf("%q: length %d, want 4", answer, len(got))
		}
		for i, v := range got {
			if v {
				t.Errorf("%q: index %d = true, want all false", answer, i)
			}
		}
	}
}

func TestBatchMatcherEvaluate(t *testing.T) {
	ds := datasets.MustLoad("wdc")
	pairs := ds.Test[:60]
	m := &BatchMatcher{Client: llm.MustNew(llm.GPT4), Domain: ds.Schema.Domain, BatchSize: 5}
	r, err := m.Evaluate(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Requests != 12 {
		t.Errorf("requests = %d, want 12 (60 pairs / batch 5)", r.Requests)
	}
	if r.Confusion.Total() != 60 {
		t.Errorf("decisions = %d, want 60", r.Confusion.Total())
	}
	if r.F1() < 50 {
		t.Errorf("batched GPT-4 F1 = %.2f, unexpectedly low", r.F1())
	}
}

func TestBatchingReducesTokensPerPair(t *testing.T) {
	ds := datasets.MustLoad("wdc")
	pairs := ds.Test[:40]
	single := &BatchMatcher{Client: llm.MustNew(llm.GPTMini), Domain: ds.Schema.Domain, BatchSize: 1}
	batched := &BatchMatcher{Client: llm.MustNew(llm.GPTMini), Domain: ds.Schema.Domain, BatchSize: 10}
	rs, err := single.Evaluate(pairs)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := batched.Evaluate(pairs)
	if err != nil {
		t.Fatal(err)
	}
	perPairSingle := float64(rs.PromptTokens) / float64(len(pairs))
	perPairBatched := float64(rb.PromptTokens) / float64(len(pairs))
	if perPairBatched >= perPairSingle {
		t.Errorf("batching should reduce prompt tokens per pair: %.1f vs %.1f", perPairBatched, perPairSingle)
	}
}

func TestBatchingDegradesQuality(t *testing.T) {
	ds := datasets.MustLoad("wdc")
	pairs := ds.Test[:300]
	single := &BatchMatcher{Client: llm.MustNew(llm.GPTMini), Domain: ds.Schema.Domain, BatchSize: 1}
	big := &BatchMatcher{Client: llm.MustNew(llm.GPTMini), Domain: ds.Schema.Domain, BatchSize: 20}
	rs, err := single.Evaluate(pairs)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := big.Evaluate(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if rb.F1() >= rs.F1() {
		t.Errorf("batch-20 F1 %.2f should trail batch-1 F1 %.2f", rb.F1(), rs.F1())
	}
}

func TestBatchSizeDefaultsToOne(t *testing.T) {
	ds := datasets.MustLoad("wdc")
	m := &BatchMatcher{Client: llm.MustNew(llm.GPT4), Domain: ds.Schema.Domain}
	r, err := m.Evaluate(ds.Test[:4])
	if err != nil {
		t.Fatal(err)
	}
	if r.Requests != 4 {
		t.Errorf("requests = %d, want 4", r.Requests)
	}
}

func TestParseBatchAnswersProperty(t *testing.T) {
	// Property: output length always equals n and out-of-range numbers
	// never panic.
	f := func(answer string, n uint8) bool {
		size := int(n%32) + 1
		out := ParseBatchAnswers(answer, size)
		return len(out) == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
