package core

import (
	"testing"
	"testing/quick"

	"llm4em/internal/datasets"
	"llm4em/internal/llm"
)

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
