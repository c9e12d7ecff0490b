package core

import (
	"reflect"
	"strings"
	"testing"

	"llm4em/internal/datasets"
	"llm4em/internal/entity"
	"llm4em/internal/llm"
	"llm4em/internal/prompt"
)

// TestSplitBatchAnswers pins the strict batch parser the dispatcher
// splits batched replies with: it reads lines exactly as
// ParseBatchAnswers does (last occurrence wins, out-of-range numbers
// ignored) and fails where that lenient parse would default a pair to
// No — a missing pair, or one whose last answer is empty.
func TestSplitBatchAnswers(t *testing.T) {
	cases := []struct {
		name   string
		answer string
		n      int
		want   []string
		ok     bool
	}{
		{"clean", "1. Yes\n2. No", 2, []string{"Yes", "No"}, true},
		{"separators", "1) Yes\n2: No.", 2, []string{"Yes", "No."}, true},
		{"last wins", "1. No\n1. Yes", 1, []string{"Yes"}, true},
		{"missing index", "1. Yes\n3. No", 3, nil, false},
		{"empty answer", "1. Yes\n2.", 2, nil, false},
		{"empty last occurrence", "1. Yes\n1.", 1, nil, false},
		{"garbage", "I cannot answer in that format.", 2, nil, false},
		{"out of range ignored", "1. Yes\n2. No\n7. Yes", 2, []string{"Yes", "No"}, true},
		// "1 . Yes" has a space before the separator; the number still
		// parses after trimming, so it is accepted.
		{"lenient separator", "1 . Yes\n2. No", 2, []string{"Yes", "No"}, true},
	}
	for _, tc := range cases {
		got, ok := SplitBatchAnswers(tc.answer, tc.n)
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
			continue
		}
		if ok && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: answers = %q, want %q", tc.name, got, tc.want)
		}
	}
	// The lenient parse of that reply is unchanged: the empty last
	// occurrence decides No.
	if got := ParseBatchAnswers("1. Yes\n1.", 1); got[0] {
		t.Errorf("ParseBatchAnswers(empty last occurrence) = %v, want [false]", got)
	}
}

// FuzzParseReplies feeds arbitrary model replies to every reply parser
// — LLM output is untrusted, and grouped formats are where models
// deviate — with a candidate count n in 0..64 drawn from the input. No
// parser may panic, and the strict parsers must agree with the lenient
// one wherever they accept: a strict batch or compare parse yields n
// answers that decide exactly as ParseBatchAnswers does, a select
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
			{prompt.BuildBatch(domain, pairs[:4]), 4},
			{prompt.BuildBatch(domain, pairs[2:8]), 6},
			{prompt.BuildCompare(domain, query, cands), 4},
			{prompt.BuildSelect(domain, query, cands), 4},
			{prompt.BuildReason(domain, pairs[0]), 1},
			{prompt.BuildReason(domain, pairs[4]), 1},
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
		batch := ParseBatchAnswers(reply, n)
		if len(batch) != n {
			t.Fatalf("ParseBatchAnswers returned %d decisions, want %d", len(batch), n)
		}
		if answers, ok := SplitBatchAnswers(reply, n); ok {
			if len(answers) != n {
				t.Fatalf("SplitBatchAnswers returned %d answers, want %d", len(answers), n)
			}
			for i, a := range answers {
				if ParseAnswer(a) != batch[i] {
					t.Fatalf("pair %d: strict answer %q decides %v, ParseBatchAnswers %v", i+1, a, !batch[i], batch[i])
				}
			}
		}
		if verdicts, ok := ParseCompareAnswers(reply, n); ok && !reflect.DeepEqual(verdicts, batch) {
			t.Fatalf("ParseCompareAnswers = %v, ParseBatchAnswers = %v", verdicts, batch)
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

// TestParseCompareAnswers pins the strict compare parser: clean
// replies in the tolerated numbering styles parse; every ambiguity —
// a missing pair, a duplicated index, an out-of-range candidate, an
// empty verdict — rejects the whole reply so the caller degrades to
// per-pair prompts instead of guessing.
func TestParseCompareAnswers(t *testing.T) {
	cases := []struct {
		name   string
		answer string
		n      int
		want   []bool
		ok     bool
	}{
		{name: "clean", answer: "1. Yes\n2. No\n3. Yes", n: 3, want: []bool{true, false, true}, ok: true},
		{name: "paren and colon styles", answer: "1) No\n2: Yes", n: 2, want: []bool{false, true}, ok: true},
		{name: "prose around the verdicts", answer: "Here are my verdicts:\n1. Yes\n2. No\nI hope this helps.", n: 2, want: []bool{true, false}, ok: true},
		{name: "missing pair", answer: "1. Yes\n3. No", n: 3, ok: false},
		{name: "duplicated index", answer: "1. Yes\n1. No\n2. Yes", n: 2, ok: false},
		{name: "out-of-range candidate", answer: "1. Yes\n2. No\n5. Yes", n: 2, ok: false},
		{name: "zero index", answer: "0. Yes\n1. No", n: 2, ok: false},
		{name: "empty verdict", answer: "1.\n2. No", n: 2, ok: false},
		{name: "no numbered lines", answer: "They all look plausible to me.", n: 2, ok: false},
		{name: "empty reply", answer: "", n: 2, ok: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := ParseCompareAnswers(tc.answer, tc.n)
			if ok != tc.ok {
				t.Fatalf("ParseCompareAnswers(%q, %d) ok = %v, want %v", tc.answer, tc.n, ok, tc.ok)
			}
			if tc.ok && !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("ParseCompareAnswers(%q, %d) = %v, want %v", tc.answer, tc.n, got, tc.want)
			}
			if !tc.ok && got != nil {
				t.Fatalf("failed parse returned verdicts %v, want nil", got)
			}
		})
	}
}

// TestParseSelectAnswer pins the strict select parser, including the
// empty-"none" ambiguity: "Answer:" with nothing after it fails
// rather than reading as "none".
func TestParseSelectAnswer(t *testing.T) {
	cases := []struct {
		name   string
		answer string
		n      int
		want   int
		ok     bool
	}{
		{name: "pick", answer: "Answer: 2", n: 3, want: 2, ok: true},
		{name: "pick with period", answer: "Answer: 2.", n: 3, want: 2, ok: true},
		{name: "none", answer: "Answer: none", n: 3, want: 0, ok: true},
		{name: "none case-insensitive", answer: "Answer: None", n: 3, want: 0, ok: true},
		{name: "prose around the answer", answer: "After comparing them all:\nAnswer: 1\nThat one shares the model number.", n: 2, want: 1, ok: true},
		{name: "repeated agreeing answers", answer: "Answer: 2\nAnswer: 2", n: 3, want: 2, ok: true},
		{name: "empty none answer", answer: "Answer:", n: 3, ok: false},
		{name: "out-of-range candidate", answer: "Answer: 7", n: 3, ok: false},
		{name: "zero candidate", answer: "Answer: 0", n: 3, ok: false},
		{name: "non-numeric", answer: "Answer: the first one", n: 3, ok: false},
		{name: "conflicting answers", answer: "Answer: 1\nAnswer: 2", n: 3, ok: false},
		{name: "no answer line", answer: "They are all quite similar.", n: 3, ok: false},
		{name: "empty reply", answer: "", n: 3, ok: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := ParseSelectAnswer(tc.answer, tc.n)
			if ok != tc.ok {
				t.Fatalf("ParseSelectAnswer(%q, %d) ok = %v, want %v", tc.answer, tc.n, ok, tc.ok)
			}
			if tc.ok && got != tc.want {
				t.Fatalf("ParseSelectAnswer(%q, %d) = %d, want %d", tc.answer, tc.n, got, tc.want)
			}
		})
	}
}

// TestParseReasonAnswer pins the reason-verdict parser: the last
// "Final Answer:" line wins, and its absence reports !ok so the
// caller can fall back to the word-level parse.
func TestParseReasonAnswer(t *testing.T) {
	cases := []struct {
		name   string
		answer string
		match  bool
		ok     bool
	}{
		{name: "yes", answer: "Step 1: compared.\nFinal Answer: Yes", match: true, ok: true},
		{name: "no", answer: "Step 1: compared.\nFinal Answer: No", match: false, ok: true},
		{name: "last line wins", answer: "Final Answer: Yes\nOn reflection:\nFinal Answer: No", match: false, ok: true},
		{name: "missing line", answer: "The records seem to agree on most attributes.", ok: false},
		{name: "empty reply", answer: "", ok: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			match, ok := ParseReasonAnswer(tc.answer)
			if ok != tc.ok {
				t.Fatalf("ParseReasonAnswer(%q) ok = %v, want %v", tc.answer, ok, tc.ok)
			}
			if tc.ok && match != tc.match {
				t.Fatalf("ParseReasonAnswer(%q) = %v, want %v", tc.answer, match, tc.match)
			}
		})
	}
}
