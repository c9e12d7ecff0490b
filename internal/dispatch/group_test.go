package dispatch

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"llm4em/internal/entity"
	"llm4em/internal/llm"
)

// The grouped test format: "group:\n<i> | <a> | <b>" lines, answered
// "i. Yes/No" per line — same verdicts as the per-pair prompt, so
// grouped and fallback answers agree.
func testBuildGroup(pairs []entity.Pair) string {
	var b strings.Builder
	b.WriteString("group:\n")
	for i, p := range pairs {
		fmt.Fprintf(&b, "%d | %s | %s\n", i+1, p.A.Serialize(), p.B.Serialize())
	}
	return strings.TrimRight(b.String(), "\n")
}

func testParseGroup(answer string, n int) ([]bool, bool) {
	lines := strings.Split(answer, "\n")
	if len(lines) != n {
		return nil, false
	}
	out := make([]bool, n)
	for i, line := range lines {
		rest, ok := strings.CutPrefix(line, fmt.Sprintf("%d. ", i+1))
		if !ok {
			return nil, false
		}
		out[i] = strings.HasPrefix(rest, "Yes")
	}
	return out, true
}

func testGroupSpec() GroupSpec {
	return GroupSpec{Build: testBuildGroup, Parse: testParseGroup}
}

// groupClient answers per-pair and grouped test prompts; with
// garbleGroups set, grouped prompts get an unparseable reply.
type groupClient struct {
	garbleGroups bool

	calls, groupCalls, pairCalls atomic.Int64
}

func (c *groupClient) Name() string { return "group-test" }

func (c *groupClient) Chat(messages []llm.Message) (llm.Response, error) {
	c.calls.Add(1)
	content := messages[len(messages)-1].Content
	if strings.HasPrefix(content, "group:\n") {
		c.groupCalls.Add(1)
		if c.garbleGroups {
			return llm.Response{Content: "I would rather describe the candidates in prose.",
				PromptTokens: 12, CompletionTokens: 9}, nil
		}
		var b strings.Builder
		lines := strings.Split(content, "\n")[1:]
		for _, line := range lines {
			parts := strings.SplitN(line, " | ", 3)
			if len(parts) != 3 {
				return llm.Response{}, fmt.Errorf("malformed group line %q", line)
			}
			answer := "No"
			if strings.Contains(parts[2], "variant") {
				answer = "Yes"
			}
			fmt.Fprintf(&b, "%s. %s\n", parts[0], answer)
		}
		return llm.Response{
			Content:      strings.TrimRight(b.String(), "\n"),
			PromptTokens: len(content) / 4, CompletionTokens: 3 * len(lines),
		}, nil
	}
	c.pairCalls.Add(1)
	answer := "No."
	if strings.Contains(content, "variant") {
		answer = "Yes."
	}
	return llm.Response{Content: answer, PromptTokens: len(content) / 4, CompletionTokens: 2}, nil
}

// groupPairs builds n pairs sharing one query record, each candidate
// distinct, matching where the index is even (those candidates are
// "variant" renderings the test client recognizes) — the shape
// DoGroupContext receives from a Resolve call.
func groupPairs(n int) []entity.Pair {
	q := entity.Record{ID: "q", Attrs: []entity.Attr{{Name: "title", Value: "query item"}}}
	pairs := make([]entity.Pair, n)
	for i := range pairs {
		v := fmt.Sprintf("other item %d", i)
		if i%2 == 0 {
			v = fmt.Sprintf("query item variant %d", i)
		}
		pairs[i] = entity.Pair{
			ID: fmt.Sprintf("g%02d", i),
			A:  q,
			B:  entity.Record{ID: fmt.Sprintf("c%02d", i), Attrs: []entity.Attr{{Name: "title", Value: v}}},
		}
	}
	return pairs
}

// TestDoGroupAnswersAllPairsInOneCall is the core behavior: one
// grouped round-trip decides every pair and verdicts match the
// per-pair formulation.
func TestDoGroupAnswersAllPairsInOneCall(t *testing.T) {
	client := &groupClient{}
	d := newTestDispatcher(client, Options{})
	defer d.Close()
	pairs := groupPairs(4)

	results, err := d.DoGroupContext(context.Background(), pairs, testGroupSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(pairs) {
		t.Fatalf("got %d results for %d pairs", len(results), len(pairs))
	}
	for i, r := range results {
		want := i%2 == 0
		if r.Match != want {
			t.Errorf("pair %d match = %v, want %v", i, r.Match, want)
		}
		if !r.Grouped || r.GroupSize != len(pairs) {
			t.Errorf("pair %d not marked grouped (grouped=%v size=%d)", i, r.Grouped, r.GroupSize)
		}
		if r.Cached || r.FellBack {
			t.Errorf("pair %d unexpectedly cached=%v fellBack=%v", i, r.Cached, r.FellBack)
		}
	}
	if got, groups := client.calls.Load(), client.groupCalls.Load(); got != 1 || groups != 1 {
		t.Errorf("client saw %d calls (%d grouped), want 1 grouped", got, groups)
	}
}

// TestDoGroupSeedsPerPairCache pins the cache layering: a grouped
// verdict seeds the per-pair prompt cache, so the same pair later —
// pairwise or in another group — costs no client call.
func TestDoGroupSeedsPerPairCache(t *testing.T) {
	client := &groupClient{}
	d := newTestDispatcher(client, Options{})
	defer d.Close()
	pairs := groupPairs(3)

	if _, err := d.DoGroupContext(context.Background(), pairs, testGroupSpec()); err != nil {
		t.Fatal(err)
	}
	// The same pair pairwise: answered from the seeded cache.
	res, err := doOne(d, pairs[1])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("pairwise repeat of a grouped pair was not a cache hit")
	}
	if res.Match {
		t.Error("seeded verdict flipped: odd pair should not match")
	}
	// A second group overlapping the first: the repeats come from the
	// cache, no new client call for a fully covered group.
	results, err := d.DoGroupContext(context.Background(), pairs[:2], testGroupSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.Cached {
			t.Errorf("pair %d of repeated group not cached", i)
		}
	}
	if got := client.calls.Load(); got != 1 {
		t.Errorf("client saw %d calls, want 1 (everything after the first group cached)", got)
	}
}

// TestGroupParseFailureFallsBackPerPair pins the degradation
// contract: a malformed grouped reply falls back to one pairwise
// prompt per pair — deterministically, without dropping any pair —
// and, unlike a batch's, counts in none of the dispatcher's batch
// and fallback stats.
func TestGroupParseFailureFallsBackPerPair(t *testing.T) {
	run := func() ([]Result, *groupClient, Stats) {
		client := &groupClient{garbleGroups: true}
		d := newTestDispatcher(client, Options{})
		defer d.Close()
		pairs := groupPairs(4)
		results, err := d.DoGroupContext(context.Background(), pairs, testGroupSpec())
		if err != nil {
			t.Fatal(err)
		}
		return results, client, d.Stats()
	}

	results, client, st := run()
	if len(results) != 4 {
		t.Fatalf("fallback dropped pairs: got %d results, want 4", len(results))
	}
	for i, r := range results {
		want := i%2 == 0
		if r.Match != want {
			t.Errorf("pair %d match = %v, want %v", i, r.Match, want)
		}
		if !r.FellBack || r.Grouped {
			t.Errorf("pair %d not marked as fallback (fellBack=%v grouped=%v)", i, r.FellBack, r.Grouped)
		}
	}
	// One wasted group round-trip plus one pairwise call per pair.
	if groups, pairwise := client.groupCalls.Load(), client.pairCalls.Load(); groups != 1 || pairwise != 4 {
		t.Errorf("client saw %d group + %d pairwise calls, want 1 + 4", groups, pairwise)
	}
	if st.ParseFallbacks != 0 || st.FallbackPairs != 0 || st.Batches != 0 || st.BatchedPairs != 0 {
		t.Errorf("stats %+v: a grouped fallback must not count as a batch or a batch fallback", st)
	}

	// Deterministic: a rerun produces identical verdicts and flags.
	again, _, _ := run()
	if !reflect.DeepEqual(results, again) {
		t.Errorf("fallback results differ across reruns:\n%+v\n%+v", results, again)
	}
}

// TestDoGroupAfterCloseErrors pins the lifecycle contract.
func TestDoGroupAfterCloseErrors(t *testing.T) {
	d := newTestDispatcher(&groupClient{}, Options{})
	d.Close()
	if _, err := d.DoGroupContext(context.Background(), groupPairs(2), testGroupSpec()); !errors.Is(err, ErrClosed) {
		t.Fatalf("DoGroupContext after Close returned %v, want ErrClosed", err)
	}
}

// TestDoGroupEmpty pins the degenerate input.
func TestDoGroupEmpty(t *testing.T) {
	d := newTestDispatcher(&groupClient{}, Options{})
	defer d.Close()
	results, err := d.DoGroupContext(context.Background(), nil, testGroupSpec())
	if err != nil || results != nil {
		t.Fatalf("DoGroupContext(nil) = %v, %v; want nil, nil", results, err)
	}
}

// TestRunGroupMixedCache pins the peek layering of the grouped path:
// pre-answered pairs are served from the cache and only the remainder
// rides the grouped prompt.
func TestRunGroupMixedCache(t *testing.T) {
	client := &groupClient{}
	d := newTestDispatcher(client, Options{})
	defer d.Close()
	pairs := groupPairs(3)

	// Answer one pair pairwise first so its key is cached.
	if _, _, err := d.eng.CompleteContext(context.Background(), testBuildPair(pairs[0])); err != nil {
		t.Fatal(err)
	}
	results, err := d.DoGroupContext(context.Background(), pairs, testGroupSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Cached || results[0].Grouped {
		t.Errorf("pre-answered pair not served from cache: %+v", results[0])
	}
	for i := 1; i < 3; i++ {
		if !results[i].Grouped || results[i].GroupSize != 2 {
			t.Errorf("pair %d should ride a group of 2: %+v", i, results[i])
		}
	}
	if got := client.groupCalls.Load(); got != 1 {
		t.Errorf("client saw %d group calls, want 1", got)
	}
	if st := d.Stats(); st.CacheHits != 1 {
		t.Errorf("stats %+v: want the pre-answered pair counted as 1 cache hit", st)
	}
}
