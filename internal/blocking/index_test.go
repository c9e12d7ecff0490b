package blocking

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"llm4em/internal/entity"
)

// TestIndexIncrementalAddMatchesBatchBuild verifies that growing an
// index record by record is equivalent to building it in one shot.
func TestIndexIncrementalAddMatchesBatchBuild(t *testing.T) {
	var recs []entity.Record
	for i := 0; i < 40; i++ {
		recs = append(recs, rec(fmt.Sprintf("r%02d", i),
			fmt.Sprintf("widget model%d common shared tokens", i)))
	}
	batch := BuildIndex(recs, IndexOptions{})
	grown := BuildIndex(nil, IndexOptions{})
	for _, r := range recs {
		grown.Add(r)
	}
	if batch.Len() != grown.Len() {
		t.Fatalf("Len: batch %d grown %d", batch.Len(), grown.Len())
	}
	for _, q := range recs {
		a := queryText(batch, q.Serialize(), 0, 0)
		b := queryText(grown, q.Serialize(), 0, 0)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("query %s: batch %v grown %v", q.ID, a, b)
		}
	}
}

// TestIndexStopTokensAdaptToGrowth: a token that is rare at first
// becomes a stop token as the collection grows, without a rebuild.
func TestIndexStopTokensAdaptToGrowth(t *testing.T) {
	ix := BuildIndex(nil, IndexOptions{})
	ix.Add(rec("a", "gadget alpha"))
	ix.Add(rec("b", "gadget beta"))
	if len(queryText(ix, "gadget", 0, 0)) != 2 {
		t.Fatal("shared token should match both records while rare")
	}
	// Grow to where "gadget" exceeds both the fraction and the
	// absolute floor.
	for i := 0; i < 8; i++ {
		ix.Add(rec(fmt.Sprintf("g%d", i), fmt.Sprintf("gadget gamma%d", i)))
	}
	if got := queryText(ix, "gadget", 0, 0); len(got) != 0 {
		t.Errorf("stop token still matched %d records", len(got))
	}
	// A rare token still works.
	if got := queryText(ix, "beta", 0, 0); len(got) != 1 {
		t.Errorf("rare token matched %d records, want 1", len(got))
	}
}

func TestIndexQueryBounds(t *testing.T) {
	ix := BuildIndex([]entity.Record{
		rec("a", "alpha beta"),
		rec("b", "alpha beta gamma"),
		rec("c", "alpha"),
	}, IndexOptions{StopDocFrac: Float(1)}) // no stop-token filtering
	all := queryText(ix, "alpha beta gamma", 0, 0)
	if len(all) != 3 {
		t.Fatalf("unbounded query returned %d, want 3", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Score < all[i].Score {
			t.Fatal("results not ranked by decreasing score")
		}
	}
	if top := queryText(ix, "alpha beta gamma", 1, 0); len(top) != 1 || ix.Record(top[0].Pos).ID != "b" {
		t.Errorf("top-1 = %v", top)
	}
	if none := queryText(ix, "delta", 0, 0); len(none) != 0 {
		t.Errorf("unknown token matched %v", none)
	}
}

// TestLiteralZeroThresholds covers the threshold resolution rule: a
// nil StopDocFrac selects the default, Float(0) is a literal zero, a
// negative value clamps to zero — checked on the resolved value and on
// what an index then returns — and the candidate floor the resolve
// store applies, DefaultMinScore, drops a weak overlap a zero floor
// keeps.
func TestLiteralZeroThresholds(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  IndexOptions
		stopF float64
	}{
		{"nil", IndexOptions{}, DefaultStopDocFrac},
		{"zero", IndexOptions{StopDocFrac: Float(0)}, 0},
		{"negative", IndexOptions{StopDocFrac: Float(-1)}, 0},
		{"set", IndexOptions{StopDocFrac: Float(0.4)}, 0.4},
	} {
		if got := BuildIndex(nil, tc.opts).stopFrac; got != tc.stopF {
			t.Errorf("%s: StopDocFrac resolves to %v, want %v", tc.name, got, tc.stopF)
		}
	}

	// The score floor: the one token shared across 4 of 5 records
	// weighs log(1 + 5/4) ≈ 0.81, below DefaultMinScore.
	records := []entity.Record{rec("l", "uncommonword"), rec("x", "unrelated thing")}
	for i := 0; i < 3; i++ {
		records = append(records, rec(fmt.Sprintf("p%d", i), fmt.Sprintf("uncommonword padding%d", i)))
	}
	ix := BuildIndex(records, IndexOptions{StopDocFrac: Float(1)})
	if got := queryText(ix, "uncommonword", 0, DefaultMinScore); len(got) != 0 {
		t.Errorf("DefaultMinScore kept %d weak candidates", len(got))
	}
	if got := queryText(ix, "uncommonword", 0, 0); len(got) != 4 {
		t.Errorf("a zero floor kept %d of the 4 weak candidates", len(got))
	}
	// Blocked the way the store blocks (default options, 10 candidates,
	// DefaultMinScore), no record finds a partner: each finds at most
	// itself.
	dix := BuildIndex(records, IndexOptions{})
	for pos, r := range records {
		for _, c := range queryText(dix, r.Serialize(), 10, DefaultMinScore) {
			if c.Pos != pos {
				t.Errorf("%s kept the weak partner %s under DefaultMinScore", r.ID, records[c.Pos].ID)
			}
		}
	}

	// Behavioral check for StopDocFrac: with a literal zero, any token
	// at or above the absolute floor is a stop token.
	var recs []entity.Record
	for i := 0; i < 5; i++ {
		recs = append(recs, rec(fmt.Sprintf("s%d", i), fmt.Sprintf("sharedtok filler%d", i)))
	}
	noStop := BuildIndex(recs, IndexOptions{StopDocFrac: Float(1)}) // filtering off
	if got := queryText(noStop, "sharedtok", 0, 0); len(got) != 5 {
		t.Fatalf("filter-off index matched %d", len(got))
	}
	zeroStop := BuildIndex(recs, IndexOptions{StopDocFrac: Float(0)})
	if got := queryText(zeroStop, "sharedtok", 0, 0); len(got) != 0 {
		t.Errorf("literal-zero StopDocFrac still matched %d records via a frequent token", len(got))
	}
}

// TestLongRecordLinear: a record or query of 200 000 distinct tokens
// (≈1.5 MB, well inside the 32 MiB records body) goes through Add and
// QueryTokens in linear time. Token dedupe used to be a
// nested scan — ≈7 s each at this size — and Add runs under the shard's
// write lock.
func TestLongRecordLinear(t *testing.T) {
	words := make([]string, 200000)
	for i := range words {
		words[i] = fmt.Sprintf("w%d", i)
	}
	// Every token is distinct but the first and last, which repeat.
	words = append(words, "w0", "w199999")
	text := strings.Join(words, " ")
	ix := BuildIndex([]entity.Record{rec("small", "w1 w2 w3")}, IndexOptions{StopDocFrac: Float(1)})
	timed := func(label string, f func()) {
		t.Helper()
		start := time.Now()
		f()
		d := time.Since(start)
		t.Logf("%s: %v", label, d)
		if d > 2*time.Second {
			t.Fatalf("%s of a 200 000-token text took %v, want < 2s", label, d)
		}
	}
	timed("Add", func() { ix.Add(rec("long", text)) })
	// A repeated token counts once.
	for tok, want := range map[string]int{"w1": 2, "w199999": 1} {
		if id, ok := ix.vocab.Lookup(tok); !ok || ix.tokenDF(id) != want {
			t.Fatalf("df(%s) = %d, want %d", tok, ix.tokenDF(id), want)
		}
	}
	var got []Candidate
	timed("QueryTokens", func() { got = ix.QueryTokens(words, 0, 0) })
	if len(got) != 2 || got[0].Pos != 1 {
		t.Fatalf("QueryTokens ranks %v, want the long record first of 2", got)
	}
}
