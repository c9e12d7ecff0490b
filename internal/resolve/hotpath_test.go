package resolve

import (
	"fmt"
	"sort"
	"testing"

	"llm4em/internal/detrand"
	"llm4em/internal/entity"
	"llm4em/internal/tokenize"
)

// hotpathStore builds a store over randomized product-like records
// with deliberate token overlap (score ties across shards).
func hotpathStore(t *testing.T, rng *detrand.RNG, n int, opts Options) (*Store, []entity.Record) {
	t.Helper()
	pool := []string{"sony", "canon", "epson", "camera", "printer", "kit", "pro", "dock"}
	s := New(benchClient{}, opts)
	recs := make([]entity.Record, n)
	for i := range recs {
		title := fmt.Sprintf("%s %s model%03d", pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))], i%40)
		recs[i] = entity.Record{ID: fmt.Sprintf("r%04d", i), Attrs: []entity.Attr{{Name: "title", Value: title}}}
		if err := s.Add(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return s, recs
}

// TestMergeMatchesSortReference pins the top-K shard merge against
// sort-then-truncate over the raw per-shard results — the exact
// global re-ranking the store used before the heap merge.
func TestMergeMatchesSortReference(t *testing.T) {
	rng := detrand.New("resolve-merge")
	s, recs := hotpathStore(t, rng, 250, Options{})
	for q := 0; q < 40; q++ {
		base := recs[rng.Intn(len(recs))]
		text := base.Serialize() + " pro"
		qid := fmt.Sprintf("m%04d", q)

		// Reference: every shard's full query output, sorted globally
		// by (score desc, ID asc), truncated.
		type flat struct {
			id    string
			score float64
		}
		var ref []flat
		for _, sh := range s.shards {
			sh.mu.RLock()
			for _, c := range sh.ix.QueryTokens(tokenize.Words(text), s.opts.MaxCandidates, DefaultMinScore) {
				r := sh.ix.Record(c.Pos)
				if r.ID == qid {
					continue
				}
				ref = append(ref, flat{id: r.ID, score: c.Score})
			}
			sh.mu.RUnlock()
		}
		sort.Slice(ref, func(i, j int) bool {
			if ref[i].score != ref[j].score {
				return ref[i].score > ref[j].score
			}
			return ref[i].id < ref[j].id
		})
		if len(ref) > s.opts.MaxCandidates {
			ref = ref[:s.opts.MaxCandidates]
		}

		got := s.blockCandidates(qid, tokenize.Words(text))
		if len(got) != len(ref) {
			t.Fatalf("query %q: merge returned %d candidates, reference %d", text, len(got), len(ref))
		}
		for i := range got {
			if got[i].rec.ID != ref[i].id || got[i].score != ref[i].score {
				t.Fatalf("query %q rank %d: merge (%s, %v) != reference (%s, %v)",
					text, i, got[i].rec.ID, got[i].score, ref[i].id, ref[i].score)
			}
		}
	}
}

// TestBatchErrorUnwrap pins that BatchError keeps the typed error
// chain intact for HTTP status mapping.
func TestBatchErrorUnwrap(t *testing.T) {
	err := &BatchError{Added: 3, Err: fmt.Errorf("%w: %q", ErrDuplicateID, "x")}
	if err.Unwrap() == nil {
		t.Fatal("BatchError.Unwrap returned nil")
	}
	if got := err.Error(); got == "" {
		t.Fatal("empty BatchError message")
	}
}
