package resolve

import (
	"fmt"
	"reflect"
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

// decisionsKey projects the ranking-relevant parts of a result for
// comparison: candidate order, blocking scores and probabilities.
func decisionsKey(r Result) []string {
	out := make([]string, len(r.Decisions))
	for i, d := range r.Decisions {
		out[i] = fmt.Sprintf("%s|%.17g|%.17g|%v|%s", d.CandidateID, d.BlockScore, d.Probability, d.Match, d.Method)
	}
	return out
}

// TestParallelFanoutMatchesSerial is the resolve-level differential
// test: parallel shard fanout plus heap-based top-K merge must
// produce byte-identical rankings — same candidates, same order, same
// scores, including cross-shard ties — as the serial path, which the
// blocking differential test in turn pins to the old sort-based
// implementation.
func TestParallelFanoutMatchesSerial(t *testing.T) {
	rng := detrand.New("resolve-hotpath")
	serial, recs := hotpathStore(t, rng, 300, Options{})
	rng2 := detrand.New("resolve-hotpath")
	parallel, _ := hotpathStore(t, rng2, 300, Options{})

	resolveSide := func(s *Store, query entity.Record, threshold int64) Result {
		old := fanoutRecords
		fanoutRecords = threshold
		defer func() { fanoutRecords = old }()
		r, err := s.Resolve(query)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for q := 0; q < 60; q++ {
		base := recs[rng.Intn(len(recs))]
		query := entity.Record{
			ID:    fmt.Sprintf("q%04d", q),
			Attrs: []entity.Attr{{Name: "title", Value: base.Attrs[0].Value + " extra"}},
		}
		rs := resolveSide(serial, query, 1<<62)
		rp := resolveSide(parallel, query, 1)
		if !reflect.DeepEqual(decisionsKey(rs), decisionsKey(rp)) {
			t.Fatalf("query %s: serial %v != parallel %v", query.ID, decisionsKey(rs), decisionsKey(rp))
		}
		if rs.EntityID != rp.EntityID || !reflect.DeepEqual(rs.Members, rp.Members) {
			t.Fatalf("query %s: entity fold diverged: %v/%v vs %v/%v",
				query.ID, rs.EntityID, rs.Members, rp.EntityID, rp.Members)
		}
	}
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

		// Reference: every shard's full Query output, sorted globally
		// by (score desc, ID asc), truncated.
		type flat struct {
			id    string
			score float64
		}
		var ref []flat
		for _, sh := range s.shards {
			sh.mu.RLock()
			for _, c := range sh.ix.Query(text, s.opts.MaxCandidates, s.opts.Blocking.EffectiveMinScore()) {
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
