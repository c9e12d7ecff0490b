package blocking

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"llm4em/internal/detrand"
	"llm4em/internal/entity"
	"llm4em/internal/tokenize"
)

// referenceQuery is the pre-interning query implementation —
// string-keyed postings rebuilt per call, map scratch, full sort —
// kept as the semantic oracle for the hot-path rewrite. It must
// produce byte-identical rankings (order and float64 scores) to
// Index.QueryTokens over the text's Words (queryText) on any input.
func referenceQuery(records []entity.Record, stopFrac float64, text string, maxCandidates int, minScore float64) []Candidate {
	stopFrac = math.Max(stopFrac, 0)
	postings := map[string][]int{}
	for pos, r := range records {
		seen := map[string]bool{}
		for _, t := range tokenize.Words(r.Serialize()) {
			if !seen[t] {
				postings[t] = append(postings[t], pos)
				seen[t] = true
			}
		}
	}
	n := float64(len(records))
	scores := map[int]float64{}
	seen := map[string]bool{}
	for _, t := range tokenize.Words(text) {
		if seen[t] {
			continue
		}
		seen[t] = true
		post := postings[t]
		df := float64(len(post))
		if df == 0 {
			continue
		}
		if df/n > stopFrac && df >= stopMinDocs {
			continue
		}
		w := math.Log(1 + n/df)
		for _, pos := range post {
			scores[pos] += w
		}
	}
	cands := make([]Candidate, 0, len(scores))
	for pos, sc := range scores {
		if sc >= minScore {
			cands = append(cands, Candidate{Pos: pos, Score: sc})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Score != cands[j].Score {
			return cands[i].Score > cands[j].Score
		}
		return cands[i].Pos < cands[j].Pos
	})
	if maxCandidates > 0 && len(cands) > maxCandidates {
		cands = cands[:maxCandidates]
	}
	return cands
}

// queryText queries the index with the Words of a text — the split
// Add applies to the records it indexes.
func queryText(ix *Index, text string, maxCandidates int, minScore float64) []Candidate {
	return ix.QueryTokens(tokenize.Words(text), maxCandidates, minScore)
}

// randomRecords generates a collection with deliberate score ties:
// few distinct tokens, many records sharing exact token sets, so the
// top-K heap's tie-breaking is exercised hard.
func randomRecords(rng *detrand.RNG, n int) []entity.Record {
	pool := []string{"sony", "canon", "camera", "printer", "pro", "x100", "x200", "dock", "kit", "blue"}
	recs := make([]entity.Record, n)
	for i := range recs {
		k := 1 + rng.Intn(4)
		title := ""
		for w := 0; w < k; w++ {
			if w > 0 {
				title += " "
			}
			title += pool[rng.Intn(len(pool))]
		}
		recs[i] = entity.Record{
			ID:    fmt.Sprintf("r%03d", i),
			Attrs: []entity.Attr{{Name: "title", Value: title}},
		}
	}
	return recs
}

// TestQueryMatchesReference is the differential test of the query
// path: interned-ID postings + cached IDF + epoch scratch + top-K heap
// must rank byte-identically (order AND scores, including ties) to
// the map-and-sort oracle, across randomized workloads, stop-token
// settings, bounds and score floors. Twenty rounds draw tie-heavy
// 1–4-token titles; the last scores benchmark-shaped records (the WDC
// grouped corpus of bench/: 20–30 tokens, mid-frequency terms).
func TestQueryMatchesReference(t *testing.T) {
	rng := detrand.New("hotpath-differential")
	wdc, _ := wdcCorpus(t, 300)
	for round := 0; round <= 20; round++ {
		recs := wdc
		if round < 20 {
			recs = randomRecords(rng, 5+rng.Intn(60))
		}
		n := len(recs)
		stopFrac := []float64{0, 0.2, 0.5, 1}[rng.Intn(4)]
		ix := BuildIndex(recs, IndexOptions{StopDocFrac: Float(stopFrac)})
		for q := 0; q < 15; q++ {
			var text string
			if rng.Intn(3) == 0 {
				text = "unknown tokens only zzz"
			} else {
				text = recs[rng.Intn(n)].Serialize() + " " + recs[rng.Intn(n)].Serialize()
			}
			maxCandidates := []int{0, 1, 3, 10, 1000}[rng.Intn(5)]
			minScore := []float64{0, 0.5, 1.0}[rng.Intn(3)]
			got := queryText(ix, text, maxCandidates, minScore)
			want := referenceQuery(recs, stopFrac, text, maxCandidates, minScore)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d query %q (max=%d min=%v stop=%v):\n got %v\nwant %v",
					round, text, maxCandidates, minScore, stopFrac, got, want)
			}
		}
	}
}

// TestIndexQueryEmpty pins the n==0 guard: querying an empty index —
// or one emptied of matching tokens — returns nil instead of relying
// on every downstream loop tolerating the degenerate state.
func TestIndexQueryEmpty(t *testing.T) {
	ix := BuildIndex(nil, IndexOptions{})
	if got := queryText(ix, "sony camera", 10, 0); got != nil {
		t.Fatalf("empty-index Query = %v, want nil", got)
	}
	if got := ix.QueryTokens([]string{"sony"}, 10, 0); got != nil {
		t.Fatalf("empty-index QueryTokens = %v, want nil", got)
	}
	// The guard is about emptiness, not brokenness: the index works
	// normally once the first record arrives.
	ix.Add(rec("a", "sony camera"))
	if got := queryText(ix, "sony camera", 10, 0); len(got) != 1 || got[0].Pos != 0 {
		t.Fatalf("post-Add Query = %v, want the added record", got)
	}
	if got := ix.QueryTokens(nil, 10, 0); got != nil {
		t.Fatalf("nil-token query = %v, want nil", got)
	}
}

// TestAddSerializedMatchesAdd pins that handing a precomputed
// serialization to the index is exactly Add.
func TestAddSerializedMatchesAdd(t *testing.T) {
	r := rec("a", "sony camera x100")
	viaAdd := BuildIndex(nil, IndexOptions{})
	viaAdd.Add(r)
	viaText := BuildIndex(nil, IndexOptions{})
	viaText.AddSerialized(r, r.Serialize())
	a := queryText(viaAdd, "sony camera x100", 0, 0)
	b := queryText(viaText, "sony camera x100", 0, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("AddSerialized diverges from Add: %v vs %v", a, b)
	}
}

// TestQueryAllocBudget pins the scorer's allocation budget: over a warm
// scratch a query allocates exactly its result slice — no per-token or
// per-map allocation. The scratch is the test's own rather than
// QueryTokens' pooled one, because sync.Pool drops entries at random
// under the race detector.
func TestQueryAllocBudget(t *testing.T) {
	rng := detrand.New("hotpath-allocs")
	recs := randomRecords(rng, 200)
	// Ten pool words over 200 records are all stop tokens at the
	// default fraction; keep them scoring.
	ix := BuildIndex(recs, IndexOptions{StopDocFrac: Float(1)})
	text := recs[7].Serialize()
	t.Run("dense", func(t *testing.T) {
		sc := &queryScratch{}
		words := tokenize.Words(text)
		query := func() []Candidate {
			ix.tokenIDs(sc, words)
			return ix.queryIDs(sc, 5, 0)
		}
		if len(query()) != 5 { // also warms the scratch
			t.Fatal("query did not fill its top 5; the budget would be vacuous")
		}
		if avg := testing.AllocsPerRun(200, func() { query() }); avg != 1 {
			t.Fatalf("a query allocates %.1f times, want 1 (the result)", avg)
		}
	})
}

// longList is the posting count above which a list counts as long for
// the differential tests: a stream of that many deltas is decoded far
// past its first bytes.
const longList = 128

// longTerm reports whether a query scores a token whose postings hold
// more than longList entries — and, when spanning is set, whose base
// segment alone holds that many and whose tail is non-empty, so the
// scan decodes a long mapped stream and then chains into a heap
// segment.
func longTerm(ix *Index, text string, spanning bool) bool {
	sc := &queryScratch{}
	ix.tokenIDs(sc, tokenize.Words(text))
	ix.queryIDs(sc, 1, 0) // fills sc.terms with the scoring tokens
	for _, term := range sc.terms {
		if int(term.df) <= longList {
			continue
		}
		if !spanning {
			return true
		}
		if segs, n := ix.segments(term.id); n == 2 && segs[0].count > longList {
			return true
		}
	}
	return false
}

// queryRound is one collection of the differential tests with its
// stop fraction, its queries and an index over it per storage mode.
type queryRound struct {
	recs     []entity.Record
	stopFrac float64
	queries  []string
	indexes  map[string]*Index
}

// queryRounds draws eight tie-heavy collections of 8 to 1 200 records
// and indexes each three ways: "fresh" built, "mapped" from its
// snapshot, and "overlay".
func queryRounds(t *testing.T, rng *detrand.RNG) []queryRound {
	var rounds []queryRound
	for r := 0; r < 8; r++ {
		n, minStop := []int{8, 90, 700}[r%3], 0.0
		if r >= 6 {
			// At 1 200 records each of randomRecords' ten pool words
			// sits in about a fifth of the titles, a stop token below a
			// 0.5 fraction; keep them scoring.
			n, minStop = 1200, 0.5
		}
		recs := randomRecords(rng, n)
		stopFrac := math.Max([]float64{0, 0.2, 0.5, 1}[rng.Intn(4)], minStop)
		opts := IndexOptions{StopDocFrac: Float(stopFrac)}
		open := func(ix *Index) *Index {
			m, err := OpenMapped(writeTestSnapshot(t, ix), opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { m.Close() })
			return m
		}
		// The overlay index maps the first two thirds and Adds the rest,
		// so its posting lists span a mapped and a heap segment.
		overlay := open(BuildIndex(recs[:2*n/3], opts))
		for _, rec := range recs[2*n/3:] {
			overlay.Add(rec)
		}
		fresh := BuildIndex(recs, opts)
		queries := []string{"unknown tokens only zzz"}
		for q := 0; q < 4; q++ {
			queries = append(queries, recs[rng.Intn(n)].Serialize()+" "+recs[rng.Intn(n)].Serialize())
		}
		rounds = append(rounds, queryRound{recs, stopFrac, queries,
			map[string]*Index{"fresh": fresh, "mapped": open(fresh), "overlay": overlay}})
	}
	return rounds
}

// TestQueryCutoverMatchesReference pins the scorer byte-identical to
// the reference oracle on every storage mode: fresh, mapped and
// mapped-with-overlay indexes must rank exactly as referenceQuery for
// every K — zero is unbounded — and every score floor, on tie-heavy
// collections. The 1 200-record rounds grow long posting lists: the
// test fails unless some scoring token's df exceeds longList on every
// index, and on the overlay one unless such a token's postings run from
// a long mapped segment into a heap segment.
func TestQueryCutoverMatchesReference(t *testing.T) {
	rounds := queryRounds(t, detrand.New("cutover-differential"))
	t.Run("dense", func(t *testing.T) {
		long := map[string]bool{}
		for ri, r := range rounds {
			for _, text := range r.queries {
				for label, ix := range r.indexes {
					if longTerm(ix, text, label == "overlay") {
						long[label] = true
					}
				}
				for _, k := range []int{0, 1, 3, 10, 1000} {
					for _, minScore := range []float64{0, 0.5, 1} {
						want := referenceQuery(r.recs, r.stopFrac, text, k, minScore)
						for label, ix := range r.indexes {
							got := queryText(ix, text, k, minScore)
							if len(got) == 0 && len(want) == 0 {
								continue
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("round %d %s query %q (max=%d min=%v stop=%v):\n got %v\nwant %v",
									ri, label, text, k, minScore, r.stopFrac, got, want)
							}
						}
					}
				}
			}
		}
		for _, label := range []string{"fresh", "mapped", "overlay"} {
			if !long[label] {
				t.Errorf("%s: no query scored a token with more than %d postings; the long streams went untested", label, longList)
			}
		}
	})
}

// TestSharedScratchMatchesReference pins the one accumulator that
// serves every index: queries on the 8- to 1 200-record indexes of
// every storage mode (built, mapped, mapped plus tail) interleave
// through a single scratch, so each query runs over the scores and
// marks that another index's query left, past its own records too, and
// must still rank exactly as referenceQuery. The epoch is set to wrap
// on the first of them, so its clear also runs between indexes.
func TestSharedScratchMatchesReference(t *testing.T) {
	rounds := queryRounds(t, detrand.New("shared-scratch"))
	rng := detrand.New("shared-scratch-order")
	type key struct {
		round, query, k int
		minScore        float64
	}
	want := map[key][]Candidate{}
	// Sized first by the largest index, the accumulator must then serve
	// every smaller one as it is.
	sc := &queryScratch{}
	largest := rounds[len(rounds)-1].indexes["fresh"]
	largest.tokenIDs(sc, tokenize.Words(rounds[len(rounds)-1].queries[1]))
	largest.queryIDs(sc, 1, 0)
	size := len(sc.scores)
	// The first interleaved query, unbounded on the other 1 200-record
	// collection, wraps the epoch over the marks that one left.
	sc.cur = math.MaxUint32
	for step := 0; step < 600; step++ {
		kq := key{rng.Intn(len(rounds)), rng.Intn(5), []int{0, 1, 3, 10, 1000}[rng.Intn(5)], []float64{0, 0.5, 1}[rng.Intn(3)]}
		if step == 0 {
			kq = key{len(rounds) - 2, 1, 0, 0}
		}
		r := rounds[kq.round]
		text := r.queries[kq.query]
		label := []string{"fresh", "mapped", "overlay"}[rng.Intn(3)]
		ix := r.indexes[label]
		ix.tokenIDs(sc, tokenize.Words(text))
		got := ix.queryIDs(sc, kq.k, kq.minScore)
		if len(sc.scores) != size {
			t.Fatalf("step %d: a %d-record index regrew the accumulator from %d to %d", step, ix.Len(), size, len(sc.scores))
		}
		w, ok := want[kq]
		if !ok {
			w = referenceQuery(r.recs, r.stopFrac, text, kq.k, kq.minScore)
			want[kq] = w
		}
		if (len(got) != 0 || len(w) != 0) && !reflect.DeepEqual(got, w) {
			t.Fatalf("step %d round %d %s (%d records) query %q (max=%d min=%v):\n got %v\nwant %v",
				step, kq.round, label, ix.Len(), text, kq.k, kq.minScore, got, w)
		}
	}
}

// TestSharedScratchConcurrent queries several indexes from several
// goroutines at once through QueryTokens' one scratch pool (meant for
// -race, which CI runs twenty times): a scratch lent to two queries at
// once, or handed back while in use, would corrupt a ranking.
func TestSharedScratchConcurrent(t *testing.T) {
	rounds := queryRounds(t, detrand.New("shared-scratch-concurrent"))
	type query struct {
		ix    *Index
		words []string
		want  []Candidate
	}
	var queries []query
	for _, r := range rounds {
		for _, text := range r.queries {
			want := referenceQuery(r.recs, r.stopFrac, text, 10, 0)
			for _, ix := range r.indexes {
				queries = append(queries, query{ix, tokenize.Words(text), want})
			}
		}
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 3 * len(queries) {
				q := queries[(g*31+k*7)%len(queries)]
				if got := q.ix.QueryTokens(q.words, 10, 0); (len(got) != 0 || len(q.want) != 0) && !reflect.DeepEqual(got, q.want) {
					t.Errorf("goroutine %d, %d records: got %v\nwant %v", g, q.ix.Len(), got, q.want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
