package blocking

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"llm4em/internal/detrand"
	"llm4em/internal/entity"
	"llm4em/internal/tokenize"
)

// referenceQuery is the pre-interning Index.Query implementation —
// string-keyed postings rebuilt per call, map scratch, full sort —
// kept as the semantic oracle for the hot-path rewrite. It must
// produce byte-identical rankings (order and float64 scores) to
// Index.Query on any input.
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
			got := ix.Query(text, maxCandidates, minScore)
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

// TestQueryTokensMatchesQuery: the pre-split fanout entry point must
// be exactly Query over the same text.
func TestQueryTokensMatchesQuery(t *testing.T) {
	rng := detrand.New("hotpath-tokens")
	recs := randomRecords(rng, 40)
	ix := BuildIndex(recs, IndexOptions{})
	for q := 0; q < 25; q++ {
		text := recs[rng.Intn(len(recs))].Serialize() + " Extra-Words x100"
		got := ix.QueryTokens(tokenize.Words(text), 5, 0)
		want := ix.Query(text, 5, 0)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %q: QueryTokens %v != Query %v", text, got, want)
		}
	}
}

// TestIndexQueryEmpty pins the n==0 guard: querying an empty index —
// or one emptied of matching tokens — returns nil instead of relying
// on every downstream loop tolerating the degenerate state.
func TestIndexQueryEmpty(t *testing.T) {
	ix := BuildIndex(nil, IndexOptions{})
	if got := ix.Query("sony camera", 10, 0); got != nil {
		t.Fatalf("empty-index Query = %v, want nil", got)
	}
	if got := ix.QueryTokens([]string{"sony"}, 10, 0); got != nil {
		t.Fatalf("empty-index QueryTokens = %v, want nil", got)
	}
	// The guard is about emptiness, not brokenness: the index works
	// normally once the first record arrives.
	ix.Add(rec("a", "sony camera"))
	if got := ix.Query("sony camera", 10, 0); len(got) != 1 || got[0].Pos != 0 {
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
	a := viaAdd.Query("sony camera x100", 0, 0)
	b := viaText.Query("sony camera x100", 0, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("AddSerialized diverges from Add: %v vs %v", a, b)
	}
}

// forceCursorPath makes every query of the test take the
// document-at-a-time scorer an index above denseScoreRecords uses.
func forceCursorPath(tb testing.TB) {
	old := denseScoreRecords
	denseScoreRecords = 0
	tb.Cleanup(func() { denseScoreRecords = old })
}

// TestQueryAllocBudget pins the allocation budget of both scorers:
// over a warm scratch a query allocates exactly its result slice — no
// per-token, per-cursor or per-map allocation. The scratch is the
// test's own rather than Query's pooled one, because sync.Pool drops
// entries at random under the race detector.
func TestQueryAllocBudget(t *testing.T) {
	rng := detrand.New("hotpath-allocs")
	recs := randomRecords(rng, 200)
	// Ten pool words over 200 records are all stop tokens at the
	// default fraction; keep them scoring.
	ix := BuildIndex(recs, IndexOptions{StopDocFrac: Float(1)})
	text := recs[7].Serialize()
	for _, side := range []string{"dense", "cursor"} {
		t.Run(side, func(t *testing.T) {
			if side == "cursor" {
				forceCursorPath(t)
			}
			sc := &queryScratch{}
			query := func() []Candidate {
				sc.ids, sc.buf = ix.vocab.AppendKnownIDs(sc.ids[:0], sc.buf, text)
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
}

// TestQueryCutoverMatchesReference pins both sides of the one scorer
// cutover byte-identical to the reference oracle on every storage
// mode: with denseScoreRecords at its default (the dense scan) and
// forced below the collection size (the cursor path a large index
// takes), fresh, mapped and mapped-with-overlay indexes must rank
// exactly as referenceQuery for every K — zero is the unbounded cursor
// merge — and every score floor, on tie-heavy collections large enough
// to seal posting blocks.
func TestQueryCutoverMatchesReference(t *testing.T) {
	rng := detrand.New("cutover-differential")
	type round struct {
		recs     []entity.Record
		stopFrac float64
		queries  []string
		indexes  map[string]*Index
	}
	var rounds []round
	for r := 0; r < 6; r++ {
		n := []int{8, 90, 700}[r%3]
		recs := randomRecords(rng, n)
		stopFrac := []float64{0, 0.2, 0.5, 1}[rng.Intn(4)]
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
		rounds = append(rounds, round{recs, stopFrac, queries,
			map[string]*Index{"fresh": fresh, "mapped": open(fresh), "overlay": overlay}})
	}
	for _, side := range []string{"dense", "cursor"} {
		t.Run(side, func(t *testing.T) {
			if side == "cursor" {
				forceCursorPath(t)
			}
			for ri, r := range rounds {
				for _, text := range r.queries {
					for _, k := range []int{0, 1, 3, 10, 1000} {
						for _, minScore := range []float64{0, 0.5, 1} {
							want := referenceQuery(r.recs, r.stopFrac, text, k, minScore)
							for label, ix := range r.indexes {
								got := ix.Query(text, k, minScore)
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
		})
	}
}
