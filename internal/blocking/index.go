package blocking

import (
	"math"
	"sync"

	"llm4em/internal/entity"
	"llm4em/internal/telemetry"
	"llm4em/internal/tokenize"
)

// Index is an inverted IDF token index over a record collection:
// build it (or grow it with Add) once and query it many times. The
// online resolution store keeps one per shard and amortizes
// construction.
//
// There is one postings representation: token strings map to dense
// uint32 IDs and each token's ascending record positions are a
// delta+varint stream (postings.go). There is one scorer: the
// exhaustive term-at-a-time scan over a pooled flat accumulator
// (queryDense), which one pool lends to every index's queries, and
// results come from top-K heap selection. QueryTokens, the one query
// entry point, allocates only the returned slice.
//
// There is one layout: an immutable base plus one heap tail. The base
// is the mmap'ed EMIX snapshot of OpenFS (snapshot.go) — reopening
// at 10M records costs milliseconds, not an ingest replay — or an
// empty base for BuildIndex. Every Add lands in the tail, whose
// postings chain onto the base's streams, so every read, write and
// snapshot path runs the same code however the index was created.
// The index owns its records: Record and RecordID decode them, and
// RecordPos finds any of them by ID, the base through its on-disk hash
// and the tail through an ID map kept beside it. The
// tail is sparse: it holds postings only for the tokens an Add touched,
// so its heap tracks the records added since the base, not the base's
// vocabulary. The resolve store leans on that: each checkpoint makes
// the file it just wrote a shard's new base, leaving in the tail only
// the records added since.
//
// Token weights are derived from document frequencies at query time
// (IDF = log(1 + n/df)), so an Index stays correct as records are
// added: a token that was rare can become a stop token later without
// any rebuild. Stop tokens — tokens occurring in more than StopDocFrac
// of the records and in at least stopMinDocs of them — are skipped
// when scoring.
//
// An Index is not safe for concurrent mutation; guard Add against
// concurrent QueryTokens with a lock (internal/resolve shards do).
// Concurrent queries are safe with each other.
type Index struct {
	stopFrac float64
	// base owns token IDs below base.nTokens and positions below
	// base.nRecords. vocab interns the tokens first seen since, their
	// IDs offset by base.nTokens; records holds the records added
	// since, their positions offset by base.nRecords, and ids the
	// first of those positions for each of their IDs.
	base    *mappedIndex
	vocab   *tokenize.Vocab
	records []entity.Record
	ids     map[string]int32
	// The tail, keyed by touched token: posts holds the postings of
	// the tokens new since the base, by ID - base.nTokens; basePosts
	// those of the base tokens an Add touched.
	posts     []postingList
	basePosts map[uint32]*postingList
	// slab hands out basePosts' lists, tailSlab at a time.
	slab []postingList
	// addScan is the tokenizer of Add (mutation path, so one shared
	// scanner is safe).
	addScan tokenize.Scanner
	// met instruments the query hot path; the zero value is disabled.
	// Per-query work is counted into locals and flushed with one
	// atomic add per counter at the end of the query.
	met telemetry.BlockingMetrics
}

// SetMetrics wires telemetry instruments into the index. Call before
// the index serves concurrent queries (the resolve store does, at
// construction).
func (ix *Index) SetMetrics(m telemetry.BlockingMetrics) { ix.met = m }

// stopMinDocs is the absolute document-frequency floor below which a
// token is never treated as a stop token, so tiny collections keep
// their vocabulary.
const stopMinDocs = 5

// queryScratch is the reusable per-query state: the token IDs with
// their dedupe set, the flat score accumulator with its epoch marks,
// the touched-position list and the top-K heap.
//
// Every index draws it from queryPool, so a query in flight holds one
// accumulator whichever index it scores. The resolve store queries its
// shards one after another, so a resolve holds one accumulator sized
// to the largest shard, not one per shard. Each query bumps the epoch,
// so the marks another index's query left are stale.
type queryScratch struct {
	ids     []uint32
	set     []uint32
	terms   []scoreTerm
	scores  []float64
	epoch   []uint32
	cur     uint32
	touched []int32
	heap    []Candidate
	idf     [1 << idfMemoBits]idfMemo
}

// idfMemo is a remembered IDF weight, log(1 + n/df), with the record
// count n and document frequency df it was computed at. A weight
// depends on a token only through its df, so one entry serves every
// token of that df in any index of n records, and a scratch holds a
// fixed 1<<idfMemoBits of them however large the indexes it serves.
type idfMemo struct {
	n, df int32
	w     float64
}

// idfMemoBits sizes a scratch's IDF memo: 4 KB, room for the distinct
// document frequencies of a query on each of a store's shards.
const idfMemoBits = 8

// weight returns log(1 + n/df), from the memo when its slot holds the
// same (n, df). The zero entry never matches: queried tokens have
// df > 0.
func (sc *queryScratch) weight(n, df int32) float64 {
	e := &sc.idf[(uint32(df)*0x9e3779b1+uint32(n)*0x85ebca6b)>>(32-idfMemoBits)]
	if e.n != n || e.df != df {
		*e = idfMemo{n, df, math.Log(1 + float64(n)/float64(df))}
	}
	return e.w
}

// queryPool lends every index its query scratch, so concurrent
// queries do not contend and repeated ones do not allocate.
var queryPool = sync.Pool{New: func() any { return new(queryScratch) }}

// scoreTerm is one deduplicated, stop-filtered query token with its
// document frequency — the input of the scorer.
type scoreTerm struct {
	id uint32
	df int32
}

// BuildIndex builds an index over the records with the given options
// (the zero IndexOptions selects all defaults): an empty base, every
// record in the tail. To serve an index out of an mmap'ed snapshot
// instead of rebuilding, see OpenFS.
func BuildIndex(records []entity.Record, opts IndexOptions) *Index {
	ix := newIndex(emptyBase(), opts)
	ix.records = make([]entity.Record, 0, len(records))
	for _, r := range records {
		ix.Add(r)
	}
	return ix
}

// newIndex returns an index over base with an empty tail.
func newIndex(base *mappedIndex, opts IndexOptions) *Index {
	return &Index{
		stopFrac:  opts.stopDocFrac(),
		base:      base,
		vocab:     tokenize.NewVocab(),
		ids:       map[string]int32{},
		basePosts: map[uint32]*postingList{},
	}
}

// Add appends one record to the index and returns its position.
func (ix *Index) Add(r entity.Record) int {
	return ix.AddSerialized(r, r.Serialize())
}

// AddSerialized appends a record whose serialized text the caller
// already computed (it must equal r.Serialize()), sparing the index a
// re-serialization — the resolve store serializes before it takes the
// shard lock, so only the insert itself runs under it. Each token keeps
// its base ID when the base holds it and is interned into the vocab
// otherwise.
func (ix *Index) AddSerialized(r entity.Record, text string) int {
	pos := int32(ix.Len())
	ix.records = append(ix.records, r)
	if _, ok := ix.ids[r.ID]; !ok {
		ix.ids[r.ID] = pos
	}
	sc := &ix.addScan
	sc.Reset(text, sc.Buf())
	for tok, ok := sc.Next(); ok; tok, ok = sc.Next() {
		id, known := ix.base.lookup(tok)
		if !known {
			id = ix.base.nTokens + ix.vocab.IDBytes(tok)
		}
		pl := ix.tail(id)
		// First occurrence per record only: df counts documents, and a
		// repeat is a tail already ending at this record.
		if pl.df > 0 && pl.lastPos == pos {
			continue
		}
		pl.add(pos, ix.overlayBase(id))
	}
	return int(pos)
}

// tail returns a token's tail for an Add, creating it on first touch.
func (ix *Index) tail(id uint32) *postingList {
	b := ix.base.nTokens
	if id >= b {
		ix.posts = grow(ix.posts, int(id-b)+1)
		return &ix.posts[id-b]
	}
	pl := ix.basePosts[id]
	if pl == nil {
		if len(ix.slab) == cap(ix.slab) {
			ix.slab = make([]postingList, 0, tailSlab)
		}
		ix.slab = ix.slab[:len(ix.slab)+1]
		pl = &ix.slab[len(ix.slab)-1]
		ix.basePosts[id] = pl
	}
	return pl
}

// tailSlab is the number of base-token tails one allocation holds.
const tailSlab = 256

// tailOf returns a known token's tail: nil for a base token no Add
// touched. Every new token got its slot from the Add that interned it.
func (ix *Index) tailOf(id uint32) *postingList {
	if b := ix.base.nTokens; id >= b {
		return &ix.posts[id-b]
	}
	return ix.basePosts[id]
}

// grow extends s with zero values to at least n elements.
func grow[T any](s []T, n int) []T {
	if n > len(s) {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// tokenDF returns the document frequency of a token across the base
// and the tail.
func (ix *Index) tokenDF(id uint32) int {
	df := int(ix.base.tokenDF(id))
	if pl := ix.tailOf(id); pl != nil {
		df += int(pl.df)
	}
	return df
}

// overlayBase returns the delta base of a token's tail: the base
// segment's last position, or -1 when the base holds no postings of
// the token.
func (ix *Index) overlayBase(id uint32) int32 {
	if ix.base.tokenDF(id) > 0 {
		return ix.base.tokenLastPos(id)
	}
	return -1
}

// segments returns a token's non-empty posting segments in position
// order — the base's, then the tail's — and how many there are.
func (ix *Index) segments(id uint32) (segs [2]segView, n int) {
	if s := ix.base.tokenSeg(id); s.count > 0 {
		segs[n] = s
		n++
	}
	if pl := ix.tailOf(id); pl != nil && pl.df > 0 {
		segs[n] = pl.seg(ix.overlayBase(id))
		n++
	}
	return segs, n
}

// Len returns the number of indexed records.
func (ix *Index) Len() int { return int(ix.base.nRecords) + len(ix.records) }

// TailLen returns the number of records held on the heap: those added
// since the base (every record of a built index).
func (ix *Index) TailLen() int { return len(ix.records) }

// Record returns the record at an index position. Base positions
// decode from the map per call — bounded queries surface only the top
// K, so callers touch a handful per query.
func (ix *Index) Record(pos int) entity.Record {
	if b := int(ix.base.nRecords); pos >= b {
		return ix.records[pos-b]
	}
	return ix.base.record(pos)
}

// Candidate is one query result: an index position and its summed IDF
// overlap score.
type Candidate struct {
	Pos   int
	Score float64
}

// QueryTokens scores the indexed records against pre-split tokens —
// tokenize.Words of the query text, the split Add applies — by
// IDF-weighted token overlap and returns candidates with score >=
// minScore, ranked by decreasing score (ties broken by position).
// maxCandidates bounds the result; zero or negative means unbounded.
// Duplicate tokens are ignored. Callers resolving one text against many
// indexes — the sharded store — tokenize once and fan the tokens out.
func (ix *Index) QueryTokens(tokens []string, maxCandidates int, minScore float64) []Candidate {
	if ix.Len() == 0 || len(tokens) == 0 {
		return nil
	}
	sc := queryPool.Get().(*queryScratch)
	ix.tokenIDs(sc, tokens)
	out := ix.queryIDs(sc, maxCandidates, minScore)
	queryPool.Put(sc)
	return out
}

// tokenIDs maps tokens into sc.ids: each token's base ID, else its
// vocab ID. Tokens the index has never seen are skipped (zero document
// frequency). Read-only on the index.
func (ix *Index) tokenIDs(sc *queryScratch, tokens []string) {
	sc.ids = sc.ids[:0]
	for _, t := range tokens {
		if id, ok := ix.base.lookupString(t); ok {
			sc.ids = append(sc.ids, id)
		} else if id, ok := ix.vocab.Lookup(t); ok {
			sc.ids = append(sc.ids, ix.base.nTokens+id)
		}
	}
}

// queryIDs scores the postings of sc.ids and selects the ranked
// result. Read-only on the index, so concurrent queries are safe; sc
// is owned by this call. The differential tests pin its rankings to a
// map-and-sort reference scan.
func (ix *Index) queryIDs(sc *queryScratch, maxCandidates int, minScore float64) []Candidate {
	n := ix.Len()
	nf := float64(n)

	// Deduplicate the query tokens and drop unknown and stop tokens
	// (frequent both relatively and absolutely, so tiny collections
	// keep their vocabulary).
	sc.dedupe()
	terms := sc.terms[:0]
	var stopSkipped uint64
	for _, id := range sc.ids {
		df := ix.tokenDF(id)
		if df == 0 {
			continue
		}
		if float64(df)/nf > ix.stopFrac && df >= stopMinDocs {
			stopSkipped++
			continue
		}
		terms = append(terms, scoreTerm{id: id, df: int32(df)})
	}
	sc.terms = terms

	// An unbounded query is a bounded one whose heap never fills.
	if maxCandidates <= 0 {
		maxCandidates = math.MaxInt
	}
	return ix.queryDense(sc, maxCandidates, minScore, stopSkipped)
}

// queryDense is the exhaustive term-at-a-time scorer: every posting of
// every term in sc.terms is added into a flat per-record accumulator,
// epoch-marked so nothing is cleared between queries, and the touched
// records go through the top-K heap. Each segment is decoded inline.
// The accumulator costs 12 bytes a record (score and epoch) of the
// largest index the scratch has served; the scorer section of
// docs/ARCHITECTURE.md gives the measurements behind accepting that.
func (ix *Index) queryDense(sc *queryScratch, maxCandidates int, minScore float64, stopSkipped uint64) []Candidate {
	n := ix.Len()
	if len(sc.scores) < n {
		// No mark outlives its query, so a grown accumulator starts
		// zeroed instead of copying. The eighth of headroom spares the
		// next Adds, and a shard a little larger than the last one
		// queried, another allocation.
		sc.scores = make([]float64, n+n/8)
		sc.epoch = make([]uint32, len(sc.scores))
	}
	sc.cur++
	if sc.cur == 0 { // epoch wrap: stale marks would alias
		clear(sc.epoch)
		sc.cur = 1
	}
	touched := sc.touched[:0]

	// Hot-path accounting stays in registers until the single flush
	// below — enabled telemetry costs integer adds, never atomics in
	// the scoring loop.
	var scanned, heapPushes uint64

	for _, t := range sc.terms {
		scanned += uint64(t.df)
		w := sc.weight(int32(n), t.df)
		segs, ns := ix.segments(t.id)
		for i := range segs[:ns] {
			s := &segs[i]
			pos, off := s.base, 0
			for range s.count {
				d, m := uvarint(s.stream, off)
				off += m
				pos += int32(d)
				if sc.epoch[pos] != sc.cur {
					sc.epoch[pos] = sc.cur
					sc.scores[pos] = w
					touched = append(touched, pos)
				} else {
					sc.scores[pos] += w
				}
			}
		}
	}
	sc.touched = touched

	// Keep the top K in a min-heap rooted at the worst kept candidate,
	// then sort the heap into rank order: score descending, position
	// ascending on ties — byte-identical to sort-then-truncate.
	h := sc.heap[:0]
	for _, pos := range touched {
		s := sc.scores[pos]
		if s < minScore {
			continue
		}
		heapPushes++
		h = PushBounded(h, maxCandidates, Candidate{Pos: int(pos), Score: s}, candidateBefore)
	}
	sc.heap = h[:0]
	ix.met.Queries.Inc()
	ix.met.PostingsScanned.Add(scanned)
	ix.met.StopTokensSkipped.Add(stopSkipped)
	ix.met.HeapPushes.Add(heapPushes)
	return rankedCopy(h)
}

// dedupe drops repeated token IDs from sc.ids, keeping first
// occurrences in order (scores are summed in that order). The set is
// open-addressing over at least twice the query's tokens, cleared per
// query, so the pass is O(q) however long an untrusted query is.
func (sc *queryScratch) dedupe() {
	bits := 4
	for 1<<bits < 2*len(sc.ids) {
		bits++
	}
	sc.set = grow(sc.set, 1<<bits)
	set := sc.set[:1<<bits]
	clear(set)
	mask := uint32(len(set) - 1)
	kept := sc.ids[:0]
	for _, id := range sc.ids {
		i := id * 0x9e3779b1 >> (32 - bits) // Fibonacci hashing
		for set[i] != 0 && set[i] != id+1 {
			i = (i + 1) & mask
		}
		if set[i] == 0 {
			set[i] = id + 1
			kept = append(kept, id)
		}
	}
	sc.ids = kept
}

// rankedCopy sorts a top-K heap into rank order and returns it as the
// query's one allocation (nil for an empty result).
func rankedCopy(h []Candidate) []Candidate {
	if len(h) == 0 {
		return nil
	}
	SortTopK(h, candidateBefore)
	out := make([]Candidate, len(h))
	copy(out, h)
	return out
}

// candidateBefore is the ranking order: score descending, ties broken
// by ascending position.
func candidateBefore(a, b Candidate) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Pos < b.Pos
}
