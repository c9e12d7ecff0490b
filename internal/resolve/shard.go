package resolve

import (
	"hash/fnv"
	"sync"

	"llm4em/internal/blocking"
	"llm4em/internal/entity"
	"llm4em/internal/features"
)

// shard is one partition of the record store and its inverted index,
// which owns the shard's records: ix.RecordPos finds a stored ID,
// ix.Record decodes it. Records route to shards by ID hash, so
// concurrent Adds contend only per shard; Resolves read every shard
// under its read lock.
type shard struct {
	mu sync.RWMutex
	// ix is assigned at construction and afterwards only by install.
	ix *blocking.Index
	// ext caches each record's feature extraction, packed
	// (features.Packed), position-aligned with ix, so the cascade
	// scores candidates without re-extracting (or re-serializing) them
	// on every Resolve. A slot stays zero until the record is first
	// scored as a resolve candidate and extract fills it, whether the
	// record was added, replayed or mapped. Slots are values: read
	// under the read lock, published once under the write lock, and
	// never changed after.
	ext []features.Packed
	// cached counts the filled slots of ext.
	cached int
}

// insertLocked indexes one pre-serialized record. The caller holds mu
// (or has exclusive access during recovery) and has already rejected
// duplicates.
func (sh *shard) insertLocked(r entity.Record, text string) {
	sh.ix.AddSerialized(r, text)
	sh.ext = append(sh.ext, features.Packed{})
}

// install makes ix — an index file's mapping holding a prefix of the
// shard's records — the shard's index, under the write lock: the
// records the current index holds past ix.Len() are re-added to ix's
// tail, and ext grows to cover ix. Positions are stable, so every ext
// slot survives. It returns the replaced index, for the caller to
// close once no query can hold it.
func (sh *shard) install(ix *blocking.Index) *blocking.Index {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old := sh.ix
	for pos := ix.Len(); pos < old.Len(); pos++ {
		r := old.Record(pos)
		ix.AddSerialized(r, r.Serialize())
	}
	sh.ix = ix
	if n := ix.Len() - len(sh.ext); n > 0 {
		sh.ext = append(sh.ext, make([]features.Packed, n)...)
	}
	return old
}

// collect queries one shard for blocking candidates and copies their
// IDs, scores and positions out under the read lock, appending to dst
// (a reusable buffer owned by the caller). No record is decoded here:
// the merge ranks by (score, ID), and decode fills only its survivors.
// words is the pre-split query tokenization shared by every shard; the
// score floor is DefaultMinScore.
func (sh *shard) collect(dst []scored, qid string, words []string, maxCandidates int) []scored {
	sh.mu.RLock()
	for _, c := range sh.ix.QueryTokens(words, maxCandidates, DefaultMinScore) {
		id := sh.ix.RecordID(c.Pos)
		if id == qid {
			continue // re-resolving an added record
		}
		dst = append(dst, scored{rec: entity.Record{ID: id}, sh: sh, score: c.Score, pos: c.Pos})
	}
	sh.mu.RUnlock()
	return dst
}

// decode fills a merged candidate's record and cached extraction (zero
// until the score stage extracts it) under the read lock. Positions
// are stable across install, so the candidate's position still names
// its record.
func (sh *shard) decode(c *scored) {
	sh.mu.RLock()
	c.rec = sh.ix.Record(c.pos)
	c.ext = sh.ext[c.pos]
	sh.mu.RUnlock()
}

// extract fills a candidate's extraction the first time a resolve
// scores it. Extraction (pure, deterministic) runs outside any lock;
// the result publishes under a brief write lock with a double-check,
// so concurrent Resolves racing on the same cold record converge on
// one cached extraction.
func (sh *shard) extract(c *scored) {
	p := features.Pack(features.ExtractText(c.rec.Serialize()))
	sh.mu.Lock()
	if sh.ext[c.pos].IsZero() {
		sh.ext[c.pos] = p
		sh.cached++
	}
	c.ext = sh.ext[c.pos]
	sh.mu.Unlock()
}

// scored is one blocking candidate copied out of a shard: the record,
// its cached feature extraction (zero until extracted), the
// summed-IDF blocking score and the shard and index position it came
// from. Until blockCandidates decodes the merged survivors, rec holds
// only the ID and ext is zero.
type scored struct {
	rec   entity.Record
	ext   features.Packed
	sh    *shard
	score float64
	pos   int
}

// resolveScratch pools the per-shard candidate buffers of
// blockCandidates and the candidate extractions planFresh expands.
// Only buffers are pooled: the merged result holds value copies, and
// the expansions are dead once the plan is made, so handing the
// scratch back never aliases a returned candidate or decision.
type resolveScratch struct {
	perShard [][]scored
	// exts holds the expanded extractions of one resolve's fresh
	// candidates; toks is the arena their token lists are cut from.
	exts []features.Extracted
	toks []string
}

// blockCandidates queries every shard in turn with the pre-tokenized
// query, merges the per-shard ranked lists into the global top
// MaxCandidates and decodes only those survivors.
func (s *Store) blockCandidates(qid string, words []string) []scored {
	sc := s.rscratch.Get().(*resolveScratch)
	if len(sc.perShard) != len(s.shards) {
		sc.perShard = make([][]scored, len(s.shards))
	}
	perShard := sc.perShard
	for i, sh := range s.shards {
		perShard[i] = sh.collect(perShard[i][:0], qid, words, s.opts.MaxCandidates)
	}
	out := mergeTopK(perShard, s.opts.MaxCandidates)
	s.rscratch.Put(sc)
	for i := range out {
		out[i].sh.decode(&out[i])
	}
	return out
}

// scoredBefore is the global candidate order: score descending, ties
// broken by ascending record ID (IDs are unique across shards).
func scoredBefore(a, b scored) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.rec.ID < b.rec.ID
}

// mergeTopK selects the global top-K from the per-shard candidate
// lists with the shared bounded-heap selection — the same result
// sorting everything and truncating produced, without the global
// sort.
func mergeTopK(perShard [][]scored, k int) []scored {
	total := 0
	for _, cs := range perShard {
		total += len(cs)
	}
	if total == 0 {
		return nil
	}
	if k > total {
		k = total
	}
	h := make([]scored, 0, k)
	for _, cs := range perShard {
		for _, c := range cs {
			h = blocking.PushBounded(h, k, c, scoredBefore)
		}
	}
	blocking.SortTopK(h, scoredBefore)
	return h
}

// shardIndex routes a record ID to its shard slot.
func (s *Store) shardIndex(id string) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// shardFor routes a record ID to its shard.
func (s *Store) shardFor(id string) *shard { return s.shards[s.shardIndex(id)] }
