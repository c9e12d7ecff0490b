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
}

// install makes ix — an index file's mapping holding a prefix of the
// shard's records — the shard's index, under the write lock: the
// records the current index holds past ix.Len() are re-added to ix's
// tail, so positions stay stable. It returns the replaced index, for
// the caller to close once no query can hold it.
func (sh *shard) install(ix *blocking.Index) *blocking.Index {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old := sh.ix
	for pos := ix.Len(); pos < old.Len(); pos++ {
		r := old.Record(pos)
		ix.AddSerialized(r, r.Serialize())
	}
	sh.ix = ix
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

// decode fills a merged candidate's record under the read lock.
// Positions are stable across install, so the candidate's position
// still names its record.
func (sh *shard) decode(c *scored) {
	sh.mu.RLock()
	c.rec = sh.ix.Record(c.pos)
	sh.mu.RUnlock()
}

// scored is one blocking candidate copied out of a shard: the record,
// the summed-IDF blocking score and the shard and index position it
// came from. Until blockCandidates decodes the merged survivors, rec
// holds only the ID.
type scored struct {
	rec   entity.Record
	sh    *shard
	score float64
	pos   int
}

// resolveScratch pools the per-shard candidate buffers of
// blockCandidates and the candidate extractions planFresh makes. Only
// buffers are pooled: the merged result holds value copies, and the
// extractions are dead once the plan is made, so handing the scratch
// back never aliases a returned candidate or decision.
type resolveScratch struct {
	perShard [][]scored
	// exts holds the extractions of one resolve's fresh candidates;
	// toks is the arena their token lists are cut from.
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
