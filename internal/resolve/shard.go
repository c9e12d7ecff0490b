package resolve

import (
	"hash/fnv"
	"sync"

	"llm4em/internal/blocking"
	"llm4em/internal/entity"
	"llm4em/internal/features"
)

// shard is one partition of the record store and its inverted index.
// Records route to shards by ID hash, so concurrent Adds contend only
// per shard; Resolves read every shard under its read lock.
type shard struct {
	mu sync.RWMutex
	ix *blocking.Index
	// live maps the IDs of records inserted since the store was built
	// or opened to their positions in ix. The mapped base of a restarted
	// store is not in it: posLocked asks the snapshot's on-disk ID hash.
	live map[string]int32
	// ext caches each record's feature extraction, position-aligned
	// with ix, so the cascade scores candidates without re-extracting
	// (or re-serializing) them on every Resolve. It keeps what
	// features.Extracted.Stored keeps — no Raw, no Tokens beside
	// TitleTokens — so a record's text dies with its ingest. Entries
	// stay nil while extraction is deferred (Options.DeferExtraction,
	// any record behind a mapped restart) until fillExtracted fills
	// them. Pointers are handed out to queries and stay valid across
	// append growth; what they point to is immutable once stored.
	ext []*features.Extracted
	// cached counts the non-nil entries of ext.
	cached int
}

// insertLocked indexes one pre-serialized record (ext may be nil for
// deferred extraction). The caller holds mu (or has exclusive access
// during recovery) and has already rejected duplicates.
func (sh *shard) insertLocked(r entity.Record, text string, ext *features.Extracted) {
	sh.live[r.ID] = int32(sh.ix.AddSerialized(r, text))
	sh.ext = append(sh.ext, ext)
	if ext != nil {
		sh.cached++
	}
}

// posLocked returns the index position of a stored record ID —
// inserted live, or part of the mapped base. Caller holds mu.
func (sh *shard) posLocked(id string) (int, bool) {
	if pos, ok := sh.live[id]; ok {
		return int(pos), true
	}
	return sh.ix.RecordPos(id)
}

// collect queries one shard for blocking candidates and copies the
// matching records out under the read lock, appending to dst (a
// reusable buffer owned by the caller). words is the pre-split query
// tokenization shared by every shard. Candidates whose extraction was
// deferred are materialized after the read lock drops.
func (sh *shard) collect(dst []scored, qid string, words []string, maxCandidates int, minScore float64) []scored {
	start := len(dst)
	lazy := false
	sh.mu.RLock()
	for _, c := range sh.ix.QueryTokens(words, maxCandidates, minScore) {
		r := sh.ix.Record(c.Pos)
		if r.ID == qid {
			continue // re-resolving an added record
		}
		ext := sh.ext[c.Pos]
		if ext == nil {
			lazy = true
		}
		dst = append(dst, scored{rec: r, ext: ext, score: c.Score, pos: c.Pos})
	}
	sh.mu.RUnlock()
	if lazy {
		sh.fillExtracted(dst[start:])
	}
	return dst
}

// fillExtracted materializes deferred feature extractions for
// collected candidates. Extraction (pure, deterministic) runs outside
// any lock; the result publishes under a brief write lock with a
// double-check, so concurrent Resolves racing on the same cold record
// converge on one cached pointer.
func (sh *shard) fillExtracted(cs []scored) {
	for i := range cs {
		if cs[i].ext != nil {
			continue
		}
		e := features.ExtractText(cs[i].rec.Serialize()).Stored()
		sh.mu.Lock()
		if sh.ext[cs[i].pos] == nil {
			sh.ext[cs[i].pos] = &e
			sh.cached++
		}
		cs[i].ext = sh.ext[cs[i].pos]
		sh.mu.Unlock()
	}
}

// scored is one blocking candidate copied out of a shard: the record,
// its cached feature extraction, the summed-IDF blocking score and the
// shard-index position it came from.
type scored struct {
	rec   entity.Record
	ext   *features.Extracted
	score float64
	pos   int
}

// fanoutRecords is the stored-record count from which Resolve queries
// the index shards from parallel goroutines. Shard queries cost
// single-digit microseconds on small stores, where the goroutine
// handoff would dominate; the fanout engages only once per-shard work
// is large enough to amortize it. A variable only so the
// serial-vs-parallel differential test can force the parallel side.
var fanoutRecords int64 = 1 << 20

// resolveScratch pools the per-shard candidate buffers of
// blockCandidates. Only the buffers are pooled: the merged result
// holds value copies, so handing the scratch back never aliases a
// returned candidate.
type resolveScratch struct {
	perShard [][]scored
}

// blockCandidates fans the pre-tokenized query out to every shard and
// merges the per-shard ranked lists into the global top
// MaxCandidates. From fanoutRecords stored records on the fanout runs
// one goroutine per shard; results land in per-shard slots, so the
// merge — and therefore the final ranking — is deterministic
// regardless of scheduling.
func (s *Store) blockCandidates(qid string, words []string) []scored {
	sc := s.rscratch.Get().(*resolveScratch)
	if len(sc.perShard) != len(s.shards) {
		sc.perShard = make([][]scored, len(s.shards))
	}
	perShard := sc.perShard
	minScore := s.opts.Blocking.EffectiveMinScore()
	if len(s.shards) > 1 && s.count.Load() >= fanoutRecords {
		var wg sync.WaitGroup
		wg.Add(len(s.shards))
		for i, sh := range s.shards {
			go func(i int, sh *shard) {
				defer wg.Done()
				perShard[i] = sh.collect(perShard[i][:0], qid, words, s.opts.MaxCandidates, minScore)
			}(i, sh)
		}
		wg.Wait()
	} else {
		for i, sh := range s.shards {
			perShard[i] = sh.collect(perShard[i][:0], qid, words, s.opts.MaxCandidates, minScore)
		}
	}
	out := mergeTopK(perShard, s.opts.MaxCandidates)
	s.rscratch.Put(sc)
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
