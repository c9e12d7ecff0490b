// Package blocking provides candidate generation for end-to-end
// matching pipelines. The paper's experiments start from given record
// pairs; a deployed matcher (the "central step in most data
// integration pipelines" of the introduction) first needs a blocker
// that reduces the quadratic pair space to likely candidates, and a
// clusterer that turns pairwise decisions into entity groups.
//
// The candidate index (Index) has one postings representation —
// delta+varint streams, postings.go — one scorer, the term-at-a-time
// scan of index.go, an mmap snapshot format (snapshot.go) and one
// options struct, IndexOptions, holding the stop-token fraction.
// Dedup blocks a whole collection against itself through a throwaway
// Index.
package blocking

import (
	"llm4em/internal/entity"
	"llm4em/internal/tokenize"
)

// Dedup blocks one collection against itself by IDF-weighted token
// overlap, pairs sharing rare tokens (model numbers, distinctive title
// words) ranking first: each record keeps its maxCandidates
// best-scoring partners (zero or negative selects 10) that reach
// DefaultMinScore. Each unordered candidate pair comes back once, and a
// record is never paired with itself.
func Dedup(records []entity.Record, maxCandidates int) []entity.Pair {
	if maxCandidates <= 0 {
		maxCandidates = 10
	}
	ix := BuildIndex(records, IndexOptions{})
	seen := map[string]bool{}
	var out []entity.Pair
	for i, r := range records {
		for _, c := range ix.QueryTokens(tokenize.Words(r.Serialize()), maxCandidates, DefaultMinScore) {
			a, b := r, records[c.Pos]
			if a.ID == b.ID {
				continue
			}
			if c.Pos < i {
				a, b = b, a
			}
			key := a.ID + "|" + b.ID
			if !seen[key] {
				seen[key] = true
				out = append(out, entity.Pair{ID: key, A: a, B: b})
			}
		}
	}
	return out
}

// Cluster groups records into entities from pairwise match decisions
// using union-find over the decided-match pairs. It returns the
// clusters as slices of record IDs, sorted for determinism. Pairs
// beyond the length of decisions count as non-matches; surplus
// decisions are ignored.
func Cluster(pairs []entity.Pair, decisions []bool) [][]string {
	u := NewUnionFind()
	for i, p := range pairs {
		u.Add(p.A.ID)
		u.Add(p.B.ID)
		if i < len(decisions) && decisions[i] {
			u.Union(p.A.ID, p.B.ID)
		}
	}
	return u.Groups()
}
