// Package blocking provides candidate generation for end-to-end
// matching pipelines. The paper's experiments start from given record
// pairs; a deployed matcher (the "central step in most data
// integration pipelines" of the introduction) first needs a blocker
// that reduces the quadratic pair space to likely candidates, and a
// clusterer that turns pairwise decisions into entity groups.
//
// The candidate index (Index) has one postings representation —
// delta+varint streams, postings.go — one size rule that picks between
// its two scorers (denseScoreRecords in index.go; wand.go is the
// large-index one), an mmap snapshot format (snapshot.go) and one
// options struct, IndexOptions, holding the two thresholds.
package blocking

import "llm4em/internal/entity"

// TokenBlocker generates candidate pairs by shared-token overlap with
// inverse-document-frequency weighting: pairs sharing rare tokens
// (model numbers, distinctive title words) are ranked first.
type TokenBlocker struct {
	// MaxCandidates is the maximum number of candidates kept per left
	// record (default 10).
	MaxCandidates int
	// Opts carries the thresholds: the MinScore floor every candidate
	// must reach and the StopDocFrac that Candidates builds its
	// throwaway index with (nil selects the default, Float(0) a
	// literal zero).
	Opts IndexOptions
}

func (b *TokenBlocker) maxCandidates() int {
	if b.MaxCandidates <= 0 {
		return 10
	}
	return b.MaxCandidates
}

// Candidates blocks two record collections and returns unlabelled
// candidate pairs, ranked per left record by IDF-weighted token
// overlap. The index over right is built afresh; callers blocking
// repeatedly against a stable collection should build an Index once
// and use CandidatesIndexed.
func (b *TokenBlocker) Candidates(left, right []entity.Record) []entity.Pair {
	return b.CandidatesIndexed(left, BuildIndex(right, b.Opts))
}

// CandidatesIndexed blocks the left records against a prebuilt Index,
// applying the blocker's candidate and score thresholds. The index's
// own stop-token fraction governs token filtering.
func (b *TokenBlocker) CandidatesIndexed(left []entity.Record, ix *Index) []entity.Pair {
	var out []entity.Pair
	for _, l := range left {
		for _, c := range ix.Query(l.Serialize(), b.maxCandidates(), b.Opts.EffectiveMinScore()) {
			r := ix.Record(c.Pos)
			out = append(out, entity.Pair{
				ID: l.ID + "|" + r.ID,
				A:  l,
				B:  r,
			})
		}
	}
	return out
}

// Dedup blocks one collection against itself, returning each
// unordered candidate pair once and never pairing a record with
// itself.
func (b *TokenBlocker) Dedup(records []entity.Record) []entity.Pair {
	raw := b.Candidates(records, records)
	seen := map[string]bool{}
	pos := map[string]int{}
	for i, r := range records {
		pos[r.ID] = i
	}
	out := raw[:0]
	for _, p := range raw {
		if p.A.ID == p.B.ID {
			continue
		}
		i, j := pos[p.A.ID], pos[p.B.ID]
		if j < i {
			i, j = j, i
		}
		key := records[i].ID + "|" + records[j].ID
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, entity.Pair{ID: key, A: records[i], B: records[j]})
	}
	return out
}

// PairRecall measures which fraction of gold matching pairs survived
// blocking — the standard blocker quality metric.
func PairRecall(candidates []entity.Pair, gold []entity.Pair) float64 {
	if len(gold) == 0 {
		return 1
	}
	have := map[string]bool{}
	for _, c := range candidates {
		have[c.A.ID+"|"+c.B.ID] = true
		have[c.B.ID+"|"+c.A.ID] = true
	}
	hit := 0
	for _, g := range gold {
		if have[g.A.ID+"|"+g.B.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(gold))
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
