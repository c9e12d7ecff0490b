// Package icl implements the demonstration-selection heuristics for
// in-context learning (Section 4.1): random selection from the
// training pool, related selection by Generalized Jaccard similarity,
// and the fixed hand-picked demonstration sets curated per domain.
package icl

import (
	"sort"

	"llm4em/internal/detrand"
	"llm4em/internal/entity"
	"llm4em/internal/textsim"
	"llm4em/internal/tokenize"
)

// Random selects demonstrations uniformly from the training pool,
// balanced between matches and non-matches. Selection is
// deterministic per query pair.
type Random struct {
	pos, neg []entity.Pair
	seed     string
}

// NewRandom builds a random selector over the pool.
func NewRandom(pool []entity.Pair, seed string) *Random {
	r := &Random{seed: seed}
	for _, p := range pool {
		if p.Match {
			r.pos = append(r.pos, p)
		} else {
			r.neg = append(r.neg, p)
		}
	}
	return r
}

// Select returns k demonstrations (k/2 positive, k/2 negative,
// positives first receiving any odd remainder).
func (r *Random) Select(query entity.Pair, k int) []entity.Pair {
	rng := detrand.New("icl-random", r.seed, query.ID)
	nPos := (k + 1) / 2
	nNeg := k / 2
	out := append([]entity.Pair{}, detrand.Sample(rng, r.pos, nPos)...)
	out = append(out, detrand.Sample(rng, r.neg, nNeg)...)
	// Interleave deterministically so positives and negatives
	// alternate in the prompt.
	detrand.Shuffle(rng, out)
	return out
}

// Related selects the most similar positive and negative pairs from
// the training pool, measured by Generalized Jaccard similarity
// between the concatenated serializations (the paper uses the
// py_stringmatching GeneralizedJaccard with Jaro secondary measure).
// A token-overlap pre-filter keeps selection fast over large pools.
type Related struct {
	pos, neg relatedSide
}

type relatedSide struct {
	pairs  []entity.Pair
	texts  []string
	tokens [][]string
	index  map[string][]int // token -> candidate postings
}

func newRelatedSide(pairs []entity.Pair) relatedSide {
	s := relatedSide{
		pairs: pairs,
		index: map[string][]int{},
	}
	s.texts = make([]string, len(pairs))
	s.tokens = make([][]string, len(pairs))
	for i, p := range pairs {
		text := p.A.Serialize() + " " + p.B.Serialize()
		s.texts[i] = text
		s.tokens[i] = tokenize.Words(text)
		seen := map[string]bool{}
		for _, t := range s.tokens[i] {
			if !seen[t] {
				s.index[t] = append(s.index[t], i)
				seen[t] = true
			}
		}
	}
	return s
}

// top returns the n most related pool entries for the query text.
func (s relatedSide) top(queryTokens []string, n int) []entity.Pair {
	if len(s.pairs) == 0 || n <= 0 {
		return nil
	}
	// Pre-filter: count shared tokens via the inverted index.
	counts := map[int]int{}
	seen := map[string]bool{}
	for _, t := range queryTokens {
		if seen[t] {
			continue
		}
		seen[t] = true
		for _, i := range s.index[t] {
			counts[i]++
		}
	}
	type cand struct {
		i       int
		overlap int
	}
	cands := make([]cand, 0, len(counts))
	for i, c := range counts {
		cands = append(cands, cand{i, c})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].overlap != cands[b].overlap {
			return cands[a].overlap > cands[b].overlap
		}
		return cands[a].i < cands[b].i
	})
	limit := 24
	if len(cands) > limit {
		cands = cands[:limit]
	}
	// Exact ranking by Generalized Jaccard on the shortlist.
	type scored struct {
		i int
		s float64
	}
	scoredCands := make([]scored, len(cands))
	for j, c := range cands {
		scoredCands[j] = scored{c.i, textsim.GeneralizedJaccard(queryTokens, s.tokens[c.i])}
	}
	sort.Slice(scoredCands, func(a, b int) bool {
		if scoredCands[a].s != scoredCands[b].s {
			return scoredCands[a].s > scoredCands[b].s
		}
		return scoredCands[a].i < scoredCands[b].i
	})
	if len(scoredCands) > n {
		scoredCands = scoredCands[:n]
	}
	out := make([]entity.Pair, len(scoredCands))
	for j, sc := range scoredCands {
		out[j] = s.pairs[sc.i]
	}
	return out
}

// NewRelated builds a related selector over the pool.
func NewRelated(pool []entity.Pair) *Related {
	var pos, neg []entity.Pair
	for _, p := range pool {
		if p.Match {
			pos = append(pos, p)
		} else {
			neg = append(neg, p)
		}
	}
	return &Related{pos: newRelatedSide(pos), neg: newRelatedSide(neg)}
}

// Select returns the k/2 most similar positive and k/2 most similar
// negative demonstrations for the query.
func (r *Related) Select(query entity.Pair, k int) []entity.Pair {
	queryTokens := tokenize.Words(query.A.Serialize() + " " + query.B.Serialize())
	nPos := (k + 1) / 2
	nNeg := k / 2
	out := append([]entity.Pair{}, r.pos.top(queryTokens, nPos)...)
	return append(out, r.neg.top(queryTokens, nNeg)...)
}

// Handpicked serves a fixed demonstration set curated by a data
// engineer (the paper draws product demonstrations from the WDC
// Products training set and publication demonstrations from
// DBLP-Scholar, chosen for diversity and corner-case coverage).
type Handpicked struct {
	demos []entity.Pair
}

// NewHandpicked wraps a fixed demonstration list.
func NewHandpicked(demos []entity.Pair) *Handpicked {
	return &Handpicked{demos: demos}
}

// Select returns the first k demonstrations of the fixed set,
// balanced between labels.
func (h *Handpicked) Select(query entity.Pair, k int) []entity.Pair {
	nPos := (k + 1) / 2
	nNeg := k / 2
	var out []entity.Pair
	for _, d := range h.demos {
		switch {
		case d.Match && nPos > 0:
			out = append(out, d)
			nPos--
		case !d.Match && nNeg > 0:
			out = append(out, d)
			nNeg--
		}
		if nPos == 0 && nNeg == 0 {
			break
		}
	}
	return out
}

// CurateHandpicked deterministically emulates the data engineer's
// curation over a training pool: it picks diverse corner-case
// demonstrations — matches with low surface similarity and
// non-matches with high surface similarity — spreading picks across
// the pool.
func CurateHandpicked(pool []entity.Pair, n int) []entity.Pair {
	type scored struct {
		p entity.Pair
		s float64
	}
	var pos, neg []scored
	for _, p := range pool {
		sim := textsim.JaccardStrings(p.A.Serialize(), p.B.Serialize())
		if p.Match {
			pos = append(pos, scored{p, sim})
		} else {
			neg = append(neg, scored{p, sim})
		}
	}
	// Corner-case matches: least similar first; corner-case
	// non-matches: most similar first.
	sort.Slice(pos, func(i, j int) bool {
		if pos[i].s != pos[j].s {
			return pos[i].s < pos[j].s
		}
		return pos[i].p.ID < pos[j].p.ID
	})
	sort.Slice(neg, func(i, j int) bool {
		if neg[i].s != neg[j].s {
			return neg[i].s > neg[j].s
		}
		return neg[i].p.ID < neg[j].p.ID
	})
	var out []entity.Pair
	// Take every 3rd entry for diversity rather than the extreme top,
	// as a human curator would avoid near-duplicates.
	for i := 0; len(out) < (n+1)/2 && i < len(pos); i += 3 {
		out = append(out, pos[i].p)
	}
	for i := 0; len(out) < n && i < len(neg); i += 3 {
		out = append(out, neg[i].p)
	}
	return out
}
