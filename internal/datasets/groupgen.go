package datasets

import (
	"fmt"

	"llm4em/internal/detrand"
	"llm4em/internal/entity"
)

// This file generates query-grouped labelled pairs — the fixture
// shape of the strategy ablation (internal/experiments). The regular
// test splits pair every query record exactly once, so they can never
// exercise the grouped compare/select prompts; these fixtures render
// one query offer against several candidate offers from the same
// product family, which is exactly the multi-candidate uncertain band
// a live blocking index hands the cascade.

// productConfigFor returns the generator configuration of a
// product-family dataset key.
func productConfigFor(key string) (productConfig, bool) {
	switch key {
	case "wdc":
		return wdcProductConfig(), true
	case "ab":
		return abProductConfig(), true
	case "wa":
		return waProductConfig(), true
	}
	return productConfig{}, false
}

// GroupedPairs generates labelled pairs grouped by query record for a
// product dataset ("wdc", "ab" or "wa"): `groups` groups of
// `candidates` pairs each, every pair in a group sharing the same
// query record as pair.A. Each group holds one true match (the query
// product rendered by a second source) among corner-case non-matches
// — siblings from the query's product family, occasionally with the
// distinguishing model number hidden — plus products from other
// families when the family runs out of siblings. Generation is a pure
// function of (key, seed, groups, candidates); the candidate order
// within each group is shuffled deterministically.
func GroupedPairs(key, seed string, groups, candidates int) ([]entity.Pair, error) {
	cfg, ok := productConfigFor(key)
	if !ok {
		return nil, fmt.Errorf("datasets: no grouped fixtures for %q (product keys: ab, wa, wdc)", key)
	}
	if groups <= 0 || candidates <= 0 {
		return nil, fmt.Errorf("datasets: grouped fixtures need positive groups and candidates, got %d×%d", groups, candidates)
	}
	s := productSampler(cfg)
	families := s.siblings()
	rng := detrand.New("groups", cfg.key, seed)
	pairs := make([]entity.Pair, 0, groups*candidates)
	for g := 0; g < groups; g++ {
		pi := rng.Intn(len(s.universe))
		p := s.universe[pi]
		query := s.record(fmt.Sprintf("%s-grp%d-q", cfg.key, g), renderOffer(p, cfg.styleA, rng))

		// Candidate products: the true match first, then family
		// siblings (the corner-case non-matches grouped prompts must
		// tell apart), then random other-family products as filler.
		type cand struct {
			prod product
			gold bool
		}
		cands := []cand{{prod: p, gold: true}}
		for _, si := range families[p.family] {
			if len(cands) == candidates {
				break
			}
			if si != pi {
				cands = append(cands, cand{prod: s.universe[si]})
			}
		}
		for len(cands) < candidates {
			qi := rng.Intn(len(s.universe))
			if s.universe[qi].family == p.family {
				continue
			}
			cands = append(cands, cand{prod: s.universe[qi]})
		}
		detrand.Shuffle(rng, cands)

		for c, cd := range cands {
			st := cfg.styleB
			if cd.gold && rng.Bool(cfg.hardMatchRate) {
				st = harden(st)
			}
			if !cd.gold && cd.prod.family == p.family && rng.Bool(cfg.ambiguousRate) {
				// The hardest corner case: hide the distinguishing
				// model number on the candidate side.
				st = hideModel(st)
			}
			id := fmt.Sprintf("%s-grp%d-c%d", cfg.key, g, c)
			pairs = append(pairs, entity.Pair{
				ID:    id,
				A:     query,
				B:     s.record(id, renderOffer(cd.prod, st, rng)),
				Match: cd.gold,
			})
		}
	}
	return pairs, nil
}
