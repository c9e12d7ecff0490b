package datasets

import (
	"fmt"

	"llm4em/internal/detrand"
	"llm4em/internal/entity"
)

// config is what every benchmark configuration shares: its identity,
// the Table 1 counts, the universe size, the corner-case rates and the
// styles of type S in which its two sources render items.
type config[S any] struct {
	key, name, abbrev string
	counts            SplitCounts
	schema            entity.Schema
	scenario          Scenario

	families       int     // number of item families in the universe
	cornerNegRate  float64 // fraction of negatives drawn from sibling items
	hardMatchRate  float64 // fraction of matches rendered with a hardened style
	styleA, styleB S
}

// sampler draws the labelled pairs of one benchmark from a universe of
// items of type T grouped into families. A match is one item rendered
// by both sources; a non-match pairs an item with a sibling from its
// family (a corner case) or with an item from another family.
type sampler[T, S any] struct {
	config[S]
	universe []T
	family   func(T) int
	// render draws one rendering of an item under a style as attribute
	// values by name; record projects them onto the schema.
	render func(T, S, *detrand.RNG) map[string]string
	harden func(S) S // the style of a hard match's B side
	// hide, when set, hides the distinguishing identifier on the B side
	// of a sibling negative with probability hideRate. Its draw is made
	// only for sibling negatives and only when hide is set.
	hide     func(S) S
	hideRate float64
}

// dataset materializes the benchmark's three splits.
func (s sampler[T, S]) dataset() *Dataset {
	c := s.counts
	return &Dataset{
		Name:     s.name,
		Key:      s.key,
		Abbrev:   s.abbrev,
		Schema:   s.schema,
		Scenario: s.scenario,
		Train:    s.pairs("train", c.TrainPos, c.TrainNeg),
		Val:      s.pairs("val", c.ValPos, c.ValNeg),
		Test:     s.pairs("test", c.TestPos, c.TestNeg),
	}
}

// siblings indexes the universe by family.
func (s sampler[T, S]) siblings() map[int][]int {
	families := map[int][]int{}
	for i, it := range s.universe {
		families[s.family(it)] = append(families[s.family(it)], i)
	}
	return families
}

// pairs materializes one split: pos matches, then neg non-matches,
// shuffled together.
func (s sampler[T, S]) pairs(split string, pos, neg int) []entity.Pair {
	rng := detrand.New("pairs", s.key, split)
	pairs := make([]entity.Pair, 0, pos+neg)
	families := s.siblings()
	n := len(s.universe)
	for i := 0; i < pos; i++ {
		it := s.universe[rng.Intn(n)]
		stB := s.styleB
		if rng.Bool(s.hardMatchRate) {
			stB = s.harden(stB)
		}
		pairs = append(pairs, s.pair(rng, split, i, it, it, stB, true))
	}
	for i := 0; i < neg; i++ {
		pi := rng.Intn(n)
		p := s.universe[pi]
		var qi int
		if rng.Bool(s.cornerNegRate) {
			// Corner case: a sibling from the same family.
			sibs := families[s.family(p)]
			qi = sibs[rng.Intn(len(sibs))]
			for qi == pi && len(sibs) > 1 {
				qi = sibs[rng.Intn(len(sibs))]
			}
			if qi == pi {
				qi = (pi + 1) % n
			}
		} else {
			qi = rng.Intn(n)
			for s.family(s.universe[qi]) == s.family(p) {
				qi = rng.Intn(n)
			}
		}
		q := s.universe[qi]
		stB := s.styleB
		if s.hide != nil && s.family(q) == s.family(p) && rng.Bool(s.hideRate) {
			stB = s.hide(stB)
		}
		pairs = append(pairs, s.pair(rng, split, i, p, q, stB, false))
	}
	// Shuffle so matches and non-matches interleave, as in the
	// published benchmark files; any prefix of a split keeps a
	// realistic class mix.
	detrand.Shuffle(detrand.New("shuffle", s.key, split), pairs)
	return pairs
}

// pair renders a under styleA and then b under stB as the split's i-th
// match or non-match.
func (s sampler[T, S]) pair(rng *detrand.RNG, split string, i int, a, b T, stB S, match bool) entity.Pair {
	rec, kind := "n", "neg"
	if match {
		rec, kind = "p", "pos"
	}
	id := fmt.Sprintf("%s-%s-%s%d", s.key, split, rec, i)
	ra := s.record(id+"-a", s.render(a, s.styleA, rng))
	rb := s.record(id+"-b", s.render(b, stB, rng))
	return entity.Pair{ID: fmt.Sprintf("%s-%s-%s-%d", s.key, split, kind, i), A: ra, B: rb, Match: match}
}

// record projects rendered attribute values onto the schema; values
// the schema lacks are dropped (renderers fold them into the title).
func (s sampler[T, S]) record(id string, values map[string]string) entity.Record {
	r := entity.Record{ID: id, Attrs: make([]entity.Attr, len(s.schema.Attributes))}
	for i, a := range s.schema.Attributes {
		r.Attrs[i] = entity.Attr{Name: a, Value: values[a]}
	}
	return r
}
