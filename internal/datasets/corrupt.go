package datasets

import (
	"fmt"
	"sort"
	"strings"

	"llm4em/internal/detrand"
	"llm4em/internal/entity"
)

// CorruptionKind identifies one family of dirty-data transformations.
// The embed/misfield kinds follow the simulated-error methodology of
// the ermaster study (SNIPPETS.md): embed-k collapses attribute
// values into a single semi-structured text blob, misfield-k files
// values under wrong attribute names.
type CorruptionKind string

// The supported corruption kinds.
const (
	// CorruptEmbed collapses k attribute values into one text blob —
	// the semi-structured DBpedia shape: all information preserved,
	// field boundaries destroyed.
	CorruptEmbed CorruptionKind = "embed"
	// CorruptMisfield rotates values across k+1 attribute slots so
	// each lands under a wrong attribute name.
	CorruptMisfield CorruptionKind = "misfield"
	// CorruptNull blanks attribute values outright (missing data).
	CorruptNull CorruptionKind = "nullout"
	// CorruptTypo injects character typos into value tokens and
	// appends marketplace noise words.
	CorruptTypo CorruptionKind = "typo"
	// CorruptSchema renames attributes to divergent synonyms and
	// permutes their order — two sources that never agreed on a schema.
	CorruptSchema CorruptionKind = "schema"
)

// CorruptionKinds returns every kind in presentation order.
func CorruptionKinds() []CorruptionKind {
	return []CorruptionKind{CorruptEmbed, CorruptMisfield, CorruptNull, CorruptTypo, CorruptSchema}
}

// ParseCorruptionKind resolves a kind name, accepting the constant
// spellings above.
func ParseCorruptionKind(s string) (CorruptionKind, error) {
	k := CorruptionKind(strings.ToLower(strings.TrimSpace(s)))
	for _, known := range CorruptionKinds() {
		if k == known {
			return k, nil
		}
	}
	return "", fmt.Errorf("datasets: unknown corruption kind %q (known: %v)", s, CorruptionKinds())
}

// Corruptor applies reproducible dirty-data transformations to
// records. Every stochastic choice is keyed on (Seed, record ID,
// stage, position) through internal/detrand, so corrupting the same
// record under the same seed always yields the same output,
// independent of call order — and raising a knob only ever grows the
// set of touched fields (see the monotonicity tests).
//
// The zero value is the identity transformation. Knobs compose: a
// Corruptor with several knobs set applies them in a fixed order
// (embed, misfield, null-out, noise, typo, schema).
type Corruptor struct {
	// Seed namespaces every pseudo-random draw. Two corruptors with
	// different seeds corrupt the same records differently.
	Seed string
	// EmbedK collapses min(EmbedK, len(attrs)) attribute values into a
	// single blob held by the first chosen slot; the donor slots are
	// emptied. Values below 2 are no-ops.
	EmbedK int
	// MisfieldK rotates the values of min(MisfieldK+1, len(attrs))
	// attribute slots by one position, so each sits under a wrong
	// attribute name. Zero is a no-op.
	MisfieldK int
	// NullOut blanks each attribute value independently with this
	// probability.
	NullOut float64
	// TypoRate applies one character-level typo (swap, drop or
	// duplicate) to each value token independently with this
	// probability.
	TypoRate float64
	// NoiseWords appends this many marketplace noise tokens to the
	// record's longest attribute value.
	NoiseWords int
	// DivergeSchema renames attributes to divergent synonyms and
	// permutes the attribute order.
	DivergeSchema bool
}

// ForLevel maps a corruption kind and an integer severity level to a
// Corruptor. Level 0 is the identity for every kind; higher levels
// corrupt at least as many fields as lower ones.
func ForLevel(seed string, kind CorruptionKind, level int) Corruptor {
	c := Corruptor{Seed: seed}
	if level <= 0 {
		return c
	}
	switch kind {
	case CorruptEmbed:
		// Level k collapses k+1 values: level 1 already merges a pair.
		c.EmbedK = level + 1
	case CorruptMisfield:
		c.MisfieldK = level
	case CorruptNull:
		c.NullOut = 0.15 * float64(level)
	case CorruptTypo:
		c.TypoRate = 0.08 * float64(level)
		c.NoiseWords = level
	case CorruptSchema:
		c.DivergeSchema = true
	}
	return c
}

// IsIdentity reports whether the corruptor changes nothing.
func (c Corruptor) IsIdentity() bool {
	return c.EmbedK < 2 && c.MisfieldK <= 0 && c.NullOut <= 0 &&
		c.TypoRate <= 0 && c.NoiseWords <= 0 && !c.DivergeSchema
}

// Corrupt returns a corrupted deep copy of the record. The input is
// never mutated.
func (c Corruptor) Corrupt(r entity.Record) entity.Record {
	out := r.Clone()
	if c.IsIdentity() || len(out.Attrs) == 0 {
		return out
	}
	if c.EmbedK >= 2 {
		c.embed(&out)
	}
	if c.MisfieldK > 0 {
		c.misfield(&out)
	}
	if c.NullOut > 0 {
		c.nullOut(&out)
	}
	if c.NoiseWords > 0 {
		c.addNoise(&out)
	}
	if c.TypoRate > 0 {
		c.typos(&out)
	}
	if c.DivergeSchema {
		c.diverge(&out)
	}
	return out
}

// embed collapses the values of the first min(EmbedK, n) slots of a
// keyed permutation into the lowest-index chosen slot, joining in
// schema order; the donors are emptied. Choosing k slots as a prefix
// of one permutation makes the touched set nested across levels.
func (c Corruptor) embed(r *entity.Record) {
	n := len(r.Attrs)
	m := min(c.EmbedK, n)
	if m < 2 {
		return
	}
	chosen := detrand.New(c.Seed, "embed", r.ID).Perm(n)[:m]
	sort.Ints(chosen)
	parts := make([]string, 0, m)
	for _, i := range chosen {
		if r.Attrs[i].Value != "" {
			parts = append(parts, r.Attrs[i].Value)
		}
		r.Attrs[i].Value = ""
	}
	r.Attrs[chosen[0]].Value = strings.Join(parts, " ")
}

// misfield rotates the values of the first min(MisfieldK+1, n) slots
// of a keyed permutation by one position, so every chosen value sits
// under a wrong attribute name.
func (c Corruptor) misfield(r *entity.Record) {
	n := len(r.Attrs)
	m := min(c.MisfieldK+1, n)
	if m < 2 {
		return
	}
	chosen := detrand.New(c.Seed, "misfield", r.ID).Perm(n)[:m]
	last := r.Attrs[chosen[m-1]].Value
	for i := m - 1; i > 0; i-- {
		r.Attrs[chosen[i]].Value = r.Attrs[chosen[i-1]].Value
	}
	r.Attrs[chosen[0]].Value = last
}

// nullOut blanks each value whose keyed uniform draw falls below the
// probability — a fixed draw per (seed, record, slot), so a higher
// probability blanks a superset of the fields a lower one blanks.
func (c Corruptor) nullOut(r *entity.Record) {
	for i := range r.Attrs {
		if r.Attrs[i].Value == "" {
			continue
		}
		if detrand.Unit(c.Seed, "null", r.ID, itoa(i)) < c.NullOut {
			r.Attrs[i].Value = ""
		}
	}
}

// noiseTokens are the marketplace filler words appended by addNoise.
var noiseTokens = []string{
	"sale", "hot", "new", "wow", "deal", "free", "shipping", "best",
	"offer", "clearance", "limited", "genuine",
}

// addNoise appends NoiseWords keyed noise tokens to the record's
// longest value (ties to the earliest slot) — the attribute a seller
// would decorate.
func (c Corruptor) addNoise(r *entity.Record) {
	target, best := -1, -1
	for i := range r.Attrs {
		if l := len(r.Attrs[i].Value); l > best {
			target, best = i, l
		}
	}
	if target < 0 || r.Attrs[target].Value == "" {
		return
	}
	var b strings.Builder
	b.WriteString(r.Attrs[target].Value)
	for w := 0; w < c.NoiseWords; w++ {
		b.WriteByte(' ')
		b.WriteString(noiseTokens[int(detrand.Hash64(c.Seed, "noise", r.ID, itoa(w))%uint64(len(noiseTokens)))])
	}
	r.Attrs[target].Value = b.String()
}

// typos applies one character-level typo to each value token whose
// keyed draw falls below TypoRate. Draws are fixed per (seed, record,
// slot, token index), so a higher rate mangles a superset of the
// tokens a lower rate mangles.
func (c Corruptor) typos(r *entity.Record) {
	for i := range r.Attrs {
		v := r.Attrs[i].Value
		if v == "" {
			continue
		}
		words := strings.Split(v, " ")
		changed := false
		for wi, w := range words {
			key := []string{c.Seed, "typo", r.ID, itoa(i), itoa(wi)}
			if detrand.Unit(key...) >= c.TypoRate {
				continue
			}
			if tw := typoWord(w, detrand.Hash64(append(key, "op")...)); tw != w {
				words[wi] = tw
				changed = true
			}
		}
		if changed {
			r.Attrs[i].Value = strings.Join(words, " ")
		}
	}
}

// typoWord applies one deterministic typo to a word: swap two
// adjacent characters, drop one, or duplicate one, chosen by the
// key hash. Words shorter than 3 bytes are left alone — mangling
// them deletes the token rather than misspelling it.
func typoWord(w string, h uint64) string {
	if len(w) < 3 {
		return w
	}
	pos := 1 + int(h%uint64(len(w)-2)) // keep first and last byte anchored
	switch (h >> 32) % 3 {
	case 0: // swap with the next byte
		b := []byte(w)
		b[pos], b[pos+1] = b[pos+1], b[pos]
		return string(b)
	case 1: // drop
		return w[:pos] + w[pos+1:]
	default: // duplicate
		return w[:pos+1] + w[pos:]
	}
}

// schemaSynonyms maps canonical attribute names to the divergent
// spelling a schema-divergent source would use.
var schemaSynonyms = map[string]string{
	"title":    "name",
	"brand":    "manufacturer",
	"price":    "cost",
	"currency": "ccy",
	"modelno":  "mpn",
	"authors":  "creator",
	"venue":    "publication",
	"year":     "date",
}

// diverge renames every attribute to its divergent synonym and
// permutes the attribute order with a keyed shuffle. Serialization
// concatenates values in attribute order, so the permutation alone
// changes what every downstream consumer sees.
func (c Corruptor) diverge(r *entity.Record) {
	for i := range r.Attrs {
		if syn, ok := schemaSynonyms[r.Attrs[i].Name]; ok {
			r.Attrs[i].Name = syn
		} else {
			r.Attrs[i].Name = "x_" + r.Attrs[i].Name
		}
	}
	detrand.Shuffle(detrand.New(c.Seed, "schema", r.ID), r.Attrs)
}

// CorruptPair corrupts both sides of a labelled pair, keeping ID and
// gold label.
func (c Corruptor) CorruptPair(p entity.Pair) entity.Pair {
	p.A = c.Corrupt(p.A)
	p.B = c.Corrupt(p.B)
	return p
}

// CorruptPairs corrupts every pair into a fresh slice.
func (c Corruptor) CorruptPairs(pairs []entity.Pair) []entity.Pair {
	out := make([]entity.Pair, len(pairs))
	for i, p := range pairs {
		out[i] = c.CorruptPair(p)
	}
	return out
}

// String describes the active knobs, e.g. "embed-3+typo-0.16".
func (c Corruptor) String() string {
	var parts []string
	if c.EmbedK >= 2 {
		parts = append(parts, fmt.Sprintf("embed-%d", c.EmbedK))
	}
	if c.MisfieldK > 0 {
		parts = append(parts, fmt.Sprintf("misfield-%d", c.MisfieldK))
	}
	if c.NullOut > 0 {
		parts = append(parts, fmt.Sprintf("null-%.2f", c.NullOut))
	}
	if c.TypoRate > 0 {
		parts = append(parts, fmt.Sprintf("typo-%.2f", c.TypoRate))
	}
	if c.NoiseWords > 0 {
		parts = append(parts, fmt.Sprintf("noise-%d", c.NoiseWords))
	}
	if c.DivergeSchema {
		parts = append(parts, "schema")
	}
	if len(parts) == 0 {
		return "clean"
	}
	return strings.Join(parts, "+")
}

// itoa formats a small non-negative int without fmt overhead.
func itoa(x int) string {
	if x < 10 {
		return string([]byte{byte('0' + x)})
	}
	return fmt.Sprintf("%d", x)
}
