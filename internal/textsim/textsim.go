// Package textsim implements the string-similarity measures used
// throughout the paper: token-set Jaccard, the Generalized Jaccard
// measure used for "related" demonstration selection (Section 4.1),
// Cosine similarity over token vectors (Section 6.1), character-level
// measures (Jaro, Jaro-Winkler), the Monge-Elkan
// hybrid, numeric-attribute similarity, and the Pearson correlation
// used to validate model-generated similarity scores.
package textsim

import (
	"math"
	"slices"
	"sync"

	"llm4em/internal/tokenize"
)

// Jaccard returns |A∩B| / |A∪B| over the token sets of a and b. Two
// empty token sets are defined to have similarity 1.
func Jaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a)+len(b) > smallListMax {
		sa, sb := tokenize.Set(a), tokenize.Set(b)
		inter := 0
		for t := range sa {
			if sb[t] {
				inter++
			}
		}
		union := len(sa) + len(sb) - inter
		if union == 0 {
			return 1
		}
		return float64(inter) / float64(union)
	}
	da, inter := distinctAndInter(a, b)
	db := 0
	for j := range b {
		if !seenBefore(b, j) {
			db++
		}
	}
	union := da + db - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// smallListMax is the combined token count up to which the similarity
// functions use quadratic slice scans; longer lists — dirty-data
// blobs, not real titles — switch to hash sets with identical results.
const smallListMax = 128

// seenBefore reports whether ts[i] already occurred in ts[:i] — the
// token-list equivalent of a set-membership test. The similarity
// functions below run over short token lists (titles, word tokens),
// where quadratic slice scans beat building throwaway hash sets.
func seenBefore(ts []string, i int) bool {
	for _, p := range ts[:i] {
		if p == ts[i] {
			return true
		}
	}
	return false
}

// contains reports whether ts contains t.
func contains(ts []string, t string) bool {
	for _, p := range ts {
		if p == t {
			return true
		}
	}
	return false
}

// distinctAndInter counts the distinct tokens of a and how many of
// them occur in b.
func distinctAndInter(a, b []string) (distinct, inter int) {
	for i := range a {
		if seenBefore(a, i) {
			continue
		}
		distinct++
		if contains(b, a[i]) {
			inter++
		}
	}
	return distinct, inter
}

// JaccardStrings tokenizes both strings with tokenize.Words and
// returns their Jaccard similarity.
func JaccardStrings(a, b string) float64 {
	return Jaccard(tokenize.Words(a), tokenize.Words(b))
}

// Overlap returns the overlap coefficient |A∩B| / min(|A|, |B|).
func Overlap(a, b []string) float64 {
	sa, sb := tokenize.Set(a), tokenize.Set(b)
	if len(sa) == 0 || len(sb) == 0 {
		if len(sa) == len(sb) {
			return 1
		}
		return 0
	}
	inter := 0
	for t := range sa {
		if sb[t] {
			inter++
		}
	}
	return float64(inter) / float64(min(len(sa), len(sb)))
}

// Containment returns |A∩B| / |A|: the fraction of a's tokens present
// in b. It is asymmetric.
func Containment(a, b []string) float64 {
	if len(a)+len(b) > smallListMax {
		sa, sb := tokenize.Set(a), tokenize.Set(b)
		if len(sa) == 0 {
			return 1
		}
		inter := 0
		for t := range sa {
			if sb[t] {
				inter++
			}
		}
		return float64(inter) / float64(len(sa))
	}
	da, inter := distinctAndInter(a, b)
	if da == 0 {
		return 1
	}
	return float64(inter) / float64(da)
}

// GeneralizedJaccard computes the Generalized Jaccard similarity of
// the two token lists with Jaro as the secondary token-level measure
// and gjThreshold as the minimum secondary similarity for two tokens
// to be considered a fuzzy match — the py_stringmatching configuration
// the paper's demonstration selection relies on.
//
// The measure greedily pairs tokens across the lists in decreasing
// secondary-similarity order; the score is the sum of matched
// similarities divided by |A| + |B| − #matched.
//
// Each token's runes are decoded once per call, not once per pair.
// Equal tokens score 1 and tokens that share no character score 0
// without running Jaro: both are what Jaro returns for them.
func GeneralizedJaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	// Dirty-data blobs can tokenize into thousands of tokens; the
	// all-pairs secondary measure below would then dominate the whole
	// pipeline. Past the cutoff the fuzzy floor is dropped and tokens
	// match exactly — a deterministic degradation that keeps degenerate
	// inputs linear while leaving every realistic title untouched.
	if len(a)*len(b) > maxFuzzyPairs {
		return exactGeneralizedJaccard(a, b)
	}
	sc := gjPool.Get().(*gjScratch)
	sc.decode(a, b)
	ta, tb := sc.toks[:len(a)], sc.toks[len(a):]
	cands := sc.cands[:0]
	for i, x := range a {
		for j, y := range b {
			var s float64
			switch {
			case x == y:
				s = 1
			case ta[i].mask&tb[j].mask == 0:
				continue
			default:
				s = jaro(sc.runes[ta[i].off:ta[i].end], sc.runes[tb[j].off:tb[j].end])
			}
			if s >= gjThreshold {
				cands = append(cands, gjCand{int32(i), int32(j), s})
			}
		}
	}
	// Greedy matching in decreasing similarity order (stable sort
	// keeps determinism for equal scores).
	slices.SortStableFunc(cands, gjCandBefore)
	if cap(sc.used) < len(a)+len(b) {
		sc.used = make([]bool, len(a)+len(b))
	}
	used := sc.used[:len(a)+len(b)]
	clear(used)
	usedA, usedB := used[:len(a)], used[len(a):]
	sum := 0.0
	matched := 0
	for _, c := range cands {
		if usedA[c.i] || usedB[c.j] {
			continue
		}
		usedA[c.i] = true
		usedB[c.j] = true
		sum += c.s
		matched++
	}
	sc.cands = cands
	if cap(sc.runes) > maxKeptRunes {
		sc.runes = nil // a dirty-data blob's runes are not kept pooled
	}
	gjPool.Put(sc)
	return sum / float64(len(a)+len(b)-matched)
}

// gjThreshold is the Jaro similarity from which two tokens count as a
// fuzzy match.
const gjThreshold = 0.5

// maxKeptRunes bounds the decoded runes a pooled scratch keeps: a few
// hundred title tokens' worth.
const maxKeptRunes = 1 << 14

// gjCand is one fuzzy token pair of GeneralizedJaccard: the positions
// in each list and their secondary similarity.
type gjCand struct {
	i, j int32
	s    float64
}

// gjCandBefore orders candidates by decreasing similarity; equal ones
// compare equal, so the stable sort keeps them in scan order.
func gjCandBefore(x, y gjCand) int {
	switch {
	case x.s > y.s:
		return -1
	case y.s > x.s:
		return 1
	}
	return 0
}

// gjScratch is the reusable state of one GeneralizedJaccard call: the
// decoded tokens of both lists, the candidate list and the used flags.
type gjScratch struct {
	toks  []gjToken
	runes []rune
	cands []gjCand
	used  []bool
}

// gjToken is one decoded token: its leading maxJaroRunes runes, as
// runes[off:end] of its scratch, and a mask with bit r&63 set for each
// rune r. Two tokens whose masks do not meet share no rune, so Jaro
// finds no match between them.
type gjToken struct {
	off, end int32
	mask     uint64
}

// decode fills sc.toks with the tokens of a, then those of b.
func (sc *gjScratch) decode(a, b []string) {
	sc.toks, sc.runes = sc.toks[:0], sc.runes[:0]
	for _, list := range [2][]string{a, b} {
		for _, t := range list {
			tok := gjToken{off: int32(len(sc.runes))}
			for _, r := range t {
				if len(sc.runes)-int(tok.off) == maxJaroRunes {
					break
				}
				sc.runes = append(sc.runes, r)
				tok.mask |= 1 << (uint32(r) & 63)
			}
			tok.end = int32(len(sc.runes))
			sc.toks = append(sc.toks, tok)
		}
	}
}

// gjPool lends GeneralizedJaccard its scratch, so concurrent callers
// never share one and repeated calls do not allocate.
var gjPool = sync.Pool{New: func() any { return new(gjScratch) }}

// maxFuzzyPairs bounds the all-pairs work of GeneralizedJaccard: a
// 128×128-token comparison is the largest the fuzzy path attempts.
const maxFuzzyPairs = 1 << 14

// exactGeneralizedJaccard is the exact-match degradation of
// GeneralizedJaccard for degenerate token counts: multiset
// intersection over identical tokens, scored with the same
// |A| + |B| − #matched denominator.
func exactGeneralizedJaccard(a, b []string) float64 {
	counts := make(map[string]int, len(a))
	for _, t := range a {
		counts[t]++
	}
	matched := 0
	for _, t := range b {
		if counts[t] > 0 {
			counts[t]--
			matched++
		}
	}
	return float64(matched) / float64(len(a)+len(b)-matched)
}

// GeneralizedJaccardStrings applies GeneralizedJaccard to the word
// tokens of a and b.
func GeneralizedJaccardStrings(a, b string) float64 {
	return GeneralizedJaccard(tokenize.Words(a), tokenize.Words(b))
}

// Cosine returns the cosine similarity of the token-frequency vectors
// of a and b.
func Cosine(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a)+len(b) > smallListMax {
		ca, cb := tokenize.Counts(a), tokenize.Counts(b)
		var dot, na, nb float64
		for t, x := range ca {
			na += float64(x) * float64(x)
			if y := cb[t]; y > 0 {
				dot += float64(x) * float64(y)
			}
		}
		for _, y := range cb {
			nb += float64(y) * float64(y)
		}
		if na == 0 || nb == 0 {
			return 0
		}
		return dot / (math.Sqrt(na) * math.Sqrt(nb))
	}
	// Token counts are small integers, so the sums below are exact in
	// float64 regardless of accumulation order — identical results to
	// the map-based formulation, without its allocations.
	var dot, na, nb float64
	for i, t := range a {
		if seenBefore(a, i) {
			continue
		}
		x := float64(countOf(a, t))
		na += x * x
		if y := countOf(b, t); y > 0 {
			dot += x * float64(y)
		}
	}
	for j, t := range b {
		if seenBefore(b, j) {
			continue
		}
		y := float64(countOf(b, t))
		nb += y * y
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// countOf counts occurrences of t in ts.
func countOf(ts []string, t string) int {
	n := 0
	for _, p := range ts {
		if p == t {
			n++
		}
	}
	return n
}

// CosineStrings tokenizes both strings and returns their cosine
// similarity.
func CosineStrings(a, b string) float64 {
	return Cosine(tokenize.Words(a), tokenize.Words(b))
}

// maxJaroRunes caps the length Jaro examines: its match window scan
// is quadratic for near-identical strings, so one megabyte-sized
// degenerate token must not stall a comparison — GeneralizedJaccard
// calls Jaro up to maxFuzzyPairs times per title pair. Real tokens
// are tens of characters; truncation never fires for them.
const maxJaroRunes = 64

// leadingRunes decodes at most maxJaroRunes leading runes of s into
// dst without scanning the rest — a full []rune conversion of a
// degenerate token would already be linear in its size on every
// similarity call — and returns how many it decoded.
func leadingRunes(dst *[maxJaroRunes]rune, s string) int {
	n := 0
	for _, r := range s {
		if n == maxJaroRunes {
			break
		}
		dst[n] = r
		n++
	}
	return n
}

// Jaro returns the Jaro similarity of a and b. Strings longer than
// maxJaroRunes are compared by their leading maxJaroRunes runes, which
// is what lets the runes and match flags live in fixed arrays on the
// stack.
func Jaro(a, b string) float64 {
	var ra, rb [maxJaroRunes]rune
	return jaro(ra[:leadingRunes(&ra, a)], rb[:leadingRunes(&rb, b)])
}

// jaro is Jaro over decoded runes, at most maxJaroRunes of each string.
func jaro(ra, rb []rune) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := max(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	var matchA, matchB [maxJaroRunes]bool
	matches := 0
	for i := 0; i < la; i++ {
		lo := max(0, i-window)
		hi := min(lb-1, i+window)
		for j := lo; j <= hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions between matched characters.
	trans := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			trans++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(trans)/2)/m) / 3
}

// JaroWinkler returns the Jaro-Winkler similarity with the standard
// prefix scale of 0.1 and a maximum prefix length of 4.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	for i := 0; i < min(len(a), min(len(b), 4)); i++ {
		if a[i] != b[i] {
			break
		}
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// MongeElkan returns the Monge-Elkan similarity: for each token of a,
// the best secondary similarity against tokens of b, averaged over a.
// It is asymmetric; callers wanting symmetry should average both
// directions.
func MongeElkan(a, b []string, sim func(x, y string) float64) float64 {
	if len(a) == 0 {
		if len(b) == 0 {
			return 1
		}
		return 0
	}
	if len(b) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range a {
		best := 0.0
		for _, y := range b {
			if s := sim(x, y); s > best {
				best = s
			}
		}
		total += best
	}
	return total / float64(len(a))
}

// MongeElkanSym returns the symmetric mean of both Monge-Elkan
// directions.
func MongeElkanSym(a, b []string, sim func(x, y string) float64) float64 {
	return (MongeElkan(a, b, sim) + MongeElkan(b, a, sim)) / 2
}

// NumericSim compares two non-negative numbers: 1 when equal,
// decaying linearly with the relative difference, floored at 0. Two
// zeros are identical.
func NumericSim(a, b float64) float64 {
	if a == b {
		return 1
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 1
	}
	d := math.Abs(a-b) / m
	if d > 1 {
		d = 1
	}
	return 1 - d
}

// Pearson returns the Pearson correlation coefficient of xs and ys.
// It returns 0 when fewer than two points are given or either series
// has zero variance.
func Pearson(xs, ys []float64) float64 {
	n := min(len(xs), len(ys))
	if n < 2 {
		return 0
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var cov, vx, vy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}
