package features

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode"

	"llm4em/internal/tokenize"
)

// FuzzExtractText throws arbitrary byte soup — the dirty-data
// corruptor's output is a tame subset of it — at the extractor and the
// tokenizers underneath, pinning the invariants the rest of the system
// leans on: no panics, determinism, tokens that are really tokens, and
// a pair scorer that never emits NaN.
func FuzzExtractText(f *testing.F) {
	for _, seed := range []string{
		"",
		" ",
		"sony cybershot dsc-120b 348.00",
		"j smith scalable entity matching vldb 2004",
		"Música • ►ñandú 'quoted' \"x\" 19-inch",
		"\xff\xfe broken utf8 \x80 midrun",
		"v5.5 8gb 1080p wd-5000aaks upgrade full version",
		"price 0.00 year 1950 2029 . -/. ----",
		strings.Repeat("a", 5000),
		strings.Repeat("é¤Ω≈ç√ ", 100),
		"\x00nul\x00bytes\x00",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		e := ExtractText(s)
		if e.Raw != s {
			t.Fatalf("Raw = %q, want input %q", e.Raw, s)
		}
		if again := ExtractText(s); !reflect.DeepEqual(e, again) {
			t.Fatal("extraction is not deterministic")
		}
		// Tokens are non-empty, lower-cased, and free of separators.
		// Lower-cased means every rune is its own lower case: an upper-
		// case letter with no lower-case form (U+03D3 "ϓ") stays as is.
		for _, tok := range append(append([]string{}, e.Tokens...), e.WordTokens...) {
			if tok == "" {
				t.Fatal("empty token")
			}
			for _, r := range tok {
				if unicode.IsSpace(r) || unicode.ToLower(r) != r {
					t.Fatalf("token %q contains space or upper-case", tok)
				}
			}
		}
		// The residual title is a sub-multiset of the token sequence.
		counts := tokenize.Counts(e.Tokens)
		for _, tok := range e.TitleTokens {
			counts[tok]--
			if counts[tok] < 0 {
				t.Fatalf("title token %q not drawn from Tokens", tok)
			}
		}
		// The token estimator stays sane on the same soup.
		n := tokenize.EstimateTokens(s)
		if n < 0 {
			t.Fatalf("EstimateTokens(%q) = %d", s, n)
		}
		if strings.TrimSpace(s) != "" && n == 0 {
			t.Fatalf("EstimateTokens(%q) = 0 for non-blank input", s)
		}
		// The pair scorer downstream must never emit NaN, even for a
		// string paired with itself or with nothing.
		ws := Ideal()
		for _, other := range []string{s, ""} {
			v, pres := PairFeaturesText(s, other)
			p := ws.Probability(v, pres)
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Fatalf("Probability(%q, %q) = %v", s, other, p)
			}
		}
	})
}
