package features

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"llm4em/internal/tokenize"
)

// extractSeeds are FuzzExtractText's inline seeds.
var extractSeeds = []string{
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
}

// FuzzExtractText throws arbitrary byte soup — the dirty-data
// corruptor's output is a tame subset of it — at the extractor and the
// tokenizers underneath, pinning the invariants the rest of the system
// leans on: no panics, determinism, tokens that are really tokens, and
// a pair scorer that never emits NaN.
func FuzzExtractText(f *testing.F) {
	for _, seed := range extractSeeds {
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

// committedCorpus reads the string inputs of a fuzz target's committed
// corpus (testdata/fuzz/<target>), so another target can seed from it.
func committedCorpus(f *testing.F, target string) []string {
	f.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	var out []string
	for _, ent := range entries {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			f.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		q, ok := strings.CutPrefix(lines[len(lines)-1], "string(")
		if q, ok = strings.CutSuffix(q, ")"); !ok || len(lines) != 2 {
			f.Fatalf("%s: not a one-string corpus file", ent.Name())
		}
		s, err := strconv.Unquote(q)
		if err != nil {
			f.Fatalf("%s: %v", ent.Name(), err)
		}
		out = append(out, s)
	}
	return out
}

// storedForm is what a packed extraction keeps of e: every field but
// Raw where WordTokens stands in for it, and Tokens where TitleTokens
// does.
func storedForm(e Extracted) Extracted {
	if e.WordTokens != nil {
		e.Raw = ""
	}
	if len(e.TitleTokens) > 0 {
		e.Tokens = nil
	}
	return e
}

// FuzzPackExtraction pins the packed per-record cache form: Pack then
// Expand gives back exactly the stored form of an extraction — nil and
// empty lists apart, Raw kept where WordTokens is nil — whatever bytes
// the tokens hold, and the stored side scores against a query-side
// extraction bit for bit as the whole extraction does, in either
// argument position.
func FuzzPackExtraction(f *testing.F) {
	for _, seed := range extractSeeds {
		f.Add(seed)
	}
	for _, seed := range committedCorpus(f, "FuzzExtractText") {
		f.Add(seed)
	}
	for _, seed := range []string{
		"?!", "sony", "348.00",
		"Sony Cybershot DSC-120B digital camera black 348.00",
		"J. Smith, A. Jones. Query optimization. VLDB 2004",
		// Tokens of 127, 128 and 16 384 B straddle the one- and
		// two-byte and the two- and three-byte length prefixes.
		strings.Repeat("b", 127) + " " + strings.Repeat("c", 128) + " dsc" + strings.Repeat("9", 16381),
		"sony \x00 dsc-\x00120b \xc0\xaf\xed\xa0\x80 2004 12.99",
	} {
		f.Add(seed)
	}
	q := ExtractText("new sony dsc120 camera 299.00 2007")
	f.Fuzz(func(t *testing.T, s string) {
		whole := ExtractText(s)
		// Hand-built shapes beside the extractor's own: no word tokens
		// (Raw is then their fallback), and every nil list empty instead.
		noWords := whole
		noWords.WordTokens = nil
		empties := whole
		for _, l := range []*[]string{&empties.Tokens, &empties.WordTokens, &empties.Models, &empties.Versions,
			&empties.Variants, &empties.Colors, &empties.Editions, &empties.Authors, &empties.TitleTokens} {
			if *l == nil {
				*l = []string{}
			}
		}
		buf := []string{"left", "over"}
		for _, e := range []Extracted{whole, noWords, empties} {
			p := Pack(e)
			if p.IsZero() {
				t.Fatal("Pack returned the zero Packed")
			}
			want := storedForm(e)
			got, _ := p.Expand(nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Expand(Pack(e)) = %+v\nwant the stored form %+v", got, want)
			}
			var reused Extracted
			reused, buf = p.Expand(buf)
			if !reflect.DeepEqual(reused, want) {
				t.Fatalf("Expand into a used buffer = %+v\nwant %+v", reused, want)
			}
			for _, other := range []Extracted{q, whole} {
				v1, p1 := PairFeatures(other, e)
				v2, p2 := PairFeatures(other, got)
				v3, p3 := PairFeatures(e, other)
				v4, p4 := PairFeatures(got, other)
				if !sameBits(v1, v2) || !sameBits(v3, v4) || p1 != p2 || p3 != p4 {
					t.Fatalf("the packed side of %q scores differently", s)
				}
			}
		}
		if buf[0] != "left" || buf[1] != "over" {
			t.Fatal("Expand overwrote the buffer it appends to")
		}
	})
}

// sameBits reports whether two feature vectors are bit-identical.
func sameBits(a, b Vector) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
