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
	// Past every evidence cap, with authors behind first names and
	// initials.
	strings.Repeat("m stonebraker david dewitt dsc-120b 8gb black v5.5 2004 12.99 ", 40),
}

// FuzzExtractText throws arbitrary byte soup — the dirty-data
// corruptor's output is a tame subset of it — at the extractor and the
// tokenizers underneath. The extraction must equal the oracle's
// (oracleExtractText), nil and empty lists apart, also when cut from a
// used buffer, which it must not overwrite. The fuzz also pins the
// invariants the rest of the system leans on: no panics, tokens that
// are really tokens, and a pair scorer that never emits NaN.
func FuzzExtractText(f *testing.F) {
	for _, seed := range extractSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		e := ExtractText(s)
		if want := oracleExtractText(s); !reflect.DeepEqual(e, want) {
			t.Fatalf("ExtractText(%q) = %+v\nwant the oracle's %+v", s, e, want)
		}
		buf := []string{"left", "over"}
		first, buf := ExtractInto("sony dsc-120b black 2004 348.00", buf)
		second, buf := ExtractInto(s, buf)
		if !reflect.DeepEqual(second, e) {
			t.Fatalf("ExtractInto a used buffer = %+v\nwant %+v", second, e)
		}
		if buf[0] != "left" || buf[1] != "over" || !reflect.DeepEqual(first, ExtractText("sony dsc-120b black 2004 348.00")) {
			t.Fatal("ExtractInto overwrote the buffer it appends to")
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

// storedForm is the projection of e the store once cached per record:
// Raw dropped where WordTokens stands in for it, and Tokens where
// TitleTokens does.
func storedForm(e Extracted) Extracted {
	if e.WordTokens != nil {
		e.Raw = ""
	}
	if len(e.TitleTokens) > 0 {
		e.Tokens = nil
	}
	return e
}

// FuzzPackExtraction pins that PairFeatures reads Raw and Tokens only
// as the fallbacks for WordTokens and TitleTokens: an extraction scores
// against a query-side one bit for bit as its stored form does, in
// either argument position, whatever bytes the tokens hold. The same
// holds for hand-built shapes: no word tokens (Raw is then their
// fallback) and every nil list empty instead. Scoring a candidate from
// a whole extraction therefore decides as scoring it from the stored
// form did.
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
		// Tokens of 127, 128 and 16 384 B, which straddled the length
		// prefixes of the packed form the store once cached.
		strings.Repeat("b", 127) + " " + strings.Repeat("c", 128) + " dsc" + strings.Repeat("9", 16381),
		"sony \x00 dsc-\x00120b \xc0\xaf\xed\xa0\x80 2004 12.99",
	} {
		f.Add(seed)
	}
	q := ExtractText("new sony dsc120 camera 299.00 2007")
	f.Fuzz(func(t *testing.T, s string) {
		whole := ExtractText(s)
		noWords := whole
		noWords.WordTokens = nil
		empties := whole
		for _, l := range []*[]string{&empties.Tokens, &empties.WordTokens, &empties.Models, &empties.Versions,
			&empties.Variants, &empties.Colors, &empties.Editions, &empties.Authors, &empties.TitleTokens} {
			if *l == nil {
				*l = []string{}
			}
		}
		for _, e := range []Extracted{whole, noWords, empties} {
			stored := storedForm(e)
			for _, other := range []Extracted{q, whole} {
				v1, p1 := PairFeatures(other, e)
				v2, p2 := PairFeatures(other, stored)
				v3, p3 := PairFeatures(e, other)
				v4, p4 := PairFeatures(stored, other)
				if !sameBits(v1, v2) || !sameBits(v3, v4) || p1 != p2 || p3 != p4 {
					t.Fatalf("the stored form of %q scores differently", s)
				}
			}
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
