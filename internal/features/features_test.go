package features

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExtractProductOffer(t *testing.T) {
	e := ExtractText("Sony Cybershot DSC-120B digital camera black 348.00")
	if e.Brand != "sony" {
		t.Errorf("Brand = %q, want sony", e.Brand)
	}
	if len(e.Models) != 1 || e.Models[0] != "dsc120b" {
		t.Errorf("Models = %v, want [dsc120b]", e.Models)
	}
	if !e.HasPrice || math.Abs(e.Price-348) > 0.001 {
		t.Errorf("Price = %v (%v)", e.Price, e.HasPrice)
	}
	if e.Domain.String() != "product" {
		t.Errorf("Domain = %v, want product", e.Domain)
	}
}

func TestExtractPublication(t *testing.T) {
	e := ExtractText("Michael Stonebraker, David DeWitt adaptive indexing in main-memory column stores SIGMOD Conference 1997")
	if !e.HasYear || e.Year != 1997 {
		t.Errorf("Year = %d (%v)", e.Year, e.HasYear)
	}
	if e.Venue != "SIGMOD Conference" {
		t.Errorf("Venue = %q", e.Venue)
	}
	if len(e.Authors) != 2 {
		t.Errorf("Authors = %v, want 2 surnames", e.Authors)
	}
	if e.Domain.String() != "publication" {
		t.Errorf("Domain = %v, want publication", e.Domain)
	}
	for _, w := range []string{"adaptive", "indexing"} {
		found := false
		for _, tok := range e.TitleTokens {
			if tok == w {
				found = true
			}
		}
		if !found {
			t.Errorf("title token %q missing from %v", w, e.TitleTokens)
		}
	}
}

func TestExtractVenueVariants(t *testing.T) {
	for _, s := range []string{
		"some title Proc. VLDB 2001",
		"some title pvldb 2001",
		"some title Very Large Data Bases 2001",
	} {
		e := ExtractText(s)
		if e.Venue != "VLDB" {
			t.Errorf("ExtractText(%q).Venue = %q, want VLDB", s, e.Venue)
		}
	}
}

func TestExtractTwoWordBrand(t *testing.T) {
	e := ExtractText("Western Digital Caviar WD-5000AAKS 500gb hard drive 89.99")
	if e.Brand != "western digital" {
		t.Errorf("Brand = %q, want western digital", e.Brand)
	}
}

func TestExtractVersions(t *testing.T) {
	e := ExtractText("adobe photoshop elements 5.0 full version 79.99")
	if len(e.Versions) != 1 || e.Versions[0] != "5.0" {
		t.Errorf("Versions = %v, want [5.0]", e.Versions)
	}
	if !e.HasPrice {
		t.Error("price should be recognized alongside version")
	}
}

func TestPriceVersusYearDisambiguation(t *testing.T) {
	e := ExtractText("widget 2005 149.99")
	if !e.HasYear || e.Year != 2005 {
		t.Errorf("year = %v (%v)", e.Year, e.HasYear)
	}
	if !e.HasPrice || e.Price != 149.99 {
		t.Errorf("price = %v (%v)", e.Price, e.HasPrice)
	}
}

func TestPairFeaturesIdenticalStrings(t *testing.T) {
	s := "Sony Cybershot DSC-120B digital camera black 348.00"
	v, p := PairFeaturesText(s, s)
	for _, f := range []Feature{TitleGenJaccard, TitleCosine, BrandMatch, ModelMatch, PriceMatch, OverallJaccard} {
		if !p[f] {
			t.Errorf("feature %v should be present", f)
			continue
		}
		if v[f] < 0.999 {
			t.Errorf("feature %v = %v, want 1 for identical strings", f, v[f])
		}
	}
}

func TestPairFeaturesModelMismatch(t *testing.T) {
	a := "Sony Cybershot DSC-120A digital camera 348.00"
	b := "Sony Cybershot DSC-120B digital camera 352.00"
	v, p := PairFeaturesText(a, b)
	if !p[ModelMatch] {
		t.Fatal("model feature should be present")
	}
	if v[ModelMatch] > 0.6 || v[ModelMatch] < 0.4 {
		t.Errorf("sibling suffix models = %v, want ~0.55", v[ModelMatch])
	}
	if v[BrandMatch] != 1 {
		t.Errorf("brand = %v, want 1", v[BrandMatch])
	}
}

func TestPairFeaturesCompactModelVariant(t *testing.T) {
	a := "Sony DSC-120B camera 348.00"
	b := "sony dsc120b camera 349.99"
	v, _ := PairFeaturesText(a, b)
	if v[ModelMatch] != 1 {
		t.Errorf("dash vs compact model = %v, want 1", v[ModelMatch])
	}
}

func TestPairFeaturesMissingEvidence(t *testing.T) {
	a := "generic camera bundle"
	b := "another camera kit 12.00"
	_, p := PairFeaturesText(a, b)
	if p[ModelMatch] || p[BrandMatch] || p[PriceMatch] || p[YearMatch] {
		t.Error("features without two-sided evidence must be absent")
	}
	if !p[TitleGenJaccard] || !p[OverallJaccard] {
		t.Error("title features must always be present")
	}
}

func TestYearMatchGrading(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"paper x VLDB 2001", "paper x vldb 2001", 1},
		{"paper x VLDB 2001", "paper x vldb 2002", 0.5},
		{"paper x VLDB 2001", "paper x vldb 2005", 0},
	}
	for _, c := range cases {
		v, p := PairFeaturesText(c.a, c.b)
		if !p[YearMatch] {
			t.Fatalf("year feature missing for %q/%q", c.a, c.b)
		}
		if v[YearMatch] != c.want {
			t.Errorf("YearMatch(%q,%q) = %v, want %v", c.a, c.b, v[YearMatch], c.want)
		}
	}
}

func TestVersionSimNormalization(t *testing.T) {
	v, p := PairFeaturesText(
		"adobe photoshop elements 5.0 full version 79.99",
		"photoshop elements 5 upgrade 49.99",
	)
	if !p[VersionMatch] {
		t.Fatal("version feature missing")
	}
	if v[VersionMatch] < 0.85 {
		t.Errorf("5.0 vs 5 = %v, want >= 0.9", v[VersionMatch])
	}
	v2, _ := PairFeaturesText(
		"adobe photoshop elements 5.0 79.99",
		"adobe photoshop elements 6.0 89.99",
	)
	if v2[VersionMatch] > 0.2 {
		t.Errorf("5.0 vs 6.0 = %v, want <= 0.1", v2[VersionMatch])
	}
}

func TestFeatureValuesBounded(t *testing.T) {
	f := func(a, b string) bool {
		v, _ := PairFeaturesText(a, b)
		for i := 0; i < int(NumFeatures); i++ {
			if v[i] < 0 || v[i] > 1+1e-9 || math.IsNaN(v[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPairFeaturesSymmetric(t *testing.T) {
	a := "Sony Cybershot DSC-120B camera black 348.00"
	b := "new sony dsc120 camera 299.00"
	v1, p1 := PairFeaturesText(a, b)
	v2, p2 := PairFeaturesText(b, a)
	for i := 0; i < int(NumFeatures); i++ {
		if p1[i] != p2[i] {
			t.Errorf("presence of %v differs by direction", Feature(i))
		}
		if math.Abs(v1[i]-v2[i]) > 1e-9 {
			t.Errorf("feature %v asymmetric: %v vs %v", Feature(i), v1[i], v2[i])
		}
	}
}

func TestScoreSkipsMissing(t *testing.T) {
	ws := Ideal()
	var v Vector
	var p Presence
	base := ws.Score(v, p) // only bias
	if base != ws.Bias {
		t.Errorf("empty presence score = %v, want bias %v", base, ws.Bias)
	}
	p[ModelMatch] = true
	v[ModelMatch] = 1
	withModel := ws.Score(v, p)
	if withModel <= base {
		t.Error("perfect model match should raise the score")
	}
}

func TestBlendEndpoints(t *testing.T) {
	a, b := Ideal(), TitleOnly()
	if got := Blend(a, b, 0); got != a {
		t.Error("Blend(t=0) should equal first argument")
	}
	if got := Blend(a, b, 1); got != b {
		t.Error("Blend(t=1) should equal second argument")
	}
	mid := Blend(a, b, 0.5)
	if mid.W[ModelMatch] <= b.W[ModelMatch] || mid.W[ModelMatch] >= a.W[ModelMatch] {
		t.Error("Blend(t=0.5) should be strictly between endpoints")
	}
}

func TestSigmoid(t *testing.T) {
	if Sigmoid(0) != 0.5 {
		t.Error("Sigmoid(0) should be 0.5")
	}
	if Sigmoid(10) < 0.99 || Sigmoid(-10) > 0.01 {
		t.Error("Sigmoid saturation wrong")
	}
}

func TestFeatureNames(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < int(NumFeatures); i++ {
		name := Feature(i).String()
		if name == "" || name == "feature" {
			t.Errorf("feature %d lacks a name", i)
		}
		if seen[name] {
			t.Errorf("duplicate feature name %q", name)
		}
		seen[name] = true
	}
}

// TestVenueFusedToken pins venue detection when the venue acronym is
// fused with a year into one alphanumeric token — the case the
// token-gated lexicon probe must cover via the letter prefix, since
// "vldb2004" never appears as the bare word token "vldb".
func TestVenueFusedToken(t *testing.T) {
	cases := map[string]string{
		"efficient joins in vldb2004 proceedings": "VLDB",
		"scalable matching icde2019 paper":        "ICDE",
		"query answering Proc. SIGMOD 2001":       "SIGMOD Conference",
		"no venue words at all":                   "",
	}
	for text, want := range cases {
		if got := ExtractText(text).Venue; got != want {
			t.Errorf("ExtractText(%q).Venue = %q, want %q", text, got, want)
		}
	}
}

// TestStoredKeepsPairFeatures: the Stored part of an extraction scores
// against a whole query-side extraction exactly as the whole one does,
// in either argument position, on generated strings and on the shapes
// where a fallback is all there is (no word tokens, no title left).
func TestStoredKeepsPairFeatures(t *testing.T) {
	q := ExtractText("new sony dsc120 camera 299.00")
	same := func(s string) bool {
		whole := ExtractText(s)
		stored := whole.Stored()
		v1, p1 := PairFeatures(q, whole)
		v2, p2 := PairFeatures(q, stored)
		v3, p3 := PairFeatures(stored, q)
		v4, p4 := PairFeatures(whole, q)
		return v1 == v2 && p1 == p2 && v3 == v4 && p3 == p4
	}
	for _, s := range []string{"", "?!", "sony", "348.00", "Sony Cybershot DSC-120B digital camera black 348.00",
		"J. Smith, A. Jones. Query optimization. VLDB 2004"} {
		if !same(s) {
			t.Errorf("Stored() changes the features of %q", s)
		}
	}
	if err := quick.Check(same, nil); err != nil {
		t.Fatal(err)
	}
	stored := ExtractText("Sony Cybershot DSC-120B digital camera black 348.00").Stored()
	if stored.Raw != "" || stored.Tokens != nil || len(stored.TitleTokens) == 0 || len(stored.WordTokens) == 0 {
		t.Errorf("Stored() = %+v, want no Raw and no Tokens beside its title and word tokens", stored)
	}
	if bare := ExtractText("348.00").Stored(); len(bare.TitleTokens) != 0 || len(bare.Tokens) != 1 {
		t.Errorf("Stored() = %+v, want a price-only text to keep Tokens, its title fallback", bare)
	}
}
