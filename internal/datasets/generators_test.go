package datasets

import (
	"strings"
	"testing"

	"llm4em/internal/detrand"
	"llm4em/internal/vocab"
)

func TestMaybeAbbreviateSparesIdentifiers(t *testing.T) {
	rng := detrand.New("abbr-test")
	s := "wireless headphones DSC-1208B premium"
	for i := 0; i < 50; i++ {
		out := maybeAbbreviate(s, 1.0, rng)
		if !strings.Contains(out, "DSC-1208B") {
			t.Fatalf("model token abbreviated: %q", out)
		}
	}
	// With probability 1, long plain words must eventually shorten.
	out := maybeAbbreviate("wireless headphones premium", 1.0, rng)
	if !strings.Contains(out, ".") {
		t.Errorf("no abbreviation applied: %q", out)
	}
}

func TestMaybeTypoSparesIdentifiers(t *testing.T) {
	rng := detrand.New("typo-test")
	for i := 0; i < 200; i++ {
		out := maybeTypo("sony DSC120B camera", 1.0, rng)
		if !strings.Contains(out, "DSC120B") {
			t.Fatalf("typo hit the identifier: %q", out)
		}
	}
}

func TestPriceApartAvoidsUnity(t *testing.T) {
	rng := detrand.New("price-test")
	for i := 0; i < 500; i++ {
		m := priceApart(rng)
		if m > 0.80 && m < 1.25 {
			t.Fatalf("priceApart returned %v inside the match-jitter band", m)
		}
		if m < 0.5 || m > 1.75 {
			t.Fatalf("priceApart returned %v outside the documented range", m)
		}
	}
}

func TestPickVariantOtherDiffers(t *testing.T) {
	rng := detrand.New("variant-test")
	for i := 0; i < 100; i++ {
		v := pickVariantOther(rng, vocab.Electronics, "black")
		if v == "black" {
			t.Fatal("pickVariantOther returned the excluded variant")
		}
	}
}

func TestFilterBrands(t *testing.T) {
	brands := vocab.BrandsByCategory(vocab.Electronics)
	all := filterBrands(brands, 0, 0)
	if len(all) != len(brands) {
		t.Error("mod 0 should keep all brands")
	}
	even := filterBrands(brands, 2, 0)
	odd := filterBrands(brands, 2, 1)
	if len(even)+len(odd) != len(brands) {
		t.Errorf("partition sizes %d+%d != %d", len(even), len(odd), len(brands))
	}
	for _, e := range even {
		for _, o := range odd {
			if e.Name == o.Name {
				t.Errorf("brand %s in both partitions", e.Name)
			}
		}
	}
}

func TestHardenMonotone(t *testing.T) {
	base := sourceStyle{abbrevProb: 0.1, dropModelProb: 0.1, dropBrandProb: 0.1, priceJitter: 0.03, noiseWordProb: 0.2, typoProb: 0.05}
	h := harden(base)
	if h.abbrevProb <= base.abbrevProb || h.dropModelProb <= base.dropModelProb ||
		h.priceJitter <= base.priceJitter {
		t.Errorf("harden should intensify perturbations: %+v", h)
	}
	// Caps hold even when hardening an already-hard style.
	hh := harden(harden(harden(base)))
	if hh.abbrevProb > 0.40+1e-9 || hh.dropModelProb > 0.45+1e-9 {
		t.Errorf("harden exceeded caps: %+v", hh)
	}

	bib := bibStyle{initialsProb: 0.2, dropAuthorProb: 0.05, venueVariantP: 0.3, titleTruncProb: 0.04, titleAbbrevProb: 0.02, missingYearP: 0.03}
	hb := hardenBib(bib)
	if hb.initialsProb <= bib.initialsProb || hb.dropAuthorProb <= bib.dropAuthorProb || hb.venueVariantP <= bib.venueVariantP ||
		hb.titleTruncProb <= bib.titleTruncProb || hb.titleAbbrevProb <= bib.titleAbbrevProb || hb.missingYearP <= bib.missingYearP {
		t.Errorf("hardenBib should intensify perturbations: %+v", hb)
	}
	hhb := hardenBib(hardenBib(hardenBib(bib)))
	if hhb.initialsProb > 0.95+1e-9 || hhb.dropAuthorProb > 0.6+1e-9 || hhb.venueVariantP > 0.95+1e-9 ||
		hhb.titleTruncProb > 0.6+1e-9 || hhb.titleAbbrevProb > 0.5+1e-9 || hhb.missingYearP > 0.5+1e-9 {
		t.Errorf("hardenBib exceeded caps: %+v", hhb)
	}

	sw := softwareStyle{dropVersionProb: 0.14, dropEditionProb: 0.28, versionReformat: 0.22, priceJitter: 0.1}
	hs := hardenSoftware(sw)
	if hs.dropVersionProb <= sw.dropVersionProb || hs.dropEditionProb <= sw.dropEditionProb ||
		hs.versionReformat <= sw.versionReformat || hs.priceJitter <= sw.priceJitter {
		t.Errorf("hardenSoftware should intensify perturbations: %+v", hs)
	}
	hhs := hardenSoftware(hardenSoftware(hardenSoftware(sw)))
	if hhs.dropVersionProb > 0.9+1e-9 || hhs.dropEditionProb > 0.95+1e-9 || hhs.versionReformat > 0.45+1e-9 {
		t.Errorf("hardenSoftware exceeded caps: %+v", hhs)
	}
}

func TestSiblingProductsDiffer(t *testing.T) {
	cfg := productConfig{config: config[sourceStyle]{key: "sibling-test", families: 50}, categories: []vocab.Category{vocab.Electronics}}
	universe := buildUniverse(cfg)
	byFamily := map[int][]product{}
	for _, p := range universe {
		byFamily[p.family] = append(byFamily[p.family], p)
	}
	for fam, sibs := range byFamily {
		for i := 0; i < len(sibs); i++ {
			for j := i + 1; j < len(sibs); j++ {
				a, b := sibs[i], sibs[j]
				if a.model() == b.model() && a.variant == b.variant {
					t.Fatalf("family %d has indistinguishable siblings: %+v vs %+v", fam, a, b)
				}
			}
		}
	}
}

func TestReformatVersion(t *testing.T) {
	tests := map[string]string{
		"5.0":  "5",
		"2007": "07",
		"5.5":  "v5.5",
	}
	for in, want := range tests {
		if got := reformatVersion(in); got != want {
			t.Errorf("reformatVersion(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestBibAuthorRendering(t *testing.T) {
	a := author{first: "Michael", last: "Stonebraker"}
	if a.full() != "Michael Stonebraker" || a.initial() != "M. Stonebraker" {
		t.Errorf("author rendering: %q / %q", a.full(), a.initial())
	}
}
