package vocab

import "testing"

func TestCatalogCoverage(t *testing.T) {
	for _, c := range Categories() {
		if len(BrandsByCategory(c)) < 8 {
			t.Errorf("category %s has only %d brands", c, len(BrandsByCategory(c)))
		}
		if len(ProductTypesByCategory(c)) < 5 {
			t.Errorf("category %s has only %d product types", c, len(ProductTypesByCategory(c)))
		}
		for _, b := range BrandsByCategory(c) {
			if b.Name == "" || len(b.Lines) == 0 {
				t.Errorf("brand %+v incomplete in %s", b, c)
			}
		}
	}
}

func TestAllBrandNamesIncludesVendors(t *testing.T) {
	names := AllBrandNames()
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate brand name %q", n)
		}
		seen[n] = true
	}
	if !seen["Sony"] || !seen["Microsoft"] {
		t.Error("AllBrandNames should span products and software vendors")
	}
}

func TestVenuesHaveVariants(t *testing.T) {
	var conf, journal int
	for _, v := range Venues {
		if v.Full == "" || len(v.Variants) == 0 {
			t.Errorf("venue %+v incomplete", v)
		}
		if v.Journal {
			journal++
		} else {
			conf++
		}
	}
	if conf < 5 || journal < 3 {
		t.Errorf("venue mix: %d conferences, %d journals", conf, journal)
	}
}

func TestNamePools(t *testing.T) {
	if len(FirstNames) < 40 || len(LastNames) < 40 {
		t.Errorf("name pools too small: %d/%d", len(FirstNames), len(LastNames))
	}
	if len(TopicPhrases) < 20 {
		t.Errorf("only %d topic phrases", len(TopicPhrases))
	}
	for _, tp := range TopicPhrases {
		if len(tp) != 3 {
			t.Errorf("topic phrase %v should have 3 segments", tp)
		}
	}
}

func TestSoftwareVendors(t *testing.T) {
	if len(SoftwareVendors) < 10 {
		t.Errorf("only %d software vendors", len(SoftwareVendors))
	}
	for _, v := range SoftwareVendors {
		if v.Name == "" || len(v.Products) == 0 {
			t.Errorf("vendor %+v incomplete", v)
		}
	}
}

func TestAbbreviate(t *testing.T) {
	if got := Abbreviate("wireless", 4); got != "wire." {
		t.Errorf("Abbreviate = %q", got)
	}
	if got := Abbreviate("usb", 4); got != "usb" {
		t.Errorf("short words should pass through, got %q", got)
	}
}
