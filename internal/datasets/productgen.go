package datasets

import (
	"fmt"
	"strings"

	"llm4em/internal/detrand"
	"llm4em/internal/vocab"
)

// product is one item of the synthetic product universe. Products are
// organized into families (same brand, line and type); siblings within
// a family differ only in model number, variant or capacity and are
// the source of corner-case non-matches.
type product struct {
	category  vocab.Category
	brand     string
	line      string
	ptype     string
	modelStem string // letters, e.g. "DSC"
	modelNum  int    // numeric part, e.g. 120
	modelSfx  string // optional suffix letter, e.g. "B"
	variant   string // color/capacity/size word, may be empty
	price     float64
	family    int
}

// model renders the canonical model number, e.g. "DSC-120B".
func (p product) model() string {
	return fmt.Sprintf("%s-%d%s", p.modelStem, p.modelNum, p.modelSfx)
}

// modelCompact renders the model without the dash, a common surface
// variant ("DSC120B").
func (p product) modelCompact() string {
	return fmt.Sprintf("%s%d%s", p.modelStem, p.modelNum, p.modelSfx)
}

// featurePhrases enrich textual product titles (Abt-Buy style offers
// describe "various product features", Section 2).
var featurePhrases = map[vocab.Category][]string{
	vocab.Electronics: {
		"with 10x optical zoom", "2.7-inch lcd screen", "1080p full hd",
		"built-in wifi", "image stabilization", "usb 2.0 interface",
		"rechargeable battery included", "hdmi output", "noise cancelling",
		"up to 30 hours battery life",
	},
	vocab.Tools: {
		"with 2 batteries and charger", "variable speed trigger",
		"led work light", "keyless chuck", "brushless motor",
		"includes carrying case", "1/2-inch chuck",
	},
	vocab.Clothing: {
		"moisture wicking fabric", "water resistant", "machine washable",
		"relaxed fit", "breathable mesh lining", "reinforced seams",
	},
	vocab.Kitchen: {
		"stainless steel finish", "dishwasher safe parts", "5-quart bowl",
		"10 speed settings", "programmable timer", "bpa free",
	},
}

// sourceStyle parameterizes how one data source renders offers for the
// same product; the two sides of a benchmark use different styles,
// which is what creates surface heterogeneity between matches.
type sourceStyle struct {
	noiseWordProb   float64 // prepend/append a marketing-noise word
	sellerProb      float64 // append a seller decoration
	abbrevProb      float64 // abbreviate a title word
	dropBrandProb   float64 // omit the brand token from the title
	modelCompactPro float64 // render the model without its dash
	dropModelProb   float64 // omit the model number from the title
	featureProb     float64 // append a category feature phrase
	priceJitter     float64 // relative sigma of price perturbation
	missingPriceP   float64 // leave the price attribute empty
	typoProb        float64 // introduce a character transposition
	dropTypeProb    float64 // drop the product-type words
}

// productConfig fully describes one product-domain benchmark.
type productConfig struct {
	config[sourceStyle]
	categories    []vocab.Category
	ambiguousRate float64 // fraction of corner negatives with the model hidden
	// brandMod/brandRem restrict the brand catalog of the dataset to
	// the indices i with i % brandMod == brandRem (brandMod 0 keeps
	// all brands). Real product benchmarks cover largely disjoint
	// retailer catalogs; partitioning the brand pool reproduces the
	// limited vocabulary overlap that makes transferred PLM matchers
	// degrade on unseen entities (Table 4).
	brandMod, brandRem int
}

// productSampler draws a product benchmark's pairs from its universe.
// A sibling negative hides its B side's model number with probability
// ambiguousRate: the most difficult corner-case non-matches.
func productSampler(cfg productConfig) sampler[product, sourceStyle] {
	return sampler[product, sourceStyle]{
		config:   cfg.config,
		universe: buildUniverse(cfg),
		family:   func(p product) int { return p.family },
		render:   renderOffer,
		harden:   harden,
		hide:     hideModel,
		hideRate: cfg.ambiguousRate,
	}
}

// buildUniverse deterministically creates the product universe for a
// config: cfg.families families of 2-4 sibling products each.
func buildUniverse(cfg productConfig) []product {
	rng := detrand.New("universe", cfg.key)
	var all []product
	for f := 0; f < cfg.families; f++ {
		cat := cfg.categories[rng.Intn(len(cfg.categories))]
		brands := filterBrands(vocab.BrandsByCategory(cat), cfg.brandMod, cfg.brandRem)
		brand := brands[rng.Intn(len(brands))]
		line := brand.Lines[rng.Intn(len(brand.Lines))]
		types := vocab.ProductTypesByCategory(cat)
		ptype := types[rng.Intn(len(types))]
		stem := randomStem(rng)
		baseNum := 100 + rng.Intn(900)
		basePrice := 10 + rng.Float64()*990
		baseVariant := ""
		if rng.Bool(0.5) {
			baseVariant = pickVariant(rng, cat)
		}
		siblings := 2 + rng.Intn(3)
		for s := 0; s < siblings; s++ {
			p := product{
				category:  cat,
				brand:     brand.Name,
				line:      line,
				ptype:     ptype,
				modelStem: stem,
				modelNum:  baseNum,
				variant:   baseVariant,
				price:     basePrice,
				family:    f,
			}
			// Every sibling must differ from the base in at least one
			// identity attribute (model number, suffix or variant);
			// sibling prices are kept clearly apart from the base so
			// price remains weak but usable corner-case evidence.
			switch s {
			case 1:
				// Sibling differing in the numeric model part.
				p.modelNum = baseNum + 10*(1+rng.Intn(5))
				p.price = basePrice * priceApart(rng)
			case 2:
				// Sibling differing in suffix and variant.
				p.modelSfx = string(rune('A' + rng.Intn(4)))
				p.variant = pickVariantOther(rng, cat, baseVariant)
				p.price = basePrice * priceApart(rng)
			case 3:
				// Sibling differing in both number and suffix.
				p.modelNum = baseNum + 5 + 10*rng.Intn(4)
				p.modelSfx = string(rune('A' + rng.Intn(4)))
				p.price = basePrice * priceApart(rng)
			}
			all = append(all, p)
		}
	}
	return all
}

// filterBrands keeps the brand indices selected by mod/rem; mod 0
// keeps everything.
func filterBrands(brands []vocab.Brand, mod, rem int) []vocab.Brand {
	if mod <= 0 {
		return brands
	}
	out := make([]vocab.Brand, 0, len(brands)/mod+1)
	for i, b := range brands {
		if i%mod == rem {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		return brands
	}
	return out
}

func randomStem(rng *detrand.RNG) string {
	n := 2 + rng.Intn(2)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(byte('A' + rng.Intn(26)))
	}
	return b.String()
}

// priceApart returns a multiplier clearly away from 1 so sibling
// prices do not overlap the jitter applied to matching offers.
func priceApart(rng *detrand.RNG) float64 {
	if rng.Bool(0.5) {
		return 0.55 + 0.25*rng.Float64() // 0.55-0.80
	}
	return 1.25 + 0.45*rng.Float64() // 1.25-1.70
}

// pickVariantOther picks a variant different from the given one.
func pickVariantOther(rng *detrand.RNG, cat vocab.Category, not string) string {
	for i := 0; i < 8; i++ {
		if v := pickVariant(rng, cat); v != not {
			return v
		}
	}
	return "special edition"
}

func pickVariant(rng *detrand.RNG, cat vocab.Category) string {
	switch cat {
	case vocab.Electronics:
		if rng.Bool(0.5) {
			return vocab.Capacities[rng.Intn(len(vocab.Capacities))]
		}
		return vocab.Colors[rng.Intn(len(vocab.Colors))]
	case vocab.Clothing:
		if rng.Bool(0.5) {
			return vocab.Sizes[rng.Intn(len(vocab.Sizes))]
		}
		return vocab.Colors[rng.Intn(len(vocab.Colors))]
	default:
		return vocab.Colors[rng.Intn(len(vocab.Colors))]
	}
}

// renderOffer renders one offer for a product under a source style.
// Attributes a benchmark's schema lacks are folded into the title, as
// in the original benchmarks.
func renderOffer(p product, st sourceStyle, rng *detrand.RNG) map[string]string {
	includeBrand := !rng.Bool(st.dropBrandProb)
	includeModel := !rng.Bool(st.dropModelProb)
	includeType := !rng.Bool(st.dropTypeProb)
	// Real offers always retain some identity core: a listing never
	// drops both the model number and the product type.
	if !includeModel {
		includeType = true
	}
	modelStr := p.model()
	if rng.Bool(st.modelCompactPro) {
		modelStr = p.modelCompact()
	}

	var words []string
	if rng.Bool(st.noiseWordProb) {
		words = append(words, vocab.MarketingNoise[rng.Intn(len(vocab.MarketingNoise))])
	}
	if includeBrand {
		words = append(words, p.brand)
	}
	words = append(words, p.line)
	if includeModel {
		words = append(words, modelStr)
	}
	if includeType {
		words = append(words, p.ptype)
	}
	if p.variant != "" && rng.Bool(0.85) {
		words = append(words, p.variant)
	}
	if rng.Bool(st.featureProb) {
		fp := featurePhrases[p.category]
		words = append(words, fp[rng.Intn(len(fp))])
	}
	if rng.Bool(st.sellerProb) {
		words = append(words, vocab.SellerSuffixes[rng.Intn(len(vocab.SellerSuffixes))])
	}
	title := strings.Join(words, " ")
	title = maybeAbbreviate(title, st.abbrevProb, rng)
	title = maybeTypo(title, st.typoProb, rng)
	if rng.Bool(0.5) {
		title = strings.ToLower(title)
	}

	price := ""
	if !rng.Bool(st.missingPriceP) {
		jittered := p.price * (1 + st.priceJitter*rng.Gauss())
		if jittered < 1 {
			jittered = 1
		}
		price = fmt.Sprintf("%.2f", jittered)
	}

	values := map[string]string{
		"brand":    p.brand,
		"title":    title,
		"currency": "USD",
		"price":    price,
		"modelno":  strings.ToLower(modelStr),
	}
	if !includeBrand && rng.Bool(0.5) {
		values["brand"] = "" // source also lacks the structured brand
	}
	// Structured sources usually keep the modelno field even when the
	// title omits it.
	if !includeModel && rng.Bool(0.3) {
		values["modelno"] = ""
	}
	return values
}

// maybeAbbreviate abbreviates each word of s independently with
// probability p. Tokens containing digits (model numbers, prices,
// years) are never abbreviated: real-world sources shorten words, not
// identifiers.
func maybeAbbreviate(s string, p float64, rng *detrand.RNG) string {
	if p == 0 {
		return s
	}
	words := strings.Fields(s)
	for i, w := range words {
		if len(w) > 5 && !hasDigit(w) && rng.Bool(p) {
			words[i] = vocab.Abbreviate(w, 3+rng.Intn(2))
		}
	}
	return strings.Join(words, " ")
}

func hasDigit(s string) bool {
	for _, r := range s {
		if r >= '0' && r <= '9' {
			return true
		}
	}
	return false
}

// maybeTypo swaps one adjacent character pair in a letter-only word
// with probability p. Identifiers (tokens with digits) are spared:
// vendors mistype words, not SKUs they copy-paste.
func maybeTypo(s string, p float64, rng *detrand.RNG) string {
	if !rng.Bool(p) {
		return s
	}
	words := strings.Fields(s)
	// Deterministically probe a handful of positions for a suitable
	// word.
	for try := 0; try < 4; try++ {
		i := rng.Intn(len(words))
		w := words[i]
		if len(w) >= 4 && !hasDigit(w) {
			b := []byte(w)
			j := 1 + rng.Intn(len(b)-2)
			b[j], b[j+1] = b[j+1], b[j]
			words[i] = string(b)
			break
		}
	}
	return strings.Join(words, " ")
}

// harden intensifies a style for corner-case matches: the same
// product is rendered so differently that naive surface comparison
// suggests a non-match.
func harden(st sourceStyle) sourceStyle {
	st.abbrevProb = min(st.abbrevProb+0.18, 0.40)
	st.dropModelProb = min(st.dropModelProb+0.22, 0.45)
	st.dropBrandProb = min(st.dropBrandProb+0.15, 0.40)
	st.priceJitter = st.priceJitter * 2
	st.noiseWordProb = min(st.noiseWordProb+0.2, 0.8)
	st.typoProb = min(st.typoProb+0.08, 0.25)
	return st
}

// hideModel drops the model number from every offer of a style.
func hideModel(st sourceStyle) sourceStyle {
	st.dropModelProb = 1
	return st
}
