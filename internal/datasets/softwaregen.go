package datasets

import (
	"fmt"
	"strings"

	"llm4em/internal/detrand"
	"llm4em/internal/vocab"
)

// softwareItem is one entry of the Amazon-Google software universe:
// a vendor product at a specific version and edition. Sibling items
// (same product, different version or edition) produce the dataset's
// notorious corner cases, e.g. "different versions of the Windows
// operating system" (Section 2).
type softwareItem struct {
	vendor  string
	product string
	version string // "5.0", "2007", may be empty
	edition string // "upgrade", "full version", ... may be empty
	price   float64
	family  int
	// editionCritical marks items whose identity depends on the
	// edition word alone (same product and version as a sibling);
	// offers for such items always state the edition.
	editionCritical bool
}

// softwareStyle controls how a source renders software offers.
type softwareStyle struct {
	dropVendorProb  float64
	dropVersionProb float64
	dropEditionProb float64
	versionReformat float64 // "5.0" <-> "5", "2007" <-> "07"
	noiseWordProb   float64
	priceJitter     float64
	missingPriceP   float64
	wordShuffleProb float64
}

// buildSoftwareUniverse creates cfg.families product families of 2-4
// version/edition siblings each.
func buildSoftwareUniverse(cfg config[softwareStyle]) []softwareItem {
	rng := detrand.New("universe", cfg.key)
	var all []softwareItem
	versionsFor := func() []string {
		if rng.Bool(0.5) {
			// Point versions.
			base := 1 + rng.Intn(9)
			return []string{
				fmt.Sprintf("%d.0", base),
				fmt.Sprintf("%d.0", base+1),
				fmt.Sprintf("%d.5", base),
			}
		}
		// Year versions.
		base := 2003 + rng.Intn(6)
		return []string{
			fmt.Sprintf("%d", base),
			fmt.Sprintf("%d", base+1),
			fmt.Sprintf("%d", base+2),
		}
	}
	for f := 0; f < cfg.families; f++ {
		vendor := vocab.SoftwareVendors[rng.Intn(len(vocab.SoftwareVendors))]
		prod := vendor.Products[rng.Intn(len(vendor.Products))]
		versions := versionsFor()
		basePrice := 20 + rng.Float64()*480
		siblings := 2 + rng.Intn(3)
		for s := 0; s < siblings; s++ {
			item := softwareItem{
				vendor:  vendor.Name,
				product: prod,
				version: versions[s%len(versions)],
				price:   basePrice * (0.7 + 0.6*rng.Float64()),
				family:  f,
			}
			if rng.Bool(0.55) {
				item.edition = vocab.SoftwareEditionWords[rng.Intn(len(vocab.SoftwareEditionWords))]
			}
			all = append(all, item)
		}
		// Edition sibling: identical version, different edition — the
		// hardest corner case (upgrade vs full version). The edition
		// word is its only distinguishing surface attribute, so it is
		// marked edition-critical: its offers always state the edition,
		// as real listings for upgrade SKUs do. It must also differ
		// from the base item's edition.
		if rng.Bool(0.6) {
			ed := vocab.SoftwareEditionWords[rng.Intn(len(vocab.SoftwareEditionWords))]
			for ed == all[len(all)-siblings].edition {
				ed = vocab.SoftwareEditionWords[rng.Intn(len(vocab.SoftwareEditionWords))]
			}
			all = append(all, softwareItem{
				vendor: vendor.Name, product: prod, version: versions[0],
				edition: ed, price: basePrice * 0.5, family: f,
				editionCritical: true,
			})
		}
	}
	return all
}

// softwareSampler draws the software benchmark's pairs.
func softwareSampler(cfg config[softwareStyle]) sampler[softwareItem, softwareStyle] {
	return sampler[softwareItem, softwareStyle]{
		config:   cfg,
		universe: buildSoftwareUniverse(cfg),
		family:   func(it softwareItem) int { return it.family },
		render:   renderSoftware,
		harden:   hardenSoftware,
	}
}

// renderSoftware renders a software offer's attribute values under a
// style.
func renderSoftware(it softwareItem, st softwareStyle, rng *detrand.RNG) map[string]string {
	var words []string
	if !rng.Bool(st.dropVendorProb) {
		words = append(words, it.vendor)
	}
	words = append(words, it.product)
	if it.version != "" && !rng.Bool(st.dropVersionProb) {
		v := it.version
		if rng.Bool(st.versionReformat) {
			v = reformatVersion(v)
		}
		words = append(words, v)
	}
	if it.edition != "" && (it.editionCritical || !rng.Bool(st.dropEditionProb)) {
		words = append(words, it.edition)
	}
	if rng.Bool(st.noiseWordProb) {
		words = append(words, vocab.MarketingNoise[rng.Intn(len(vocab.MarketingNoise))])
	}
	if rng.Bool(st.wordShuffleProb) && len(words) > 2 {
		// Swap two interior word positions (sources order fields
		// differently).
		i := 1 + rng.Intn(len(words)-1)
		j := 1 + rng.Intn(len(words)-1)
		words[i], words[j] = words[j], words[i]
	}
	title := strings.ToLower(strings.Join(words, " "))

	price := ""
	if !rng.Bool(st.missingPriceP) {
		j := it.price * (1 + st.priceJitter*rng.Gauss())
		if j < 1 {
			j = 1
		}
		price = fmt.Sprintf("%.2f", j)
	}
	brand := it.vendor
	if rng.Bool(st.dropVendorProb) {
		brand = ""
	}
	return map[string]string{"brand": brand, "title": title, "price": price}
}

// hardenSoftware intensifies a style for corner-case matches: the
// version and edition words that tell siblings apart go missing.
func hardenSoftware(st softwareStyle) softwareStyle {
	st.dropVersionProb = min(st.dropVersionProb+0.5, 0.9)
	st.dropEditionProb = min(st.dropEditionProb+0.5, 0.95)
	st.priceJitter *= 2
	st.versionReformat = 0.45
	return st
}

// reformatVersion maps between common version surface forms:
// "5.0" -> "5", "5.5" -> "v5.5", "2007" -> "07".
func reformatVersion(v string) string {
	switch {
	case strings.HasSuffix(v, ".0"):
		return strings.TrimSuffix(v, ".0")
	case len(v) == 4 && strings.HasPrefix(v, "20"):
		return v[2:]
	default:
		return "v" + v
	}
}
