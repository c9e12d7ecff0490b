package datasets

import (
	"llm4em/internal/entity"
	"llm4em/internal/vocab"
)

// The six benchmark configurations. Difficulty knobs (corner-case
// rates, rendering noise) are calibrated so that the achievable
// matching quality of each dataset follows the paper's ordering:
// Amazon-Google is the hardest benchmark (best zero-shot F1 ~76),
// DBLP-ACM the easiest (~98), with WDC Products, Walmart-Amazon and
// DBLP-Scholar around 89-90 and Abt-Buy around 95.

func generateWDCProducts() *Dataset {
	return productSampler(wdcProductConfig()).dataset()
}

func wdcProductConfig() productConfig {
	return productConfig{
		config: config[sourceStyle]{
			key:    "wdc",
			name:   "WDC Products",
			abbrev: "WDC",
			counts: paperCounts["wdc"],
			schema: entity.Schema{
				Domain:     entity.Product,
				Attributes: []string{"brand", "title", "currency", "price"},
			},
			scenario:      DirtyDirty,
			families:      520,
			cornerNegRate: 0.80, // "most difficult version ... 80% corner-cases"
			hardMatchRate: 0.45,
			styleA: sourceStyle{
				noiseWordProb: 0.35, sellerProb: 0.15, abbrevProb: 0.10,
				dropBrandProb: 0.12, modelCompactPro: 0.25, dropModelProb: 0.05,
				featureProb: 0.25, priceJitter: 0.03, missingPriceP: 0.10,
				typoProb: 0.08, dropTypeProb: 0.10,
			},
			styleB: sourceStyle{
				noiseWordProb: 0.45, sellerProb: 0.25, abbrevProb: 0.18,
				dropBrandProb: 0.18, modelCompactPro: 0.40, dropModelProb: 0.06,
				featureProb: 0.20, priceJitter: 0.05, missingPriceP: 0.15,
				typoProb: 0.12, dropTypeProb: 0.15,
			},
		},
		categories:    []vocab.Category{vocab.Electronics, vocab.Tools, vocab.Clothing, vocab.Kitchen},
		ambiguousRate: 0.03,
	}
}

func generateAbtBuy() *Dataset {
	return productSampler(abProductConfig()).dataset()
}

func abProductConfig() productConfig {
	return productConfig{
		config: config[sourceStyle]{
			key:    "ab",
			name:   "Abt-Buy",
			abbrev: "A-B",
			counts: paperCounts["ab"],
			schema: entity.Schema{
				Domain:     entity.Product,
				Attributes: []string{"title", "price"},
			},
			scenario:      CleanClean,
			families:      700,
			cornerNegRate: 0.35,
			hardMatchRate: 0.15,
			styleA: sourceStyle{
				noiseWordProb: 0.15, sellerProb: 0.05, abbrevProb: 0.04,
				dropBrandProb: 0.05, modelCompactPro: 0.20, dropModelProb: 0.04,
				featureProb: 0.70, priceJitter: 0.02, missingPriceP: 0.12,
				typoProb: 0.04, dropTypeProb: 0.04,
			},
			styleB: sourceStyle{
				noiseWordProb: 0.25, sellerProb: 0.10, abbrevProb: 0.09,
				dropBrandProb: 0.10, modelCompactPro: 0.30, dropModelProb: 0.06,
				featureProb: 0.55, priceJitter: 0.04, missingPriceP: 0.15,
				typoProb: 0.06, dropTypeProb: 0.06,
			},
		},
		categories:    []vocab.Category{vocab.Electronics, vocab.Kitchen},
		brandMod:      2,
		brandRem:      0,
		ambiguousRate: 0.02,
	}
}

func generateWalmartAmazon() *Dataset {
	return productSampler(waProductConfig()).dataset()
}

func waProductConfig() productConfig {
	return productConfig{
		config: config[sourceStyle]{
			key:    "wa",
			name:   "Walmart-Amazon",
			abbrev: "W-A",
			counts: paperCounts["wa"],
			schema: entity.Schema{
				Domain:     entity.Product,
				Attributes: []string{"brand", "title", "modelno", "price"},
			},
			scenario:      DirtyDirty,
			families:      650,
			cornerNegRate: 0.48,
			hardMatchRate: 0.26,
			styleA: sourceStyle{
				noiseWordProb: 0.20, sellerProb: 0.08, abbrevProb: 0.08,
				dropBrandProb: 0.08, modelCompactPro: 0.20, dropModelProb: 0.06,
				featureProb: 0.30, priceJitter: 0.03, missingPriceP: 0.12,
				typoProb: 0.06, dropTypeProb: 0.08,
			},
			styleB: sourceStyle{
				noiseWordProb: 0.35, sellerProb: 0.15, abbrevProb: 0.15,
				dropBrandProb: 0.15, modelCompactPro: 0.35, dropModelProb: 0.10,
				featureProb: 0.25, priceJitter: 0.06, missingPriceP: 0.18,
				typoProb: 0.10, dropTypeProb: 0.12,
			},
		},
		categories:    []vocab.Category{vocab.Electronics, vocab.Tools, vocab.Kitchen},
		brandMod:      2,
		brandRem:      1,
		ambiguousRate: 0.05,
	}
}

func generateAmazonGoogle() *Dataset {
	return softwareSampler(config[softwareStyle]{
		key:    "ag",
		name:   "Amazon-Google",
		abbrev: "A-G",
		counts: paperCounts["ag"],
		schema: entity.Schema{
			Domain:     entity.Product,
			Attributes: []string{"brand", "title", "price"},
		},
		scenario:      CleanClean,
		families:      620,
		cornerNegRate: 0.68,
		hardMatchRate: 0.42,
		styleA: softwareStyle{
			dropVendorProb: 0.10, dropVersionProb: 0.07, dropEditionProb: 0.15,
			versionReformat: 0.12, noiseWordProb: 0.20, priceJitter: 0.05,
			missingPriceP: 0.15, wordShuffleProb: 0.15,
		},
		styleB: softwareStyle{
			dropVendorProb: 0.20, dropVersionProb: 0.14, dropEditionProb: 0.28,
			versionReformat: 0.22, noiseWordProb: 0.30, priceJitter: 0.10,
			missingPriceP: 0.25, wordShuffleProb: 0.30,
		},
	}).dataset()
}

func generateDBLPScholar() *Dataset {
	return bibSampler(config[bibStyle]{
		key:    "ds",
		name:   "DBLP-Scholar",
		abbrev: "D-S",
		counts: paperCounts["ds"],
		schema: entity.Schema{
			Domain:     entity.Publication,
			Attributes: []string{"authors", "title", "venue", "year"},
		},
		scenario:      CleanClean,
		families:      1400,
		cornerNegRate: 0.55,
		hardMatchRate: 0.35,
		// DBLP side: clean.
		styleA: bibStyle{
			initialsProb: 0.05, dropAuthorProb: 0.02, venueVariantP: 0.15,
			missingVenueP: 0.02, missingYearP: 0.02, wrongYearProb: 0.01,
			titleAbbrevProb: 0.01, titleTruncProb: 0.02, typoProb: 0.02,
			lowercaseProb: 0.10,
		},
		// Google Scholar side: noisy.
		styleB: bibStyle{
			initialsProb: 0.55, dropAuthorProb: 0.20, venueVariantP: 0.70,
			missingVenueP: 0.20, missingYearP: 0.18, wrongYearProb: 0.08,
			titleAbbrevProb: 0.08, titleTruncProb: 0.15, typoProb: 0.08,
			lowercaseProb: 0.60,
		},
	}).dataset()
}

func generateDBLPACM() *Dataset {
	return bibSampler(config[bibStyle]{
		key:    "da",
		name:   "DBLP-ACM",
		abbrev: "D-A",
		counts: paperCounts["da"],
		schema: entity.Schema{
			Domain:     entity.Publication,
			Attributes: []string{"authors", "title", "venue", "year"},
		},
		scenario:      CleanClean,
		families:      1100,
		cornerNegRate: 0.30,
		hardMatchRate: 0.10,
		styleA: bibStyle{
			initialsProb: 0.03, dropAuthorProb: 0.01, venueVariantP: 0.10,
			missingVenueP: 0.01, missingYearP: 0.01, wrongYearProb: 0.005,
			titleAbbrevProb: 0.005, titleTruncProb: 0.01, typoProb: 0.01,
			lowercaseProb: 0.05,
		},
		styleB: bibStyle{
			initialsProb: 0.20, dropAuthorProb: 0.05, venueVariantP: 0.35,
			missingVenueP: 0.03, missingYearP: 0.03, wrongYearProb: 0.02,
			titleAbbrevProb: 0.02, titleTruncProb: 0.04, typoProb: 0.03,
			lowercaseProb: 0.25,
		},
	}).dataset()
}
