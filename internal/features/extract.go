// Package features turns pairs of serialized entity descriptions into
// attribute-level similarity vectors.
//
// The package is the "reading" half of the simulated LLM's world
// knowledge: given only the serialized string of an entity description
// (no schema, no attribute names — the serialization of Section 2
// deliberately drops them), it recovers the salient attributes the
// paper's GPT-4 explanations recover: brand, model number, price,
// authors, venue, year and the residual title. Pair feature vectors
// over these attributes drive the simulated models' decisions, the
// fine-tuning adapters, and the structured explanations of Section 6.
package features

import (
	"sort"
	"strconv"
	"strings"
	"unicode"

	"llm4em/internal/entity"
	"llm4em/internal/tokenize"
	"llm4em/internal/vocab"
)

// Extracted is the structured reading of one serialized entity
// description. A long-lived cache of candidates keeps its stored form,
// packed (see Packed): every field but Raw, and Tokens only where
// TitleTokens is empty.
type Extracted struct {
	// Raw is the original serialized string. Empty on a stored
	// extraction that has WordTokens.
	Raw string
	// Tokens is the full lower-cased token sequence (model numbers
	// kept together). Nil on a stored extraction that has TitleTokens.
	Tokens []string
	// WordTokens is the plain word tokenization of Raw
	// (tokenize.Words: alphanumeric runs, model numbers split), cached
	// so pair scoring and blocking fanout never re-tokenize. Nil on
	// hand-built extractions; consumers fall back to tokenizing Raw.
	WordTokens []string
	// Brand is the recognized brand/vendor name (lower-cased), or "".
	Brand string
	// Models holds recognized model-number-like tokens (mixed
	// letter/digit tokens that are neither years nor prices).
	Models []string
	// Versions holds version-like numeric tokens ("5.0", "v5.5").
	Versions []string
	// Variants holds quantity/size tokens ("8gb", "19-inch", "3-user").
	Variants []string
	// Colors holds recognized color words ("black", "silver").
	Colors []string
	// Editions holds recognized software-edition phrases ("upgrade",
	// "full version", "academic").
	Editions []string
	// Price is the recognized price value; HasPrice reports whether
	// one was found.
	Price    float64
	HasPrice bool
	// Year is the recognized publication year; HasYear reports whether
	// one was found.
	Year    int
	HasYear bool
	// Venue is the canonical venue name if one was recognized, or "".
	Venue string
	// Authors holds recognized author surnames (lower-cased).
	Authors []string
	// TitleTokens is the residual token sequence after removing the
	// recognized attributes — the "title" an LLM would quote.
	TitleTokens []string
	// Domain is the guessed topical domain.
	Domain entity.Domain
}

// lexicons are the world-knowledge tables of the extractor, built once
// from the shared vocabulary. A web-pretrained LLM knows real brands,
// venues and researcher names; the simulated engine knows the
// generator's.
var lex = buildLexicons()

type lexicons struct {
	brands     map[string]bool // lower-cased single tokens
	brandPairs map[string]bool // lower-cased two-token brands ("western digital")
	// brandPairFirst holds the first word of every two-token brand, so
	// the extractor concatenates a candidate pair only when its first
	// token can possibly start one.
	brandPairFirst map[string]bool
	// venuesByTok indexes venue variants by their first word token, so
	// the extractor probes only the variants whose leading word
	// actually occurs in the text instead of substring-scanning the
	// whole lexicon. Each list is sorted longest variant first (ties
	// alphabetical) to keep longest-match-wins deterministic.
	venuesByTok map[string][]venueVariant
	surnames    map[string]bool
	firstnames  map[string]bool
}

// venueVariant is one lower-cased venue surface form and its
// canonical name.
type venueVariant struct {
	text  string
	canon string
}

func buildLexicons() lexicons {
	l := lexicons{
		brands:         map[string]bool{},
		brandPairs:     map[string]bool{},
		brandPairFirst: map[string]bool{},
		venuesByTok:    map[string][]venueVariant{},
		surnames:       map[string]bool{},
		firstnames:     map[string]bool{},
	}
	for _, b := range vocab.AllBrandNames() {
		lb := strings.ToLower(b)
		words := strings.Fields(lb)
		if len(words) >= 2 {
			l.brandPairs[strings.Join(words, " ")] = true
			l.brandPairFirst[words[0]] = true
			l.brands[words[0]] = true // allow partial recognition
		} else {
			l.brands[lb] = true
		}
	}
	for _, v := range vocab.Venues {
		canon := v.Full
		for _, alt := range append([]string{v.Full}, v.Variants...) {
			lower := strings.ToLower(alt)
			toks := tokenize.Words(lower)
			if len(toks) == 0 {
				continue
			}
			l.venuesByTok[toks[0]] = append(l.venuesByTok[toks[0]], venueVariant{text: lower, canon: canon})
		}
	}
	for _, vs := range l.venuesByTok {
		sort.Slice(vs, func(i, j int) bool {
			if len(vs[i].text) != len(vs[j].text) {
				return len(vs[i].text) > len(vs[j].text)
			}
			return vs[i].text < vs[j].text
		})
	}
	for _, n := range vocab.LastNames {
		l.surnames[strings.ToLower(n)] = true
	}
	for _, n := range vocab.FirstNames {
		l.firstnames[strings.ToLower(n)] = true
	}
	return l
}

// ExtractText reads a serialized entity description and recovers its
// salient attributes using only the text and the extractor's world
// knowledge.
func ExtractText(s string) Extracted {
	e := Extracted{Raw: s}
	e.Tokens = tokenize.WordsKeepAlnum(s)
	e.WordTokens = tokenize.Words(s)
	lower := strings.ToLower(s)

	// Venue: longest matching lexicon variant present as a substring.
	// Instead of substring-scanning the whole lexicon, only variants
	// whose first word occurs in the text are probed — as a word token
	// or as the letter prefix of a fused token ("vldb2004" probes
	// "vldb"), the two ways a contained variant's leading word
	// realistically surfaces. A variant fused mid-token ("xvldb") is
	// the one substring match the old scan found that this probe does
	// not.
	// Each distinct key is probed once: the probe is a pure function
	// of (lower, key), and degenerate inputs repeat the same token
	// thousands of times — re-probing would rescan the whole string
	// per occurrence.
	bestVenueLen := 0
	probed := map[string]bool{}
	probe := func(key string) {
		if key == "" || probed[key] {
			return
		}
		probed[key] = true
		e.Venue, bestVenueLen = probeVenueKey(lower, key, e.Venue, bestVenueLen)
	}
	for _, t := range e.WordTokens {
		probe(t)
		if p := letterPrefixOf(t); p != t {
			probe(p)
		}
	}

	// Brand: first lexicon hit in token order; two-token brands first.
	for i := 0; i+1 < len(e.Tokens); i++ {
		if !lex.brandPairFirst[e.Tokens[i]] {
			continue // skip the concatenation for impossible pairs
		}
		pair := e.Tokens[i] + " " + e.Tokens[i+1]
		if lex.brandPairs[pair] {
			e.Brand = pair
			break
		}
	}
	if e.Brand == "" {
		for _, t := range e.Tokens {
			if lex.brands[t] {
				e.Brand = t
				break
			}
		}
	}

	// Editions: phrase scan over the raw string.
	for _, ed := range editionPhrases {
		if strings.Contains(lower, ed) {
			e.Editions = append(e.Editions, ed)
		}
	}

	consumed := make([]bool, len(e.Tokens))
	for i, t := range e.Tokens {
		switch {
		case isPriceToken(t):
			if v, err := strconv.ParseFloat(t, 64); err == nil {
				e.Price, e.HasPrice = v, true
				consumed[i] = true
			}
		case isVariantToken(t):
			// Variant tokens stay in the title as well: they carry
			// surface similarity in addition to identity evidence.
			if len(e.Variants) < maxEvidence {
				e.Variants = append(e.Variants, t)
			}
		case colorWords[t]:
			if len(e.Colors) < maxEvidence {
				e.Colors = append(e.Colors, t)
			}
		case isYearToken(t):
			if y, err := strconv.Atoi(t); err == nil {
				e.Year, e.HasYear = y, true
				consumed[i] = true
			}
		case isVersionToken(t):
			if len(e.Versions) < maxEvidence {
				e.Versions = append(e.Versions, strings.TrimPrefix(t, "v"))
				consumed[i] = true
			}
		case isModelToken(t):
			if len(e.Models) < maxEvidence {
				e.Models = append(e.Models, normalizeModel(t))
				consumed[i] = true
			}
		}
	}

	// Authors: known surnames (optionally preceded by a first name or
	// an initial). Only meaningful for publication-like strings.
	for i, t := range e.Tokens {
		if lex.surnames[t] && !consumed[i] && len(e.Authors) < maxEvidence {
			e.Authors = append(e.Authors, t)
			consumed[i] = true
			if i > 0 && !consumed[i-1] && (lex.firstnames[e.Tokens[i-1]] || len(e.Tokens[i-1]) == 1) {
				consumed[i-1] = true
			}
		}
	}

	for i, t := range e.Tokens {
		if !consumed[i] {
			e.TitleTokens = append(e.TitleTokens, t)
		}
	}

	// Domain guess: publication signals are venue, year and multiple
	// author names; product signals are brand, models and price.
	pubScore := 0
	if e.Venue != "" {
		pubScore += 2
	}
	if e.HasYear {
		pubScore++
	}
	pubScore += len(e.Authors)
	prodScore := 0
	if e.Brand != "" {
		prodScore += 2
	}
	if e.HasPrice {
		prodScore++
	}
	prodScore += len(e.Models)
	if pubScore > prodScore {
		e.Domain = entity.Publication
	} else {
		e.Domain = entity.Product
	}
	return e
}

// maxEvidence caps each extracted evidence list. No real description
// carries dozens of model numbers or authors; past the cap the extra
// tokens stay in the title, and the downstream pairwise comparisons
// (bestModelSim, MongeElkan) stay bounded on dirty-data blobs.
const maxEvidence = 32

// isPriceToken recognizes decimal price strings like "348.00".
func isPriceToken(t string) bool {
	dot := strings.IndexByte(t, '.')
	if dot <= 0 || dot == len(t)-1 {
		return false
	}
	if len(t)-dot-1 != 2 {
		return false
	}
	return tokenize.IsNumeric(t)
}

// isYearToken recognizes plausible publication years 1950-2029.
func isYearToken(t string) bool {
	// Four ASCII digits first: Atoi on any other four-character word
	// would allocate its *NumError just to say no.
	if len(t) != 4 {
		return false
	}
	for i := 0; i < 4; i++ {
		if t[i] < '0' || t[i] > '9' {
			return false
		}
	}
	y, _ := strconv.Atoi(t)
	return y >= 1950 && y < 2030
}

// isVersionToken recognizes software version strings: "5.0", "5.5",
// "v5.5", single digits ("7"), and zero-prefixed two-digit year
// shorthands ("07" for 2007). Bare two-digit numbers such as "30" are
// deliberately not versions — they are quantities.
func isVersionToken(t string) bool {
	t = strings.TrimPrefix(t, "v")
	if len(t) == 2 && t[0] == '0' && tokenize.IsNumeric(t) && !strings.Contains(t, ".") {
		return true
	}
	if !strings.Contains(t, ".") {
		// Single digit version like "5".
		return len(t) == 1 && tokenize.IsNumeric(t)
	}
	if isPriceToken(t) {
		return false
	}
	return tokenize.IsNumeric(t)
}

// isModelToken recognizes model-number-like tokens: mixed letters and
// digits of length >= 3 ("dsc-120b", "wh1000xm4") that are not
// quantity variants ("8gb").
func isModelToken(t string) bool {
	return len(t) >= 3 && tokenize.HasDigit(t) && tokenize.HasLetter(t) && !isVariantToken(t)
}

// variantUnits are the measurement/quantity suffixes that mark a
// digit-bearing token as a product variant rather than a model number.
var variantUnits = map[string]bool{
	"gb": true, "tb": true, "mb": true, "kb": true,
	"inch": true, "in": true, "ft": true, "mm": true, "cm": true,
	"pack": true, "user": true, "users": true, "bit": true,
	"hz": true, "ghz": true, "mhz": true, "p": true, "i": true,
	"v": true, "w": true, "mp": true, "x": true, "xl": true,
	"quart": true, "qt": true, "oz": true, "lb": true, "mah": true,
	"hour": true, "hours": true, "speed": true,
}

// isVariantToken recognizes quantity variants: leading digits (and
// punctuation) followed by a known unit, e.g. "8gb", "19-inch",
// "1/2-inch", "3-user", "1080p".
func isVariantToken(t string) bool {
	i := 0
	for i < len(t) && (t[i] >= '0' && t[i] <= '9' || t[i] == '.' || t[i] == '/' || t[i] == '-') {
		i++
	}
	if i == 0 || i == len(t) {
		return false
	}
	return variantUnits[t[i:]]
}

// colorWords is the color-variant lexicon.
var colorWords = map[string]bool{
	"black": true, "white": true, "silver": true, "red": true,
	"blue": true, "gray": true, "grey": true, "green": true,
	"pink": true, "purple": true, "yellow": true, "orange": true,
}

// editionPhrases is the software-edition lexicon; phrases are matched
// against the lower-cased raw string.
var editionPhrases = []string{
	"upgrade", "full version", "academic", "student edition", "oem",
	"small box", "retail box", "3-user", "single user",
}

// probeVenueKey checks the venue variants filed under key against the
// lower-cased text, keeping whichever of (canon, bestLen) and the
// longest contained variant wins.
func probeVenueKey(lower, key, canon string, bestLen int) (string, int) {
	for _, v := range lex.venuesByTok[key] {
		if len(v.text) <= bestLen {
			return canon, bestLen // lists are sorted longest first
		}
		if strings.Contains(lower, v.text) {
			return v.canon, len(v.text)
		}
	}
	return canon, bestLen
}

// letterPrefixOf returns the leading run of letters of a token
// ("vldb2004" -> "vldb"), or "" if the token starts with a digit.
func letterPrefixOf(t string) string {
	for i, r := range t {
		if !unicode.IsLetter(r) {
			return t[:i]
		}
	}
	return t
}

// normalizeModel strips separators from a model token so that
// "dsc-120b" and "dsc120b" compare equal.
func normalizeModel(t string) string {
	return strings.Map(func(r rune) rune {
		if r == '-' || r == '/' || r == '.' {
			return -1
		}
		return r
	}, t)
}
