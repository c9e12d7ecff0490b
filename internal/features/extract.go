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
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"llm4em/internal/entity"
	"llm4em/internal/tokenize"
	"llm4em/internal/vocab"
)

// Extracted is the structured reading of one serialized entity
// description.
type Extracted struct {
	// Raw is the original serialized string.
	Raw string
	// Tokens is the full lower-cased token sequence (model numbers
	// kept together).
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
	// roles flags every lower-cased lexicon word with the parts it can
	// play, so the extractor reads all of a token's with one lookup.
	roles map[string]wordRole
	// brandPairs maps each lower-cased two-token brand ("western
	// digital") to itself, so a lookup keyed by scratch bytes returns
	// the brand without building its string.
	brandPairs map[string]string
	// venuesByTok indexes venue variants by their first word token, so
	// the extractor probes only the variants whose leading word
	// actually occurs in the text instead of substring-scanning the
	// whole lexicon. Each list is sorted longest variant first (ties
	// alphabetical) to keep longest-match-wins deterministic.
	venuesByTok map[string][]venueVariant
}

// wordRole is a set of the parts a lexicon word plays.
type wordRole uint8

const (
	// roleBrand marks a one-word brand, or the first word of a longer
	// one (partial recognition: "western" alone names Western Digital).
	roleBrand wordRole = 1 << iota
	// rolePairFirst marks the first word of a two-token brand, so the
	// extractor builds a candidate pair only when its first token can
	// possibly start one.
	rolePairFirst
	roleColor
	roleSurname
	roleFirstName
)

// venueVariant is one lower-cased venue surface form and its
// canonical name.
type venueVariant struct {
	text  string
	canon string
}

func buildLexicons() lexicons {
	l := lexicons{
		roles:       map[string]wordRole{},
		brandPairs:  map[string]string{},
		venuesByTok: map[string][]venueVariant{},
	}
	for _, b := range vocab.AllBrandNames() {
		lb := strings.ToLower(b)
		if words := strings.Fields(lb); len(words) >= 2 {
			pair := strings.Join(words, " ")
			l.brandPairs[pair] = pair
			l.roles[words[0]] |= rolePairFirst | roleBrand
		} else {
			l.roles[lb] |= roleBrand
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
	for c := range colorWords {
		l.roles[c] |= roleColor
	}
	for _, n := range vocab.LastNames {
		l.roles[strings.ToLower(n)] |= roleSurname
	}
	for _, n := range vocab.FirstNames {
		l.roles[strings.ToLower(n)] |= roleFirstName
	}
	return l
}

// ExtractText reads a serialized entity description and recovers its
// salient attributes using only the text and the extractor's world
// knowledge.
func ExtractText(s string) Extracted {
	// Room for both tokenizations, the title and a little evidence of a
	// typical description, so the lists usually share one allocation.
	e, _ := ExtractInto(s, make([]string, 0, len(s)/2+8))
	return e
}

// Token classes ExtractInto assigns, in the order its classification
// tests them, and the flag marking a token consumed out of the title.
const (
	tokPlain uint8 = iota
	tokVariant
	tokColor
	tokVersion
	tokModel
	tokConsumed uint8 = 0x80
)

// ExtractInto is ExtractText with the result's lists cut from buf,
// which it appends to and returns for reuse: a caller extracting many
// descriptions allocates no list once buf has room. Earlier
// extractions into the same buf stay valid, and the lists are capped
// at their length, so appending to one never writes into buf. The
// text is lower-cased once; tokens are substrings of that copy.
func ExtractInto(s string, buf []string) (Extracted, []string) {
	e := Extracted{Raw: s}
	lower := strings.ToLower(s)
	base := len(buf)
	buf = tokenize.AppendWordsKeepAlnum(buf, lower)
	nTokens := len(buf)
	buf = tokenize.AppendWords(buf, lower)
	nWords := len(buf)
	toks, words := buf[base:nTokens], buf[nTokens:nWords]

	// Venue: longest matching lexicon variant present as a substring.
	// Instead of substring-scanning the whole lexicon, only variants
	// whose first word occurs in the text are probed — as a word token
	// or as the letter prefix of a fused token ("vldb2004" probes
	// "vldb"), the two ways a contained variant's leading word
	// realistically surfaces. A variant fused mid-token ("xvldb") is
	// the one substring match the old scan found that this probe does
	// not.
	// Each key with variants is probed once: the probe is a pure
	// function of (lower, key), and degenerate inputs repeat the same
	// token thousands of times — re-probing would rescan the whole
	// string per occurrence. Only lexicon words are remembered, so the
	// list stays as short as the lexicon's distinct first words.
	bestVenueLen := 0
	var probedBuf [8]string
	probed := probedBuf[:0]
	for _, t := range words {
		for k, key := range [2]string{t, letterPrefixOf(t)} {
			if k == 1 && key == t {
				break
			}
			vs := lex.venuesByTok[key]
			if len(vs) == 0 || slices.Contains(probed, key) {
				continue
			}
			probed = append(probed, key)
			e.Venue, bestVenueLen = probeVenueKey(lower, vs, e.Venue, bestVenueLen)
		}
	}

	// Classify every token once, reading its lexicon roles with one
	// lookup; the evidence lists below are cut from buf one after the
	// other, each in token order.
	var classBuf [64]uint8
	var roleBuf [64]wordRole
	class, roles := classBuf[:0], roleBuf[:0]
	for _, t := range toks {
		r := lex.roles[t]
		c := tokPlain
		switch {
		case isPriceToken(t):
			if v, err := strconv.ParseFloat(t, 64); err == nil {
				e.Price, e.HasPrice = v, true
				c = tokConsumed
			}
		case isVariantToken(t):
			// Variant tokens stay in the title as well: they carry
			// surface similarity in addition to identity evidence.
			c = tokVariant
		case r&roleColor != 0:
			c = tokColor
		case isYearToken(t):
			if y, err := strconv.Atoi(t); err == nil {
				e.Year, e.HasYear = y, true
				c = tokConsumed
			}
		case isVersionToken(t):
			c = tokVersion
		case isModelToken(t):
			c = tokModel
		}
		class, roles = append(class, c), append(roles, r)
	}

	// Brand: first lexicon hit in token order; two-token brands first.
	var pairBuf [64]byte
	for i := 0; i+1 < len(toks); i++ {
		if roles[i]&rolePairFirst == 0 {
			continue
		}
		pair := append(append(append(pairBuf[:0], toks[i]...), ' '), toks[i+1]...)
		if b, ok := lex.brandPairs[string(pair)]; ok {
			e.Brand = b
			break
		}
	}
	for i := 0; e.Brand == "" && i < len(toks); i++ {
		if roles[i]&roleBrand != 0 {
			e.Brand = toks[i]
		}
	}

	// Editions: phrase scan over the lower-cased string.
	editions := len(buf)
	for _, ed := range editionPhrases {
		if strings.Contains(lower, ed) {
			buf = append(buf, ed)
		}
	}

	evidence := len(buf)
	var ends [4]int // ends of the variant, color, version and model lists
	for k, want := range [4]uint8{tokVariant, tokColor, tokVersion, tokModel} {
		n := 0
		for i, c := range class {
			if c != want || n == maxEvidence {
				continue
			}
			n++
			switch t := toks[i]; want {
			case tokVersion:
				buf = append(buf, strings.TrimPrefix(t, "v"))
				class[i] |= tokConsumed
			case tokModel:
				buf = append(buf, normalizeModel(t))
				class[i] |= tokConsumed
			default:
				buf = append(buf, t)
			}
		}
		ends[k] = len(buf)
	}

	// Authors: known surnames (optionally preceded by a first name or
	// an initial). Only meaningful for publication-like strings.
	authors := len(buf)
	for i, t := range toks {
		if roles[i]&roleSurname != 0 && class[i]&tokConsumed == 0 && len(buf)-authors < maxEvidence {
			buf = append(buf, t)
			class[i] |= tokConsumed
			if i > 0 && class[i-1]&tokConsumed == 0 && (roles[i-1]&roleFirstName != 0 || len(toks[i-1]) == 1) {
				class[i-1] |= tokConsumed
			}
		}
	}

	title := len(buf)
	for i, t := range toks {
		if class[i]&tokConsumed == 0 {
			buf = append(buf, t)
		}
	}

	// Cut every list from buf's final backing array, nil where empty.
	cut := func(lo, hi int) []string {
		if lo == hi {
			return nil
		}
		return buf[lo:hi:hi]
	}
	e.Tokens, e.WordTokens = cut(base, nTokens), cut(nTokens, nWords)
	e.Editions = cut(editions, evidence)
	e.Variants = cut(evidence, ends[0])
	e.Colors = cut(ends[0], ends[1])
	e.Versions = cut(ends[1], ends[2])
	e.Models = cut(ends[2], ends[3])
	e.Authors = cut(authors, title)
	e.TitleTokens = cut(title, len(buf))

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
	return e, buf
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

// probeVenueKey checks the venue variants filed under one key against
// the lower-cased text, keeping whichever of (canon, bestLen) and the
// longest contained variant wins.
func probeVenueKey(lower string, vs []venueVariant, canon string, bestLen int) (string, int) {
	for _, v := range vs {
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
		if r < utf8.RuneSelf && (r < 'a' || r > 'z') && (r < 'A' || r > 'Z') || r >= utf8.RuneSelf && !unicode.IsLetter(r) {
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
