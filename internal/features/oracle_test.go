package features

import (
	"strconv"
	"strings"
	"unicode"

	"llm4em/internal/entity"
	"llm4em/internal/vocab"
)

// oracleLex holds the word lexicons as the oracle reads them, one map
// each, built from the vocabulary as buildLexicons once built them.
var oracleLex = func() (l struct{ brands, brandPairFirst, surnames, firstnames map[string]bool }) {
	l.brands, l.brandPairFirst = map[string]bool{}, map[string]bool{}
	l.surnames, l.firstnames = map[string]bool{}, map[string]bool{}
	for _, b := range vocab.AllBrandNames() {
		lb := strings.ToLower(b)
		if words := strings.Fields(lb); len(words) >= 2 {
			l.brandPairFirst[words[0]] = true
			l.brands[words[0]] = true
		} else {
			l.brands[lb] = true
		}
	}
	for _, n := range vocab.LastNames {
		l.surnames[strings.ToLower(n)] = true
	}
	for _, n := range vocab.FirstNames {
		l.firstnames[strings.ToLower(n)] = true
	}
	return l
}()

// oracleExtractText is the extractor ExtractText replaced, kept as the
// oracle FuzzExtractText holds it to: each tokenizer and the phrase
// scans lower-case the text on their own, a map remembers the probed
// venue keys, every list grows by itself, and each lexicon is its own
// map (oracleLex). It shares the venue and brand-pair tables.
func oracleExtractText(s string) Extracted {
	e := Extracted{Raw: s}
	e.Tokens = oracleWordsKeepAlnum(s)
	e.WordTokens = oracleWords(s)
	lower := strings.ToLower(s)

	bestVenueLen := 0
	probed := map[string]bool{}
	probe := func(key string) {
		if key == "" || probed[key] {
			return
		}
		probed[key] = true
		e.Venue, bestVenueLen = probeVenueKey(lower, lex.venuesByTok[key], e.Venue, bestVenueLen)
	}
	for _, t := range e.WordTokens {
		probe(t)
		if p := letterPrefixOf(t); p != t {
			probe(p)
		}
	}

	for i := 0; i+1 < len(e.Tokens); i++ {
		if !oracleLex.brandPairFirst[e.Tokens[i]] {
			continue
		}
		pair := e.Tokens[i] + " " + e.Tokens[i+1]
		if lex.brandPairs[pair] != "" {
			e.Brand = pair
			break
		}
	}
	if e.Brand == "" {
		for _, t := range e.Tokens {
			if oracleLex.brands[t] {
				e.Brand = t
				break
			}
		}
	}

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

	for i, t := range e.Tokens {
		if oracleLex.surnames[t] && !consumed[i] && len(e.Authors) < maxEvidence {
			e.Authors = append(e.Authors, t)
			consumed[i] = true
			if i > 0 && !consumed[i-1] && (oracleLex.firstnames[e.Tokens[i-1]] || len(e.Tokens[i-1]) == 1) {
				consumed[i-1] = true
			}
		}
	}

	for i, t := range e.Tokens {
		if !consumed[i] {
			e.TitleTokens = append(e.TitleTokens, t)
		}
	}

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

// oracleWords and oracleWordsKeepAlnum are tokenize.Words and
// tokenize.WordsKeepAlnum before they split a caller's lower-cased copy
// and decided ASCII without the Unicode tables.
func oracleWords(s string) []string {
	lower := strings.ToLower(s)
	var tokens []string
	start := -1
	for i, r := range lower {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			tokens = append(tokens, lower[start:i])
			start = -1
		}
	}
	if start >= 0 {
		tokens = append(tokens, lower[start:])
	}
	return tokens
}

func oracleWordsKeepAlnum(s string) []string {
	lower := strings.ToLower(s)
	var tokens []string
	start := -1
	flush := func(end int) {
		if start < 0 {
			return
		}
		if t := strings.Trim(lower[start:end], "-/."); t != "" {
			tokens = append(tokens, t)
		}
		start = -1
	}
	for i, r := range lower {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			if start < 0 {
				start = i
			}
		case (r == '-' || r == '/' || r == '.') && start >= 0:
		default:
			flush(i)
		}
	}
	flush(len(lower))
	return tokens
}
