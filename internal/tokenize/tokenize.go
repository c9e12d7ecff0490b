// Package tokenize provides the tokenization primitives used across
// the system: lower-cased word tokenization for string-similarity
// computation and an API-style subword token estimator for the cost
// analysis of Section 5.
package tokenize

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Words splits s into lower-cased word tokens. A token is a maximal
// run of letters and digits; all other characters act as separators.
// Alphanumeric model numbers such as "X500-B" therefore become
// "x500" and "b", while "X500B" stays one token.
//
// The string is lower-cased once and tokens are substrings of that
// copy, so tokenizing costs one allocation (zero for already-lower
// ASCII input) plus result-slice growth, not one per token.
// Lower-casing first is equivalent to lower-casing per token:
// unicode.ToLower maps letters to letters and leaves separators
// untouched.
func Words(s string) []string { return AppendWords(nil, strings.ToLower(s)) }

// AppendWords appends the Words tokens of lower, which the caller has
// already lower-cased with strings.ToLower, to dst: tokens are
// substrings of lower, and one lower-cased copy can serve several
// tokenizers.
func AppendWords(dst []string, lower string) []string {
	start := -1
	for i, r := range lower {
		if r < utf8.RuneSelf && asciiWord[r] || r >= utf8.RuneSelf && isWordRune(r) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			dst = append(dst, lower[start:i])
			start = -1
		}
	}
	if start >= 0 {
		dst = append(dst, lower[start:])
	}
	return dst
}

// WordsKeepAlnum splits s into lower-cased tokens, keeping characters
// of mixed alphanumeric tokens together even across '-' and '/' so
// that model numbers like "wd-5000aaks" survive as single tokens.
// Tokens are substrings of one lower-cased copy, as in Words.
func WordsKeepAlnum(s string) []string { return AppendWordsKeepAlnum(nil, strings.ToLower(s)) }

// AppendWordsKeepAlnum appends the WordsKeepAlnum tokens of lower, as
// AppendWords does the Words tokens.
func AppendWordsKeepAlnum(dst []string, lower string) []string {
	start := -1
	for i, r := range lower {
		switch {
		case r < utf8.RuneSelf && asciiWord[r] || r >= utf8.RuneSelf && isWordRune(r):
			if start < 0 {
				start = i
			}
		case (r == '-' || r == '/' || r == '.') && start >= 0:
			// Joiner inside a started token: keep scanning.
		default:
			if start >= 0 {
				dst = append(dst, trimJoiners(lower[start:i]))
				start = -1
			}
		}
	}
	if start >= 0 {
		dst = append(dst, trimJoiners(lower[start:]))
	}
	return dst
}

// trimJoiners trims the trailing joiners left by values such as
// "model-". A token starts with a letter or digit, so it never trims
// to "".
func trimJoiners(t string) string {
	for t[len(t)-1] == '-' || t[len(t)-1] == '/' || t[len(t)-1] == '.' {
		t = t[:len(t)-1]
	}
	return t
}

// isWordRune reports whether r is a letter or a digit. The tokenizers
// decide ASCII by asciiWord instead, without a call.
func isWordRune(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }

// asciiWord marks the ASCII letters and digits.
var asciiWord = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		t[c] = isWordRune(rune(c))
	}
	return t
}()

// Set returns the set of tokens in s as a map.
func Set(tokens []string) map[string]bool {
	m := make(map[string]bool, len(tokens))
	for _, t := range tokens {
		m[t] = true
	}
	return m
}

// Counts returns token frequencies.
func Counts(tokens []string) map[string]int {
	m := make(map[string]int, len(tokens))
	for _, t := range tokens {
		m[t]++
	}
	return m
}

// HasDigit reports whether the token contains at least one digit.
func HasDigit(s string) bool {
	for _, r := range s {
		if unicode.IsDigit(r) {
			return true
		}
	}
	return false
}

// HasLetter reports whether the token contains at least one letter.
func HasLetter(s string) bool {
	for _, r := range s {
		if unicode.IsLetter(r) {
			return true
		}
	}
	return false
}

// IsNumeric reports whether the token consists only of digits,
// optionally with a single decimal point.
func IsNumeric(s string) bool {
	if s == "" {
		return false
	}
	dots := 0
	for _, r := range s {
		switch {
		case unicode.IsDigit(r):
		case r == '.':
			dots++
			if dots > 1 {
				return false
			}
		default:
			return false
		}
	}
	return s != "."
}

// EstimateTokens estimates the number of API billing tokens of s,
// approximating the byte-pair encodings used by hosted LLMs. Common
// short English words map to one token; longer words are split into
// roughly 4-character pieces; whitespace attaches to the following
// word as in GPT tokenizers; punctuation counts separately. The
// estimator only needs to be consistent and roughly proportional to
// real tokenizers for the relative cost analysis of Table 8.
func EstimateTokens(s string) int {
	if s == "" {
		return 0
	}
	n := 0
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return unicode.IsSpace(r)
	})
	for _, f := range fields {
		// Split punctuation off the word edges; each punctuation run
		// costs one token. Edges are decoded as runes, not bytes: a
		// byte-at-a-time scan would misread every multi-byte leading
		// quote or dash as word content.
		word := f
		for word != "" {
			r, size := utf8.DecodeRuneInString(word)
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				break
			}
			n++
			word = word[size:]
		}
		trailing := 0
		for word != "" {
			r, size := utf8.DecodeLastRuneInString(word)
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				break
			}
			trailing++
			word = word[:len(word)-size]
		}
		if word != "" {
			// ~4 characters per subword piece.
			n += (len(word) + 3) / 4
		}
		n += trailing
	}
	return n
}
