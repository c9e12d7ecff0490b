package tokenize

import (
	"unicode"
	"unicode/utf8"
)

// Scanner yields the tokens of a string one at a time — maximal
// lower-cased runs of letters and digits, exactly the split Words
// applies — without materializing token strings. The blocking index's
// Add scans each text once and maps every token against the index's
// base token table, then its Vocab; queries arrive as Words, so the two
// splits must agree (TestScannerMatchesWords).
//
// The byte slice Next returns aliases the scanner's scratch buffer and
// is valid only until the following Next or Reset. A Scanner is
// single-use state, not safe for concurrent use; an index holds one
// for its Adds.
type Scanner struct {
	s   string
	i   int
	buf []byte
}

// Reset points the scanner at s. buf is the caller-owned lower-casing
// scratch to (re)use; retrieve its grown form with Buf after scanning.
func (sc *Scanner) Reset(s string, buf []byte) {
	sc.s = s
	sc.i = 0
	sc.buf = buf[:0]
}

// Next returns the next token, or ok == false when the string is
// exhausted.
func (sc *Scanner) Next() (tok []byte, ok bool) {
	buf := sc.buf[:0]
	for sc.i < len(sc.s) {
		if c := sc.s[sc.i]; c < utf8.RuneSelf {
			// ASCII: the split and case fold below, without the tables.
			sc.i++
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if 'a' <= c && c <= 'z' || '0' <= c && c <= '9' {
				buf = append(buf, c)
				continue
			}
		} else {
			r, n := utf8.DecodeRuneInString(sc.s[sc.i:])
			sc.i += n
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				buf = utf8.AppendRune(buf, unicode.ToLower(r))
				continue
			}
		}
		if len(buf) > 0 {
			sc.buf = buf
			return buf, true
		}
	}
	sc.buf = buf
	return buf, len(buf) > 0
}

// Buf returns the scanner's (possibly grown) scratch buffer so pooled
// callers can carry it to the next Reset.
func (sc *Scanner) Buf() []byte { return sc.buf }
