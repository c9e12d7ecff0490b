package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"llm4em"
)

// Request bodies are read whole, up to their bound, and scanned once by
// a bodyParser that builds llm4em.Records directly, with one string
// allocation per record. It accepts the bodies encoding/json accepts
// when decoding into recordJSON and yields the same records
// (oracle_test.go keeps that decoding; the fuzzers compare the two):
// keys match fields exactly or under Unicode case folding, null fills
// nothing, unknown keys are validated and skipped, invalid UTF-8 and
// lone surrogates decode to U+FFFD, and a value of the wrong type
// refuses the body. It is stricter in one respect: an object that names
// one field twice is refused (errDuplicateKey), where encoding/json
// kept the last value and merged repeated attribute lists.

var (
	// errDuplicateKey refuses an object that names one field twice, by
	// the same key or by two keys that fold to it.
	errDuplicateKey = errors.New("duplicate key")
	errEOF          = errors.New("unexpected end of JSON input")
	errTrailing     = errors.New("trailing data after the record")
)

const (
	maxDepth = 10000 // encoding/json's nesting limit
	// maxKeyBytes bounds the decoded keys compared with field names:
	// "records" folds to at most 7 runes of 3 bytes.
	maxKeyBytes = 32
	maxInterned = 256 // attribute names one body interns
	// maxPresize bounds the buffer a Content-Length sizes up front, so a
	// request that announces a large body and sends little holds little.
	maxPresize = 1 << 20
)

// readBody reads a request body whole through its http.MaxBytesReader.
// Past the bound it returns the bytes before it with the
// *http.MaxBytesError.
func readBody(r *http.Request, limit int64) ([]byte, error) {
	size := int64(bytes.MinRead) // ReadFrom's spare room: the read that sees EOF
	if n := r.ContentLength; n >= 0 && n <= limit {
		size += min(n, maxPresize)
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	_, err := buf.ReadFrom(r.Body)
	return buf.Bytes(), err
}

// decodeRecordsBody reads and parses a POST /v1/records body: the
// {"records":[...]} wrapper, a bare array, one record object, or NDJSON
// when the Content-Type says so. Every record is within the per-record
// bounds.
func decodeRecordsBody(r *http.Request) ([]llm4em.Record, error) {
	body, err := readBody(r, maxRecordsBody)
	if err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	return parseRecords(body, strings.Contains(r.Header.Get("Content-Type"), "ndjson"))
}

// parseRecords parses a whole POST /v1/records body. A record past a
// bound refuses the body once the rest of it has parsed.
func parseRecords(body []byte, ndjson bool) ([]llm4em.Record, error) {
	p := &bodyParser{b: body}
	if ndjson {
		for { // values follow one another after any whitespace, or none
			if _, err := p.next(); err == errEOF {
				return p.out, p.bound
			}
			if err := p.listedRecord(); err != nil {
				return nil, fmt.Errorf("decode ndjson record %d: %w", len(p.out)+1, err)
			}
		}
	}
	prefix, k := "decode body", wrapper
	if c, _ := p.next(); c == '[' {
		prefix, k = "decode record array", recordList
	}
	if err := p.whole(k); err != nil {
		return nil, fmt.Errorf("%s: %w", prefix, err)
	}
	switch {
	case p.listed:
		return p.out, p.bound
	case p.rec.idLen == 0 && !p.rec.attrsSet:
		return nil, nil // no record in the object
	}
	r, err := p.rec.finish()
	if err != nil {
		return nil, err
	}
	return []llm4em.Record{r}, nil
}

// decodeResolveBody reads and parses a POST /v1/resolve body: one
// record, then nothing but whitespace.
func decodeResolveBody(r *http.Request) (llm4em.Record, error) {
	body, err := readBody(r, maxResolveBody)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		err = resolveOverflow(body, err)
	}
	p := &bodyParser{b: body}
	if err == nil {
		err = p.whole(record)
	}
	if err != nil {
		return llm4em.Record{}, fmt.Errorf("decode body: %w", err)
	}
	return p.rec.finish()
}

// resolveOverflow is the error of a resolve body past its bound, of
// which prefix holds the bytes before the bound. The body is answered
// 413 (tooLarge) unless those bytes already show it malformed to a
// decoder that reads only as far as it must, as the one this parser
// replaced did: a syntax error, a record of the wrong type, or a
// complete record followed by more than whitespace. A top-level scalar
// is complete once a byte follows it.
func resolveOverflow(prefix []byte, tooLarge error) error {
	p := &bodyParser{b: prefix}
	if err := p.skipTop(); err != nil {
		if err == errEOF {
			return tooLarge
		}
		return err
	}
	q := &bodyParser{b: prefix[:p.i]}
	if err := q.value(record); err != nil {
		return err
	}
	c, err := p.next()
	if err != nil || !strings.ContainsRune("[{]}:,", rune(c)) && p.skipTop() == errEOF {
		return tooLarge
	}
	return errTrailing
}

// kind is what a value fills, by the field it is the value of.
type kind uint8

const (
	skipped    kind = iota // an unknown key's value: validated only
	wrapper                // a records body's top-level object
	record                 // a record object
	recordList             // a records body's array, or "records"
	attrList               // "attrs"
	attr                   // an attribute object
	idText                 // "id"
	nameText               // "name"
	valueText              // "value"
)

// opens holds the byte that opens each kind's values.
const opens = ".{{[[{\"\"\""

// bodyParser scans one request body. rec is the record being scanned,
// listed or a records body's top-level object, whose own fields count
// only when it lists none. out gathers the listed records, bound is the
// first error of one past a per-record bound, and listed reports a
// list, not null, was there.
type bodyParser struct {
	b        []byte
	i, depth int
	rec      recordBuf
	out      []llm4em.Record
	bound    error
	listed   bool
	names    map[string]string // interned attribute names
	tmp      []byte            // a string that needed decoding
}

// recordBuf gathers one record while it is scanned: its ID and values
// back to back in buf, which becomes the record's one string, and the
// decoded lengths the per-record bounds check. Attributes past the
// attribute bound are counted, not kept.
type recordBuf struct {
	buf      []byte
	id       span
	idLen    int
	attrs    []attrSpan
	nAttrs   int
	attrsSet bool // an attribute list, not null
}

type span struct{ start, end int }

type attrSpan struct {
	name              string
	value             span
	nameLen, valueLen int
}

// put appends s to the record's string and returns its span.
func (rb *recordBuf) put(s []byte) span {
	start := len(rb.buf)
	rb.buf = append(rb.buf, s...)
	return span{start, len(rb.buf)}
}

// finish checks the per-record bounds, in the order of ID, attribute
// count, then each attribute's name and value, and builds the record.
func (rb *recordBuf) finish() (llm4em.Record, error) {
	id := rb.buf[rb.id.start:rb.id.end]
	if rb.idLen > maxIDBytes {
		return llm4em.Record{}, fmt.Errorf("record ID is %d bytes, over the %d-byte ID bound", rb.idLen, maxIDBytes)
	}
	if rb.nAttrs > maxAttrs {
		return llm4em.Record{}, fmt.Errorf("record %q has %d attributes, over the %d-attribute bound", id, rb.nAttrs, maxAttrs)
	}
	for _, a := range rb.attrs {
		if a.nameLen > maxAttrNameBytes {
			return llm4em.Record{}, fmt.Errorf("record %q: an attribute name is %d bytes, over the %d-byte name bound", id, a.nameLen, maxAttrNameBytes)
		}
		if a.valueLen > maxAttrValueBytes {
			return llm4em.Record{}, fmt.Errorf("record %q: attribute %q is %d bytes, over the %d-byte value bound", id, a.name, a.valueLen, maxAttrValueBytes)
		}
	}
	s := string(rb.buf)
	rec := llm4em.Record{ID: s[rb.id.start:rb.id.end]}
	if len(rb.attrs) > 0 {
		rec.Attrs = make([]llm4em.Attr, len(rb.attrs))
		for i, a := range rb.attrs {
			rec.Attrs[i] = llm4em.Attr{Name: a.name, Value: s[a.value.start:a.value.end]}
		}
	}
	return rec, nil
}

// listedRecord scans one record of a list or an NDJSON body onto p.out.
func (p *bodyParser) listedRecord() error {
	p.rec = recordBuf{buf: p.rec.buf[:0], attrs: p.rec.attrs[:0]}
	if err := p.value(record); err != nil {
		return err
	}
	r, err := p.rec.finish()
	if err != nil && p.bound == nil {
		p.bound = err
	}
	p.out = append(p.out, r)
	return nil
}

// whole scans the body's one value, of kind k, and whitespace after it.
func (p *bodyParser) whole(k kind) error {
	if err := p.value(k); err != nil {
		return err
	}
	if _, err := p.next(); err == nil {
		return errTrailing
	}
	return nil
}

// value scans the value at p.i as one of kind k: null, which fills
// nothing, or a value that opens as k's do.
func (p *bodyParser) value(k kind) error {
	c, err := p.next()
	if err != nil {
		return err
	}
	if c == 'n' {
		return p.literal("null")
	}
	if k != skipped && c != opens[k] {
		if !strings.ContainsRune(`"{[tf-0123456789`, rune(c)) {
			return p.badChar(p.i)
		}
		return fmt.Errorf("cannot decode the value at offset %d: want %q", p.i, opens[k])
	}
	switch c {
	case '{', '[':
		switch k {
		case recordList:
			p.listed = true
		case attrList:
			p.rec.attrsSet = true
		}
		p.i++
		p.depth++
		var seen uint16 // the fields an object has named
		for first := true; ; first = false {
			key, more, err := p.item(first, c+2) // '}' and ']' follow '{' and '[' by two
			if err != nil || !more {
				return err
			}
			if err := p.child(k, key, &seen); err != nil {
				return err
			}
		}
	case '"':
		return p.text(k)
	case 't':
		return p.literal("true")
	case 'f':
		return p.literal("false")
	}
	return p.number()
}

// child scans one element of an array, or the value of an object's
// member named key, in a container of kind k.
func (p *bodyParser) child(k kind, key []byte, seen *uint16) error {
	f := skipped
	switch {
	case k == recordList:
		return p.listedRecord()
	case k == attrList:
		if rb := &p.rec; rb.nAttrs < maxAttrs {
			rb.attrs = append(rb.attrs, attrSpan{})
		}
		p.rec.nAttrs++
		return p.value(attr)
	case k == skipped:
	case k == attr && isKey(key, "name"):
		f = nameText
	case k == attr && isKey(key, "value"):
		f = valueText
	case k == attr:
	case isKey(key, "id"):
		f = idText
	case isKey(key, "attrs"):
		f = attrList
	case k == wrapper && isKey(key, "records"):
		f = recordList
	}
	if f != skipped && *seen&(1<<f) != 0 {
		return errDuplicateKey
	}
	*seen |= 1 << f
	return p.value(f)
}

// isKey reports whether a decoded key names field as encoding/json
// matches them: exactly, or equal under Unicode case folding, so "ID"
// and "attrſ" (a long s) name id and attrs.
func isKey(key []byte, field string) bool {
	return string(key) == field || strings.EqualFold(string(key), field)
}

// text scans a string of kind k into the record being scanned. An
// attribute past the attribute bound is validated, not kept.
func (p *bodyParser) text(k kind) error {
	rb := &p.rec
	limit := -1
	switch {
	case k == idText:
		limit = maxIDBytes
	case k == skipped || rb.nAttrs > maxAttrs:
	case k == nameText:
		limit = maxAttrNameBytes
	default:
		limit = maxAttrValueBytes
	}
	s, n, err := p.str(limit)
	switch {
	case limit < 0:
	case k == idText:
		rb.id, rb.idLen = rb.put(s), n
	case k == nameText:
		a := &rb.attrs[len(rb.attrs)-1]
		a.name, a.nameLen = p.intern(s), n
	default:
		a := &rb.attrs[len(rb.attrs)-1]
		a.value, a.valueLen = rb.put(s), n
	}
	return err
}

// intern returns the body's one copy of an attribute name.
func (p *bodyParser) intern(name []byte) string {
	if s, ok := p.names[string(name)]; ok {
		return s
	}
	s := string(name)
	if p.names == nil {
		p.names = make(map[string]string, 8)
	}
	if len(p.names) < maxInterned {
		p.names[s] = s
	}
	return s
}

// next skips whitespace and returns the byte at p.i, or errEOF at the
// end of the body.
func (p *bodyParser) next() (byte, error) {
	for ; p.i < len(p.b); p.i++ {
		if c := p.b[p.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c, nil
		}
	}
	return 0, errEOF
}

func (p *bodyParser) badChar(i int) error {
	p.i = i
	return fmt.Errorf("invalid character %q at offset %d", p.b[i], i)
}

// expect consumes want, after whitespace.
func (p *bodyParser) expect(want byte) error {
	c, err := p.next()
	if err == nil && c != want {
		return p.badChar(p.i)
	}
	p.i++
	return err
}

// item moves to the next element or member of the array or object being
// scanned, which end closes: its first when first, else past a ','. A
// member's decoded key is returned with p.i past its ':'. At the
// closing byte more is false.
func (p *bodyParser) item(first bool, end byte) (key []byte, more bool, err error) {
	if p.depth > maxDepth {
		return nil, false, errors.New("exceeded max depth")
	}
	if c, err := p.next(); err != nil || c == end {
		p.i++
		p.depth--
		return nil, false, err
	}
	if !first {
		if err := p.expect(','); err != nil {
			return nil, false, err
		}
	}
	if end == ']' {
		return nil, true, nil
	}
	if c, err := p.next(); err != nil || c != '"' {
		if err == nil {
			err = p.badChar(p.i)
		}
		return nil, false, err
	}
	if key, _, err = p.str(maxKeyBytes); err == nil {
		err = p.expect(':')
	}
	return key, err == nil, err
}

// skipTop skips a top-level value as a streaming decoder takes it: a
// scalar is complete only once a byte follows it.
func (p *bodyParser) skipTop() error {
	c, err := p.next()
	if err == nil {
		err = p.value(skipped)
	}
	if err == nil && c != '{' && c != '[' && p.i == len(p.b) {
		err = errEOF
	}
	return err
}

func (p *bodyParser) literal(lit string) error {
	for k := 0; k < len(lit); k, p.i = k+1, p.i+1 {
		if p.i == len(p.b) {
			return errEOF
		}
		if p.b[p.i] != lit[k] {
			return p.badChar(p.i)
		}
	}
	return nil
}

// number skips a JSON number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (p *bodyParser) number() error {
	p.skip("-")
	if !p.skip("0") {
		if err := p.digits(); err != nil {
			return err
		}
	}
	if p.skip(".") {
		if err := p.digits(); err != nil {
			return err
		}
	}
	if p.skip("eE") {
		p.skip("+-")
		return p.digits()
	}
	return nil
}

// skip consumes one of the bytes in set, if it is next.
func (p *bodyParser) skip(set string) bool {
	if p.i < len(p.b) && strings.IndexByte(set, p.b[p.i]) >= 0 {
		p.i++
		return true
	}
	return false
}

// digits skips one or more digits.
func (p *bodyParser) digits() error {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	switch {
	case p.i > start:
		return nil
	case p.i == len(p.b):
		return errEOF
	}
	return p.badChar(p.i)
}

// str scans the string at p.i. It returns the decoded bytes when they
// are at most limit bytes, nil past it, and their length either way;
// past limit nothing is copied. The bytes are a slice of the body when
// nothing needed decoding, of p.tmp otherwise, valid until the next
// call.
func (p *bodyParser) str(limit int) ([]byte, int, error) {
	b, start := p.b, p.i+1
	i := start
	for i < len(b) && plain[b[i]] {
		i++
	}
	tmp, clean, n := p.tmp[:0], true, i-start
	for i < len(b) {
		c := b[i]
		if plain[c] {
			if i, n = i+1, n+1; !clean && n <= limit {
				tmp = append(tmp, c)
			}
			continue
		}
		r, size := rune(c), 1
		switch {
		case c == '"':
			p.i, p.tmp = i+1, tmp
			switch {
			case n > limit:
				return nil, n, nil
			case clean:
				return b[start:i], n, nil
			}
			return tmp, n, nil
		case c < ' ':
			return nil, 0, p.badChar(i)
		case c == '\\':
			var err error
			if r, size, err = p.escape(i); err != nil {
				return nil, 0, err
			}
		case c >= utf8.RuneSelf:
			r, size = utf8.DecodeRune(b[i:]) // invalid UTF-8: U+FFFD, 1
		}
		if clean && (c == '\\' || r == utf8.RuneError && size == 1) {
			clean = false
			if n <= limit {
				tmp = append(tmp, b[start:i]...)
			}
		}
		i += size
		if n += utf8.RuneLen(r); !clean && n <= limit {
			tmp = utf8.AppendRune(tmp, r)
		}
	}
	return nil, 0, errEOF
}

// plain marks the bytes a string holds as they are: ASCII, neither a
// control byte, a quote nor a backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// escape decodes the escape at b[i]: the rune and the bytes it spans. A
// surrogate that does not pair with a following \u escape decodes to
// U+FFFD, as encoding/json decodes it.
func (p *bodyParser) escape(i int) (rune, int, error) {
	b := p.b
	if i+1 == len(b) {
		return 0, 0, errEOF
	}
	if k := strings.IndexByte(`"\/bfnrt`, b[i+1]); k >= 0 {
		return rune("\"\\/\b\f\n\r\t"[k]), 2, nil
	}
	if b[i+1] != 'u' {
		return 0, 0, p.badChar(i + 1)
	}
	r, n := hex4(b[i+2:])
	switch {
	case n < 4 && i+2+n == len(b):
		return 0, 0, errEOF
	case n < 4:
		return 0, 0, p.badChar(i + 2 + n)
	case !utf16.IsSurrogate(r):
		return r, 6, nil
	}
	if len(b) > i+7 && b[i+6] == '\\' && b[i+7] == 'u' {
		if r2, n2 := hex4(b[i+8:]); n2 == 4 {
			if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
				return dec, 12, nil
			}
		}
	}
	return unicode.ReplacementChar, 6, nil
}

// hex4 reads up to four hex digits from s: their value and how many.
func hex4(s []byte) (r rune, n int) {
	for ; n < 4 && n < len(s); n++ {
		c := rune(s[n])
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return r, n
		}
		r = r<<4 | c
	}
	return r, n
}
