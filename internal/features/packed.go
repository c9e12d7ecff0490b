package features

import (
	"encoding/binary"

	"llm4em/internal/entity"
)

// Packed is the compact form a long-lived per-record cache keeps of an
// extraction: exactly what PairFeatures reads from a stored candidate,
// in one string plus the scalar fields. Raw goes once WordTokens stands
// in for it, Tokens once TitleTokens does — PairFeatures reads either
// only as the fallback for the other — so a Packed no longer keeps the
// serialized text or the full token slice alive. Query-side extractions
// and internal/llm's own (which read Raw and Tokens) stay whole.
//
// The string holds every kept list and string back to back, each token
// behind its uvarint length and each list behind a uvarint count, 0
// meaning nil and n+1 a list of n (so nil and empty lists stay apart).
// A stored record costs one allocation of the token bytes and a few
// length bytes, where an Extracted costs a 304 B struct and a slice per
// list.
//
// The zero Packed is no extraction: Pack always returns a non-empty
// string (IsZero reports the difference).
type Packed struct {
	s      string
	price  float64
	year   int32
	flags  uint8
	domain uint8
}

// Packed flag bits.
const (
	packedHasPrice uint8 = 1 << iota
	packedHasYear
)

// Pack encodes the stored form of e. e.Year must fit in an int32 and
// e.Domain in a uint8, as every year and domain ExtractText reports
// does.
func Pack(e Extracted) Packed {
	if e.WordTokens != nil {
		e.Raw = ""
	}
	if len(e.TitleTokens) > 0 {
		e.Tokens = nil
	}
	lists := [...][]string{e.Tokens, e.WordTokens, e.Models, e.Versions, e.Variants,
		e.Colors, e.Editions, e.Authors, e.TitleTokens}
	strs := [...]string{e.Raw, e.Brand, e.Venue}

	var b []byte
	for _, l := range lists {
		b = binary.AppendUvarint(b, packedCount(l))
		for _, t := range l {
			b = binary.AppendUvarint(b, uint64(len(t)))
			b = append(b, t...)
		}
	}
	for _, s := range strs {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}

	p := Packed{s: string(b), price: e.Price, year: int32(e.Year), domain: uint8(e.Domain)}
	if e.HasPrice {
		p.flags |= packedHasPrice
	}
	if e.HasYear {
		p.flags |= packedHasYear
	}
	return p
}

// IsZero reports whether p is the zero Packed, which holds no
// extraction.
func (p Packed) IsZero() bool { return p.s == "" }

// Expand returns the stored form of the extraction p packs. Its lists
// are cut from buf, appended to and returned for reuse, and its strings
// are substrings of p: expanding copies no token bytes, and allocates
// nothing once buf has room. Earlier expansions into the same buf stay
// valid. The lists are capped at their length, so appending to one
// never writes into buf.
func (p Packed) Expand(buf []string) (Extracted, []string) {
	d := packedDecoder{s: p.s}
	var e Extracted
	e.Tokens, buf = d.list(buf)
	e.WordTokens, buf = d.list(buf)
	e.Models, buf = d.list(buf)
	e.Versions, buf = d.list(buf)
	e.Variants, buf = d.list(buf)
	e.Colors, buf = d.list(buf)
	e.Editions, buf = d.list(buf)
	e.Authors, buf = d.list(buf)
	e.TitleTokens, buf = d.list(buf)
	e.Raw = d.str()
	e.Brand = d.str()
	e.Venue = d.str()
	e.Price, e.HasPrice = p.price, p.flags&packedHasPrice != 0
	e.Year, e.HasYear = int(p.year), p.flags&packedHasYear != 0
	e.Domain = entity.Domain(p.domain)
	return e, buf
}

// packedCount is the encoded count of a list: 0 for nil, n+1 for n
// elements.
func packedCount(l []string) uint64 {
	if l == nil {
		return 0
	}
	return uint64(len(l)) + 1
}

// packedDecoder reads a Packed string front to back. The string is
// Pack's own output, so it is trusted: no length is checked.
type packedDecoder struct {
	s string
	i int
}

func (d *packedDecoder) uvarint() int {
	x, shift := 0, uint(0)
	for {
		c := d.s[d.i]
		d.i++
		x |= int(c&0x7f) << shift
		if c < 0x80 {
			return x
		}
		shift += 7
	}
}

func (d *packedDecoder) str() string {
	n := d.uvarint()
	s := d.s[d.i : d.i+n]
	d.i += n
	return s
}

func (d *packedDecoder) list(buf []string) ([]string, []string) {
	n := d.uvarint()
	switch n {
	case 0:
		return nil, buf
	case 1:
		return []string{}, buf
	}
	start := len(buf)
	for k := 1; k < n; k++ {
		buf = append(buf, d.str())
	}
	return buf[start:len(buf):len(buf)], buf
}
