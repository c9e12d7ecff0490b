package blocking

import "encoding/binary"

// Compressed postings: each token's ascending record positions are
// delta-encoded as uvarints into one contiguous byte stream, sealed
// into blocks of postingBlock entries. Every sealed block carries
// metadata — its last position and its end offset in the stream, as
// little-endian {last u32, end u32}, the bytes the EMIX file stores and
// OpenFS validates. The query scan decodes each stream whole and
// reads no block metadata. The stream stays append-friendly: a new
// position appends one uvarint and, on a block boundary, one metadata
// entry.
//
// A token's postings span at most two segments: the immutable base's
// (an mmap'ed snapshot, see snapshot.go; none for a built index) and
// the heap tail receiving every Add. Both present the same segView.

// postingBlock is the number of postings per sealed block. 128 keeps
// block metadata under 7% of the stream bytes.
const postingBlock = 128

// postingList is a token's heap tail. The zero value is an empty list;
// the delta base of the first entry is passed into add, so a tail
// extending a base segment chains its deltas off the segment's last
// position.
type postingList struct {
	df      int32  // postings in this list (document frequency share)
	lastPos int32  // last appended position
	stream  []byte // uvarint deltas: sealed blocks then the unsealed tail
	meta    []byte // per sealed block: little-endian {last u32, end u32}
}

// add appends one position (strictly greater than the previous). base
// is the position preceding the list's first entry: -1 for a token the
// base does not hold, the base segment's last position otherwise.
func (p *postingList) add(pos, base int32) {
	prev := p.lastPos
	if p.df == 0 {
		prev = base
	}
	p.stream = binary.AppendUvarint(p.stream, uint64(pos-prev))
	p.df++
	p.lastPos = pos
	if p.df%postingBlock == 0 {
		p.meta = binary.LittleEndian.AppendUint32(p.meta, uint32(pos))
		p.meta = binary.LittleEndian.AppendUint32(p.meta, uint32(len(p.stream)))
	}
}

// segView is one posting segment as the query scan and the snapshot
// writer see it: the varint stream plus its sealed-block metadata.
type segView struct {
	stream  []byte
	meta    []byte
	count   int
	base    int32 // position preceding the first entry
	lastPos int32 // last position in the segment
}

// seg views a tail as a segment whose first entry follows base.
func (p *postingList) seg(base int32) segView {
	return segView{stream: p.stream, meta: p.meta, count: int(p.df), base: base, lastPos: p.lastPos}
}

// uvarint decodes one uvarint from b at off, returning the value and
// the encoded length. The single-byte case — the overwhelming
// majority for delta-encoded postings — stays branch-cheap.
func uvarint(b []byte, off int) (uint64, int) {
	v := uint64(b[off])
	if v < 0x80 {
		return v, 1
	}
	v &= 0x7f
	shift := 7
	n := 1
	for {
		x := b[off+n]
		n++
		v |= uint64(x&0x7f) << shift
		if x < 0x80 {
			return v, n
		}
		shift += 7
	}
}
