package blocking

import "encoding/binary"

// Compressed postings: each token's ascending record positions are
// delta-encoded as uvarints into one contiguous byte stream, sealed
// into blocks of postingBlock entries. Every sealed block carries skip
// metadata — its last position and its end offset in the stream, as
// little-endian {last u32, end u32}, the bytes the EMIX file stores —
// so a seeking cursor (the block-max pruning path) jumps over blocks
// whose last position cannot reach the target without decoding a
// byte. The stream stays append-friendly: a new position appends one
// uvarint and, on a block boundary, one metadata entry.
//
// A token's postings span at most two segments: the immutable base's
// (an mmap'ed snapshot, see snapshot.go; none for a built index) and
// the heap tail receiving every Add. Both present the same segView.

// postingBlock is the number of postings per sealed block. 128 keeps
// block metadata under 7% of the stream bytes while skipping decodes
// in useful chunks.
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

// segView is one posting segment as the cursor and the dense scan see
// it: the varint stream plus its sealed-block metadata.
type segView struct {
	stream  []byte
	meta    []byte
	count   int
	base    int32 // position preceding the first entry
	lastPos int32 // last position in the segment
}

func (s *segView) nBlocks() int { return len(s.meta) / 8 }

func (s *segView) blockLast(i int) int32 {
	return int32(binary.LittleEndian.Uint32(s.meta[i*8:]))
}

func (s *segView) blockEnd(i int) uint32 {
	return binary.LittleEndian.Uint32(s.meta[i*8+4:])
}

// seg views a tail as a segment whose first entry follows base.
func (p *postingList) seg(base int32) segView {
	return segView{stream: p.stream, meta: p.meta, count: int(p.df), base: base, lastPos: p.lastPos}
}

// plCursor iterates one token's postings across its segments in
// ascending position order, with block-skipping seeks. Zero postings
// are never constructed into a cursor (callers skip df == 0 tokens).
type plCursor struct {
	segs [2]segView
	nseg int

	seg  int   // current segment
	blk  int   // current block (nBlocks() = the unsealed tail)
	brem int   // entries left to decode in the current block
	idx  int   // entries consumed in the current segment
	off  int   // byte offset of the next uvarint in the segment stream
	cur  int32 // current position; valid after the first next()
	done bool

	// decoded counts postings this cursor decoded; skipped counts
	// postings jumped over without decoding (whole blocks and whole
	// segments). Both feed telemetry.
	decoded uint64
	skipped uint64
}

// reset points the cursor before the first entry of the segments.
func (c *plCursor) reset(segs [2]segView, nseg int) {
	c.segs = segs
	c.nseg = nseg
	c.seg = 0
	c.enterSegment()
	c.done = nseg == 0
	c.decoded = 0
	c.skipped = 0
}

// enterSegment initializes the per-segment decode state.
func (c *plCursor) enterSegment() {
	c.blk = 0
	c.idx = 0
	c.off = 0
	if c.seg < c.nseg {
		s := &c.segs[c.seg]
		c.cur = s.base
		c.brem = c.blockEntries(s, 0)
	}
}

// blockEntries returns how many entries block i holds (sealed blocks
// are full; the tail holds the remainder).
func (c *plCursor) blockEntries(s *segView, i int) int {
	if i < s.nBlocks() {
		return postingBlock
	}
	return s.count - s.nBlocks()*postingBlock
}

// next advances to the following posting. Returns false when the
// cursor is exhausted.
func (c *plCursor) next() bool {
	for {
		if c.done {
			return false
		}
		s := &c.segs[c.seg]
		if c.idx < s.count {
			if c.brem == 0 {
				c.blk++
				c.brem = c.blockEntries(s, c.blk)
			}
			d, n := uvarint(s.stream, c.off)
			c.off += n
			c.cur += int32(d)
			c.idx++
			c.brem--
			c.decoded++
			return true
		}
		if c.seg+1 >= c.nseg {
			c.done = true
			return false
		}
		c.seg++
		c.enterSegment()
	}
}

// seek advances the cursor to the first posting >= target, skipping
// sealed blocks (and whole segments) whose last position is below the
// target without decoding them. The cursor must be positioned on an
// entry (next returned true) with cur < target.
func (c *plCursor) seek(target int32) bool {
	for {
		if c.done {
			return false
		}
		s := &c.segs[c.seg]
		if s.lastPos < target {
			// The whole remainder of this segment is below the target.
			c.skipped += uint64(s.count - c.idx)
			if c.seg+1 >= c.nseg {
				c.done = true
				return false
			}
			c.seg++
			c.enterSegment()
			continue
		}
		// Skip sealed blocks that end below the target. brem counts the
		// undecoded remainder of the current block; a skipped block
		// contributes all of it.
		for c.blk < s.nBlocks() && s.blockLast(c.blk) < target {
			c.skipped += uint64(c.brem)
			c.cur = s.blockLast(c.blk)
			c.off = int(s.blockEnd(c.blk))
			c.idx = (c.blk + 1) * postingBlock
			c.blk++
			c.brem = c.blockEntries(s, c.blk)
		}
		// Linear decode within the first block that can contain the
		// target.
		for c.cur < target {
			if !c.next() {
				return false
			}
		}
		return true
	}
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
