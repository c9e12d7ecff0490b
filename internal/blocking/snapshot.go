package blocking

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"llm4em/internal/entity"
	"llm4em/internal/persist"
)

// EMIX v1 — the mmap-friendly index snapshot format. Everything a
// query needs lives in the file at stable offsets, so OpenMapped costs
// a header validation and an mmap, never an ingest replay: token
// lookup goes through an open-addressing hash section, postings are
// the same delta+varint streams the live index appends (postings.go)
// with their sealed-block metadata alongside, and records decode
// lazily per access.
//
// Layout (all integers little-endian, every section page-aligned):
//
//	header page:  "EMIX" | pad u32 | version u64 | nRecords u64 |
//	              nTokens u64 | nBlocks u64 | 8 x section {off u64, len u64} |
//	              crc32 of the preceding bytes
//	tokenTable:   nTokens fixed 36-byte entries —
//	              postOff u64, postLen u32, df u32, lastPos u32,
//	              blockOff u32 (index into blockMeta), nBlocks u32,
//	              tokOff u32, tokLen u32
//	tokenBytes:   concatenated token strings in ID order
//	tokenHash:    power-of-two open-addressing table, u32 = token ID + 1,
//	              zero empty, keyed by FNV-1a 64 of the token bytes
//	blockMeta:    8 bytes per sealed block: last position u32, end offset u32
//	postings:     concatenated per-token varint streams
//	recordBytes:  per record: uvarint-framed ID, attr count, then
//	              uvarint-framed name/value per attribute
//	recordIndex:  nRecords+1 u64 offsets into recordBytes
//	recordHash:   power-of-two open-addressing table, u32 = position + 1,
//	              zero empty, keyed by FNV-1a 64 of the record ID —
//	              by-ID lookup without rebuilding an in-memory map
//
// The writer goes to a temp file and renames into place, so a torn
// write never shadows a good snapshot; validation at open is the O(1)
// header pass (magic, version, header CRC, section-size consistency)
// plus one structural sweep of the token table's per-entry offsets,
// so damaged data pages (bit rot past the rename's atomicity) that
// would send tokenSeg out of range surface as ErrSnapshotTorn at
// open, not as a panic at query time. The hash tables and the record
// index are range-clamped at each probe/decode, and every probe ends
// after one pass over its table, instead of being swept (keeping the
// open O(nTokens), which the restart benchmarks gate); only the varint
// stream bytes stay trusted — validating them would mean decoding every
// posting, the replay cost the format exists to avoid.

// MmapSupported reports whether OpenMapped maps (true) or reads into
// memory (false) an index snapshot on this platform. Either way it
// serves the same files.
const MmapSupported = persist.MmapSupported

// Typed snapshot errors. The resolve store fails Open with them: the
// index snapshots are the only place its records live.
var (
	// ErrSnapshotVersion reports a snapshot written by an incompatible
	// format version — newer, or older after a breaking bump.
	ErrSnapshotVersion = errors.New("blocking: unsupported index snapshot version")
	// ErrSnapshotTorn reports a snapshot file that fails structural
	// validation: truncated, corrupt, or not an index snapshot at all.
	ErrSnapshotTorn = errors.New("blocking: torn or corrupt index snapshot")
)

const (
	emixMagic    = "EMIX"
	emixVersion  = 1
	emixPage     = 4096
	emixSections = 8
	// emixHeaderSize is the used prefix of the header page: magic+pad
	// (8), three u64 counts after the version (32), the section table,
	// and the trailing CRC.
	emixHeaderSize = 8 + 32 + emixSections*16 + 4
	tokEntrySize   = 36
)

// Section indices in the header table, in file order.
const (
	secTokenTable = iota
	secTokenBytes
	secTokenHash
	secBlockMeta
	secPostings
	secRecordBytes
	secRecordIndex
	secRecordHash
)

// mappedIndex is the immutable base of an Index: section slices
// aliasing an OpenMapped snapshot, plus the counts the header pins, or
// all empty for BuildIndex (emptyBase). Every probe answers for an
// empty base as for a snapshot holding nothing.
type mappedIndex struct {
	unmap    func() error
	nRecords uint32
	nTokens  uint32
	hashMask uint32
	recMask  uint32
	tokTab   []byte
	tokBytes []byte
	tokHash  []byte
	meta     []byte
	posts    []byte
	recBytes []byte
	recIdx   []byte
	recHash  []byte
}

// emptyBase returns the zero-count base of a built index: every probe
// misses and there is no mapping to release.
func emptyBase() *mappedIndex {
	return &mappedIndex{unmap: func() error { return nil }}
}

func (m *mappedIndex) entry(id uint32) []byte {
	return m.tokTab[int(id)*tokEntrySize : int(id)*tokEntrySize+tokEntrySize]
}

// tokenDF returns a token's base document frequency: 0 for an ID the
// base does not hold.
func (m *mappedIndex) tokenDF(id uint32) int32 {
	if id >= m.nTokens {
		return 0
	}
	return int32(binary.LittleEndian.Uint32(m.entry(id)[12:]))
}

func (m *mappedIndex) tokenLastPos(id uint32) int32 {
	return int32(binary.LittleEndian.Uint32(m.entry(id)[16:]))
}

func (m *mappedIndex) token(id uint32) []byte {
	e := m.entry(id)
	off := binary.LittleEndian.Uint32(e[28:])
	n := binary.LittleEndian.Uint32(e[32:])
	return m.tokBytes[off : off+n]
}

// tokenSeg wraps a token's base postings as a segment view: stream
// bytes and block metadata straight off the map, or an empty segment
// for an ID the base does not hold.
func (m *mappedIndex) tokenSeg(id uint32) segView {
	if id >= m.nTokens {
		return segView{}
	}
	e := m.entry(id)
	postOff := binary.LittleEndian.Uint64(e[0:])
	postLen := binary.LittleEndian.Uint32(e[8:])
	df := binary.LittleEndian.Uint32(e[12:])
	lastPos := int32(binary.LittleEndian.Uint32(e[16:]))
	blockOff := binary.LittleEndian.Uint32(e[20:])
	nBlocks := binary.LittleEndian.Uint32(e[24:])
	return segView{
		stream:  m.posts[postOff : postOff+uint64(postLen)],
		meta:    m.meta[blockOff*8 : (blockOff+nBlocks)*8],
		count:   int(df),
		base:    -1,
		lastPos: lastPos,
	}
}

// lookup probes the mapped token hash for a token given as bytes. The
// hash pages are not CRC-covered, so rot is bounded twice: a slot whose
// value exceeds the token count reads as a miss rather than indexing
// the token table out of range, and a table with no empty slot left
// reads as a miss after one pass instead of spinning. An empty base
// misses before hashing, keeping FNV off a built index's token path.
func (m *mappedIndex) lookup(tok []byte) (uint32, bool) {
	if m.nTokens == 0 {
		return 0, false
	}
	i := uint32(fnv64(tok)) & m.hashMask
	for range int(m.hashMask) + 1 {
		v := binary.LittleEndian.Uint32(m.tokHash[i*4:])
		if v == 0 || v > m.nTokens {
			return 0, false
		}
		if bytes.Equal(m.token(v-1), tok) {
			return v - 1, true
		}
		i = (i + 1) & m.hashMask
	}
	return 0, false
}

// lookupString is lookup for a string token, allocation-free.
func (m *mappedIndex) lookupString(tok string) (uint32, bool) {
	if m.nTokens == 0 {
		return 0, false
	}
	i := uint32(fnv64String(tok)) & m.hashMask
	for range int(m.hashMask) + 1 {
		v := binary.LittleEndian.Uint32(m.tokHash[i*4:])
		if v == 0 || v > m.nTokens {
			return 0, false
		}
		if bytesEqString(m.token(v-1), tok) {
			return v - 1, true
		}
		i = (i + 1) & m.hashMask
	}
	return 0, false
}

// record decodes the record at a mapped position. Field strings are
// copied out of the map, so a returned Record outlives Close. Index
// offsets that do not frame a slice of the record bytes — data rot in
// the uncovered record-index pages — decode as an empty record
// instead of slicing out of range.
func (m *mappedIndex) record(pos int) entity.Record {
	off := binary.LittleEndian.Uint64(m.recIdx[pos*8:])
	end := binary.LittleEndian.Uint64(m.recIdx[(pos+1)*8:])
	if off > end || end > uint64(len(m.recBytes)) {
		return entity.Record{}
	}
	b := m.recBytes[off:end]
	var r entity.Record
	r.ID, b = readLenPrefixed(b)
	nAttrs, n := binary.Uvarint(b)
	if n <= 0 {
		return r
	}
	b = b[n:]
	// An attribute takes at least two bytes, so a count the remaining
	// bytes cannot hold is data damage — decode what frames cleanly
	// rather than sizing an allocation from a rotten length.
	if nAttrs > uint64(len(b))/2 {
		nAttrs = uint64(len(b)) / 2
	}
	r.Attrs = make([]entity.Attr, nAttrs)
	for i := range r.Attrs {
		r.Attrs[i].Name, b = readLenPrefixed(b)
		r.Attrs[i].Value, b = readLenPrefixed(b)
	}
	return r
}

// recordID returns the ID bytes of the record at a mapped position,
// aliasing the map — no record decode, no allocation.
func (m *mappedIndex) recordID(pos int) []byte {
	off := binary.LittleEndian.Uint64(m.recIdx[pos*8:])
	if off > uint64(len(m.recBytes)) {
		return nil // rotten index entry: no ID can match
	}
	b := m.recBytes[off:]
	v, n := binary.Uvarint(b)
	if n <= 0 || v > uint64(len(b)-n) {
		return nil // rotten framing: no ID can match
	}
	return b[n : n+int(v)]
}

// recordPos probes the mapped record-ID hash. With duplicate IDs in
// the snapshotted collection (legal for a bare Index; the resolve
// store never produces them) the lowest position wins. Rot is bounded
// as in lookup: a slot value past the record count, or a pass over the
// whole table, reads as a miss.
func (m *mappedIndex) recordPos(id string) (int32, bool) {
	if m.nRecords == 0 {
		return 0, false
	}
	i := uint32(fnv64String(id)) & m.recMask
	for range int(m.recMask) + 1 {
		v := binary.LittleEndian.Uint32(m.recHash[i*4:])
		if v == 0 || v > m.nRecords {
			return 0, false
		}
		if bytesEqString(m.recordID(int(v-1)), id) {
			return int32(v - 1), true
		}
		i = (i + 1) & m.recMask
	}
	return 0, false
}

// readLenPrefixed decodes one uvarint-framed string. A frame the
// remaining bytes cannot hold — rotten data the structural open-time
// checks cannot see inside record bytes — yields an empty string and
// no remainder instead of slicing out of range.
func readLenPrefixed(b []byte) (string, []byte) {
	v, n := binary.Uvarint(b)
	if n <= 0 || v > uint64(len(b)-n) {
		return "", nil
	}
	return string(b[n : n+int(v)]), b[n+int(v):]
}

func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func fnv64String(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func bytesEqString(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		if b[i] != s[i] {
			return false
		}
	}
	return true
}

// checkRecordIndex refuses, with ErrSnapshotTorn, a base whose record
// index is not non-decreasing and inside its record bytes: the
// rewrite copies both verbatim, so it must not carry rotten framing
// into a new file. (Open validated only the last entry.)
func (m *mappedIndex) checkRecordIndex() error {
	prev := uint64(0)
	for pos := 0; pos*8 < len(m.recIdx); pos++ {
		off := binary.LittleEndian.Uint64(m.recIdx[pos*8:])
		if off < prev || off > uint64(len(m.recBytes)) {
			return fmt.Errorf("%w: record index entry %d = %d does not frame the %d record bytes", ErrSnapshotTorn, pos, off, len(m.recBytes))
		}
		prev = off
	}
	return nil
}

// writeSegs returns what the snapshot writer writes for a token: its
// base segment (empty for a token new since the base) and its tail
// (nil for a base token no Add touched). touched holds the touched base
// tokens' IDs in ascending order and *t is the walk's place in it, so a
// pass over the IDs in order probes basePosts only for those.
func (ix *Index) writeSegs(id uint32, touched []uint32, t *int) (segView, *postingList) {
	if nb := ix.base.nTokens; id >= nb {
		return segView{}, &ix.posts[id-nb].postingList
	}
	var pl *postingList
	if *t < len(touched) && touched[*t] == id {
		pl = ix.basePosts[id]
		*t++
	}
	return ix.base.tokenSeg(id), pl
}

// appendTailMeta appends the sealed-block metadata of a tail that
// continues a list of k entries and streamOff stream bytes, its deltas
// chained off position from: every entry whose count in the whole list
// reaches a multiple of postingBlock seals a block there. It walks only
// the tail, and places the boundaries one list built in a single pass
// would have.
func appendTailMeta(dst []byte, pl *postingList, from int32, k, streamOff int) []byte {
	pos, off := from, 0
	for range pl.df {
		d, m := uvarint(pl.stream, off)
		off += m
		pos += int32(d)
		k++
		if k%postingBlock == 0 {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(pos))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(streamOff+off))
		}
	}
	return dst
}

// WriteSnapshot is Encode through persist.WriteAtomic on the real
// filesystem; the file reopens with OpenMapped.
func (ix *Index) WriteSnapshot(path string) error {
	return persist.WriteAtomic(persist.OS, path, ix.Encode)
}

// Encode writes the index in the EMIX format to f, an empty file: the
// file OpenFS serves, and the same file BuildIndex over the same
// collection would encode.
//
// Over a mapped base the rewrite is a copy plus an O(delta) encode. The
// base's record bytes and record-index entries go out in one write
// each, and each base token's stream and block metadata as they are:
// its tail chains its deltas off the base's last position, so base
// stream then tail stream is the stream of the one merged list. Only
// the tails' entries are walked, to place the block boundaries that
// follow. Token bytes and hashes are read off the map, uncopied. A
// base whose record index does not frame its record bytes fails the
// write with ErrSnapshotTorn.
func (ix *Index) Encode(f persist.File) error {
	b := ix.base
	if err := b.checkRecordIndex(); err != nil {
		return err
	}
	nBase := int(b.nTokens)
	nTok := nBase + ix.vocab.Len()
	n := ix.Len()
	touched := make([]uint32, 0, len(ix.basePosts))
	for id := range ix.basePosts {
		touched = append(touched, id)
	}
	slices.Sort(touched)

	// Per-token pass: table entries, the token hash (power-of-two, load
	// factor <= 0.5) and the tails' block metadata, in ID order.
	tab := make([]byte, nTok*tokEntrySize)
	hashEntries := uint32(8)
	for int(hashEntries) < 2*nTok {
		hashEntries *= 2
	}
	tokHash := make([]byte, hashEntries*4)
	var tailMeta []byte
	var tokLen, postsLen, metaLen uint64
	t := 0
	for id := 0; id < nTok; id++ {
		bs, pl := ix.writeSegs(uint32(id), touched, &t)
		streamLen, df, lastPos, nMeta := len(bs.stream), bs.count, bs.lastPos, len(bs.meta)
		if pl != nil {
			k := len(tailMeta)
			tailMeta = appendTailMeta(tailMeta, pl, ix.overlayBase(uint32(id)), df, streamLen)
			streamLen += len(pl.stream)
			df += int(pl.df)
			lastPos = pl.lastPos
			nMeta += len(tailMeta) - k
		}
		var h uint64
		var tl int
		if id < nBase {
			tok := b.token(uint32(id))
			h, tl = fnv64(tok), len(tok)
		} else {
			tok := ix.vocab.Token(uint32(id - nBase))
			h, tl = fnv64String(tok), len(tok)
		}
		e := tab[id*tokEntrySize:]
		binary.LittleEndian.PutUint64(e[0:], postsLen)
		binary.LittleEndian.PutUint32(e[8:], uint32(streamLen))
		binary.LittleEndian.PutUint32(e[12:], uint32(df))
		binary.LittleEndian.PutUint32(e[16:], uint32(lastPos))
		binary.LittleEndian.PutUint32(e[20:], uint32(metaLen/8))
		binary.LittleEndian.PutUint32(e[24:], uint32(nMeta/8))
		binary.LittleEndian.PutUint32(e[28:], uint32(tokLen))
		binary.LittleEndian.PutUint32(e[32:], uint32(tl))
		tokLen += uint64(tl)
		postsLen += uint64(streamLen)
		metaLen += uint64(nMeta)
		i := uint32(h) & (hashEntries - 1)
		for binary.LittleEndian.Uint32(tokHash[i*4:]) != 0 {
			i = (i + 1) & (hashEntries - 1)
		}
		binary.LittleEndian.PutUint32(tokHash[i*4:], uint32(id)+1)
	}

	// Record hash: ascending inserts + linear probing make the lowest
	// position of a duplicate ID win at lookup.
	recEntries := uint32(8)
	for int(recEntries) < 2*n {
		recEntries *= 2
	}
	recHash := make([]byte, recEntries*4)
	for pos := 0; pos < n; pos++ {
		var h uint64
		if pos < int(b.nRecords) {
			h = fnv64(b.recordID(pos))
		} else {
			h = fnv64String(ix.records[pos-int(b.nRecords)].ID)
		}
		i := uint32(h) & (recEntries - 1)
		for binary.LittleEndian.Uint32(recHash[i*4:]) != 0 {
			i = (i + 1) & (recEntries - 1)
		}
		binary.LittleEndian.PutUint32(recHash[i*4:], uint32(pos)+1)
	}

	// The buffer only gathers the small per-token and per-record pieces:
	// bufio passes a write larger than it — the base's sections — to the
	// file directly.
	w := &pageWriter{w: bufio.NewWriterSize(f, writeBuffer)}
	// Header page is written last (record-byte sizes are only known
	// after streaming); reserve it with a zero page now.
	w.write(zeroPage[:])

	var secs [emixSections][2]uint64 // {off, len}
	begin := func(i int) { secs[i][0] = w.off }
	end := func(i int) { secs[i][1] = w.off - secs[i][0]; w.pad(emixPage) }

	begin(secTokenTable)
	w.write(tab)
	end(secTokenTable)
	begin(secTokenBytes)
	for id := 0; id < nTok; id++ {
		if id < nBase {
			w.write(b.token(uint32(id)))
		} else {
			w.writeString(ix.vocab.Token(uint32(id - nBase)))
		}
	}
	end(secTokenBytes)
	begin(secTokenHash)
	w.write(tokHash)
	end(secTokenHash)
	begin(secBlockMeta)
	t, mo := 0, 0
	for id := 0; id < nTok; id++ {
		bs, pl := ix.writeSegs(uint32(id), touched, &t)
		w.write(bs.meta)
		if pl != nil {
			k := mo + int(binary.LittleEndian.Uint32(tab[id*tokEntrySize+24:]))*8 - len(bs.meta)
			w.write(tailMeta[mo:k])
			mo = k
		}
	}
	end(secBlockMeta)
	begin(secPostings)
	t = 0
	for id := 0; id < nTok; id++ {
		bs, pl := ix.writeSegs(uint32(id), touched, &t)
		w.write(bs.stream)
		if pl != nil {
			w.write(pl.stream)
		}
	}
	end(secPostings)

	// Records: the base's bytes, then the tail's encoded; the base's
	// index entries, then the tail's offsets.
	begin(secRecordBytes)
	recBase := w.off
	w.write(b.recBytes)
	tailIdx := make([]byte, 0, (len(ix.records)+1)*8)
	var scratch []byte
	for _, r := range ix.records {
		tailIdx = binary.LittleEndian.AppendUint64(tailIdx, w.off-recBase)
		scratch = appendRecord(scratch[:0], r)
		w.write(scratch)
	}
	tailIdx = binary.LittleEndian.AppendUint64(tailIdx, w.off-recBase)
	end(secRecordBytes)
	begin(secRecordIndex)
	w.write(b.recIdx[:int(b.nRecords)*8])
	w.write(tailIdx)
	end(secRecordIndex)
	begin(secRecordHash)
	w.write(recHash)
	end(secRecordHash)
	if err := w.w.Flush(); err != nil {
		return err
	}

	// Header: counts, section table, CRC over the preceding bytes.
	hdr := make([]byte, emixHeaderSize)
	copy(hdr, emixMagic)
	binary.LittleEndian.PutUint64(hdr[8:], emixVersion)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(n))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(nTok))
	binary.LittleEndian.PutUint64(hdr[32:], metaLen/8)
	for i, s := range secs {
		binary.LittleEndian.PutUint64(hdr[40+i*16:], s[0])
		binary.LittleEndian.PutUint64(hdr[48+i*16:], s[1])
	}
	binary.LittleEndian.PutUint32(hdr[emixHeaderSize-4:], crc32.ChecksumIEEE(hdr[:emixHeaderSize-4]))
	_, err := f.WriteAt(hdr, 0)
	return err
}

// writeBuffer sizes Encode's write buffer, allocated per call
// and dropped with it.
const writeBuffer = 64 << 10

// appendRecord encodes one record: uvarint-framed ID, attribute count,
// then uvarint-framed name/value pairs.
func appendRecord(dst []byte, r entity.Record) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r.ID)))
	dst = append(dst, r.ID...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Attrs)))
	for _, a := range r.Attrs {
		dst = binary.AppendUvarint(dst, uint64(len(a.Name)))
		dst = append(dst, a.Name...)
		dst = binary.AppendUvarint(dst, uint64(len(a.Value)))
		dst = append(dst, a.Value...)
	}
	return dst
}

// pageWriter tracks the logical file offset and pads sections to page
// boundaries. Write errors surface at the final Flush (bufio sticks on
// the first error), keeping the section-writing code linear.
type pageWriter struct {
	w   *bufio.Writer
	off uint64
}

func (p *pageWriter) write(b []byte) {
	p.w.Write(b)
	p.off += uint64(len(b))
}

func (p *pageWriter) writeString(s string) {
	p.w.WriteString(s)
	p.off += uint64(len(s))
}

var zeroPage [emixPage]byte

func (p *pageWriter) pad(align uint64) {
	if rem := p.off % align; rem != 0 {
		p.write(zeroPage[:align-rem])
	}
}

// OpenMapped is OpenFS on the real filesystem.
func OpenMapped(path string, opts IndexOptions) (*Index, error) {
	return OpenFS(persist.OS, path, opts)
}

// OpenFS serves an index straight out of the EMIX file at path, as
// fsys's Map hands it out: no ingest replay, no IDF precomputation
// (weights materialize lazily per token on first use). Validation is
// O(vocabulary): magic, version, header CRC, section-size consistency
// and the token-table sweep; a file that fails it is released and
// refused with ErrSnapshotVersion or ErrSnapshotTorn (both wrapped with
// detail). The file is the index's base: it accepts Add into its heap
// tail, allocating nothing per token at open, and Close releases it.
func OpenFS(fsys persist.FS, path string, opts IndexOptions) (*Index, error) {
	data, release, err := fsys.Map(path)
	if err != nil {
		return nil, err
	}
	if len(data) < emixPage {
		release()
		return nil, fmt.Errorf("%w: %d-byte file is shorter than a header page", ErrSnapshotTorn, len(data))
	}
	m, err := parseMapped(data, release)
	if err != nil {
		release()
		return nil, err
	}
	return newIndex(m, opts), nil
}

// parseMapped validates the header and carves the section slices.
func parseMapped(data []byte, unmap func() error) (*mappedIndex, error) {
	if string(data[:4]) != emixMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrSnapshotTorn, data[:4])
	}
	if v := binary.LittleEndian.Uint64(data[8:]); v != emixVersion {
		return nil, fmt.Errorf("%w: version %d, this build reads %d", ErrSnapshotVersion, v, emixVersion)
	}
	if got, want := crc32.ChecksumIEEE(data[:emixHeaderSize-4]), binary.LittleEndian.Uint32(data[emixHeaderSize-4:]); got != want {
		return nil, fmt.Errorf("%w: header CRC mismatch", ErrSnapshotTorn)
	}
	nRecords := binary.LittleEndian.Uint64(data[16:])
	nTokens := binary.LittleEndian.Uint64(data[24:])
	nBlocks := binary.LittleEndian.Uint64(data[32:])
	size := uint64(len(data))
	var sec [emixSections][]byte
	for i := 0; i < emixSections; i++ {
		off := binary.LittleEndian.Uint64(data[40+i*16:])
		n := binary.LittleEndian.Uint64(data[48+i*16:])
		if off%emixPage != 0 || off > size || n > size-off {
			return nil, fmt.Errorf("%w: section %d [%d:+%d] outside the %d-byte file", ErrSnapshotTorn, i, off, n, size)
		}
		sec[i] = data[off : off+n]
	}
	if got, want := uint64(len(sec[secTokenTable])), nTokens*tokEntrySize; got != want {
		return nil, fmt.Errorf("%w: token table holds %d bytes, %d tokens need %d", ErrSnapshotTorn, got, nTokens, want)
	}
	if got, want := uint64(len(sec[secBlockMeta])), nBlocks*8; got != want {
		return nil, fmt.Errorf("%w: block metadata holds %d bytes, %d blocks need %d", ErrSnapshotTorn, got, nBlocks, want)
	}
	if got, want := uint64(len(sec[secRecordIndex])), (nRecords+1)*8; got != want {
		return nil, fmt.Errorf("%w: record index holds %d bytes, %d records need %d", ErrSnapshotTorn, got, nRecords, want)
	}
	he := len(sec[secTokenHash]) / 4
	if he < 8 || he&(he-1) != 0 || len(sec[secTokenHash])%4 != 0 {
		return nil, fmt.Errorf("%w: token hash holds %d entries, want a power of two >= 8", ErrSnapshotTorn, he)
	}
	re := len(sec[secRecordHash]) / 4
	if re < 8 || re&(re-1) != 0 || len(sec[secRecordHash])%4 != 0 {
		return nil, fmt.Errorf("%w: record hash holds %d entries, want a power of two >= 8", ErrSnapshotTorn, re)
	}
	if last := binary.LittleEndian.Uint64(sec[secRecordIndex][nRecords*8:]); last != uint64(len(sec[secRecordBytes])) {
		return nil, fmt.Errorf("%w: record index ends at %d, record bytes hold %d", ErrSnapshotTorn, last, len(sec[secRecordBytes]))
	}
	// Positions are int32 and token IDs uint32 throughout the index.
	if nRecords > 1<<31-1 || nTokens > 1<<32-1 {
		return nil, fmt.Errorf("%w: counts overflow (%d records, %d tokens)", ErrSnapshotTorn, nRecords, nTokens)
	}
	// Per-entry structural validation of the token table. The header
	// CRC only vouches for the header page; these offsets come from
	// data pages, and a snapshot whose data rotted (bit damage past the
	// rename's atomicity) would otherwise slice the map out of range in
	// tokenSeg at query time — a panic inside serving instead of a
	// typed error here. One 36-bytes-per-token pass keeps the open
	// fast (the restart benchmarks gate it); the hash tables and the
	// record index are instead range-clamped at each probe/decode — a
	// branch per access, not a scan per open — and the varint stream
	// bytes themselves stay trusted: validating them would mean
	// decoding every posting, the replay cost the format exists to
	// avoid.
	postSecLen := uint64(len(sec[secPostings]))
	tokSecLen := uint64(len(sec[secTokenBytes]))
	for id, tab := uint64(0), sec[secTokenTable]; id < nTokens; id, tab = id+1, tab[tokEntrySize:] {
		e := tab[:tokEntrySize]
		postOff := binary.LittleEndian.Uint64(e[0:8])
		postLen := uint64(binary.LittleEndian.Uint32(e[8:12]))
		blockOff := uint64(binary.LittleEndian.Uint32(e[20:24]))
		tokBlocks := uint64(binary.LittleEndian.Uint32(e[24:28]))
		tokOff := uint64(binary.LittleEndian.Uint32(e[28:32]))
		tokLen := uint64(binary.LittleEndian.Uint32(e[32:36]))
		switch {
		case postOff > postSecLen || postLen > postSecLen-postOff:
			return nil, fmt.Errorf("%w: token %d postings [%d:+%d] outside the %d-byte section", ErrSnapshotTorn, id, postOff, postLen, postSecLen)
		case blockOff > nBlocks || tokBlocks > nBlocks-blockOff:
			return nil, fmt.Errorf("%w: token %d blocks [%d:+%d] outside the %d-block metadata", ErrSnapshotTorn, id, blockOff, tokBlocks, nBlocks)
		case tokOff > tokSecLen || tokLen > tokSecLen-tokOff:
			return nil, fmt.Errorf("%w: token %d bytes [%d:+%d] outside the %d-byte section", ErrSnapshotTorn, id, tokOff, tokLen, tokSecLen)
		}
	}
	return &mappedIndex{
		unmap:    unmap,
		nRecords: uint32(nRecords),
		nTokens:  uint32(nTokens),
		hashMask: uint32(he - 1),
		recMask:  uint32(re - 1),
		tokTab:   sec[secTokenTable],
		tokBytes: sec[secTokenBytes],
		tokHash:  sec[secTokenHash],
		meta:     sec[secBlockMeta],
		posts:    sec[secPostings],
		recBytes: sec[secRecordBytes],
		recIdx:   sec[secRecordIndex],
		recHash:  sec[secRecordHash],
	}, nil
}

// Close releases the mmap of an OpenMapped index; on a built index it
// releases nothing. The index must not be used after Close.
func (ix *Index) Close() error {
	m := ix.base
	ix.base = emptyBase()
	return m.unmap()
}

// RecordPos returns the position of the record with the given ID,
// for every record the index holds: the base answers through the
// snapshot's on-disk hash section — O(1), no per-record decode, no
// rebuilt in-memory map — and the tail through the ID map Add keeps. A
// repeated ID resolves to its first position.
func (ix *Index) RecordPos(id string) (int, bool) {
	if pos, ok := ix.base.recordPos(id); ok {
		return int(pos), true
	}
	pos, ok := ix.ids[id]
	return int(pos), ok
}

// RecordID returns the ID of the record at an index position without
// decoding its attributes — the cheap accessor for callers walking the
// index's identity space (e.g. rebuilding an entity graph).
func (ix *Index) RecordID(pos int) string {
	if b := int(ix.base.nRecords); pos >= b {
		return ix.records[pos-b].ID
	}
	return string(ix.base.recordID(pos))
}

// PostingsBytes reports the bytes the posting lists occupy, skip
// metadata included — the numerator of the bytes-per-record benchmark
// the snapshot format is sized by.
func (ix *Index) PostingsBytes() int {
	total := len(ix.base.posts) + len(ix.base.meta)
	for i := range ix.posts {
		total += len(ix.posts[i].stream) + len(ix.posts[i].meta)
	}
	for _, pl := range ix.basePosts {
		total += len(pl.stream) + len(pl.meta)
	}
	return total
}
