package blocking

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"llm4em/internal/entity"
	"llm4em/internal/tokenize"
)

// EMIX v1 — the mmap-friendly index snapshot format. Everything a
// query needs lives in the file at stable offsets, so OpenMapped costs
// a header validation and an mmap, never an ingest replay: token
// lookup goes through an open-addressing hash section, postings are
// the same delta+varint streams the live index appends (postings.go)
// with their sealed-block skip metadata alongside, and records decode
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
// open — where callers can rebuild — not as a panic at query time.
// The hash tables and the record index are range-clamped at each
// probe/decode instead of swept (keeping the open O(nTokens), which
// the restart benchmarks gate); only the varint stream bytes stay
// trusted — validating them would mean decoding every posting, the
// replay cost the format exists to avoid.

// MmapSupported reports whether this platform can serve index
// snapshots through OpenMapped. A WriteSnapshot succeeds everywhere
// (plain file I/O), so a caller about to make an index snapshot the
// authoritative carrier of its records — the resolve store's
// checkpoints — must consult this first: committing a snapshot the
// same build can never map back silently degrades the next open to
// whatever other state exists.
const MmapSupported = mmapSupported

// Typed snapshot errors. Callers that open snapshots opportunistically
// (the resolve store) match these to fall back to an ingest replay.
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

// mappedIndex is the read-only mmap'ed base of an OpenMapped Index:
// section slices aliasing the map, plus the counts the header pins.
type mappedIndex struct {
	data     []byte
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

func (m *mappedIndex) entry(id uint32) []byte {
	return m.tokTab[int(id)*tokEntrySize : int(id)*tokEntrySize+tokEntrySize]
}

func (m *mappedIndex) tokenDF(id uint32) int32 {
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

// tokenSeg wraps a token's mapped postings as the cursor's segment
// view: stream bytes and block metadata straight off the map.
func (m *mappedIndex) tokenSeg(id uint32) segView {
	e := m.entry(id)
	postOff := binary.LittleEndian.Uint64(e[0:])
	postLen := binary.LittleEndian.Uint32(e[8:])
	df := binary.LittleEndian.Uint32(e[12:])
	lastPos := int32(binary.LittleEndian.Uint32(e[16:]))
	blockOff := binary.LittleEndian.Uint32(e[20:])
	nBlocks := binary.LittleEndian.Uint32(e[24:])
	return segView{
		stream:  m.posts[postOff : postOff+uint64(postLen)],
		metaLE:  m.meta[blockOff*8 : (blockOff+nBlocks)*8],
		nBlocks: int(nBlocks),
		count:   int(df),
		base:    -1,
		lastPos: lastPos,
	}
}

// lookup probes the mapped token hash for a token given as bytes. A
// slot whose value exceeds the token count is data rot (the hash
// pages are not CRC-covered) and reads as a miss rather than indexing
// the token table out of range.
func (m *mappedIndex) lookup(tok []byte) (uint32, bool) {
	i := uint32(fnv64(tok)) & m.hashMask
	for {
		v := binary.LittleEndian.Uint32(m.tokHash[i*4:])
		if v == 0 || v > m.nTokens {
			return 0, false
		}
		if bytes.Equal(m.token(v-1), tok) {
			return v - 1, true
		}
		i = (i + 1) & m.hashMask
	}
}

// lookupString is lookup for a string token, allocation-free.
func (m *mappedIndex) lookupString(tok string) (uint32, bool) {
	i := uint32(fnv64String(tok)) & m.hashMask
	for {
		v := binary.LittleEndian.Uint32(m.tokHash[i*4:])
		if v == 0 || v > m.nTokens {
			return 0, false
		}
		if bytesEqString(m.token(v-1), tok) {
			return v - 1, true
		}
		i = (i + 1) & m.hashMask
	}
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
// store never produces them) the lowest position wins. A slot value
// past the record count is data rot and reads as a miss.
func (m *mappedIndex) recordPos(id string) (int32, bool) {
	i := uint32(fnv64String(id)) & m.recMask
	for {
		v := binary.LittleEndian.Uint32(m.recHash[i*4:])
		if v == 0 || v > m.nRecords {
			return 0, false
		}
		if bytesEqString(m.recordID(int(v-1)), id) {
			return int32(v - 1), true
		}
		i = (i + 1) & m.recMask
	}
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

// tokenOf returns the token string of an ID across the mapped base and
// the live vocab (snapshot-writer path; allocates for mapped tokens).
func (ix *Index) tokenOf(id uint32) string {
	if s := ix.snapTokens(); id >= s {
		return ix.vocab.Token(id - s)
	}
	return string(ix.snap.token(id))
}

// postingsForWrite produces one token's full posting stream and block
// metadata (little-endian 8-byte entries) for the snapshot writer.
// Fresh lists and untouched mapped segments are returned verbatim;
// overlay extensions of mapped tokens are re-encoded through a cursor
// so sealed-block boundaries stay aligned to postingBlock entries.
func (ix *Index) postingsForWrite(id uint32) (stream, meta []byte, df uint32, lastPos int32) {
	if ix.snap == nil {
		pl := &ix.posts[id]
		return pl.stream, plMetaLE(pl), uint32(pl.df), pl.lastPos
	}
	base := id < ix.snap.nTokens && ix.snap.tokenDF(id) > 0
	ov := ix.overlay[id]
	if ov == nil || ov.df == 0 {
		if !base {
			return nil, nil, 0, -1
		}
		seg := ix.snap.tokenSeg(id)
		return seg.stream, seg.metaLE, uint32(seg.count), seg.lastPos
	}
	if !base {
		return ov.stream, plMetaLE(ov), uint32(ov.df), ov.lastPos
	}
	var c plCursor
	ix.initCursor(&c, id)
	var pl postingList
	for c.next() {
		pl.add(c.cur, -1)
	}
	return pl.stream, plMetaLE(&pl), uint32(pl.df), pl.lastPos
}

// plMetaLE converts a live list's block metadata to the wire encoding.
func plMetaLE(p *postingList) []byte {
	m := make([]byte, 0, len(p.last)*8)
	for i := range p.last {
		m = binary.LittleEndian.AppendUint32(m, uint32(p.last[i]))
		m = binary.LittleEndian.AppendUint32(m, p.end[i])
	}
	return m
}

// WriteSnapshot writes the index to path in the EMIX mmap format,
// atomically (temp file + rename). The written file reopens with
// OpenMapped regardless of this index's storage mode — a mapped index
// with overlay appends merges them back into single streams.
func (ix *Index) WriteSnapshot(path string) (err error) {
	nTok := int(ix.snapTokens()) + ix.vocab.Len()
	n := ix.Len()

	// Per-token pass: table entries plus references to each token's
	// stream/metadata bytes (aliased where verbatim, rebuilt otherwise).
	tab := make([]byte, nTok*tokEntrySize)
	streams := make([][]byte, nTok)
	metas := make([][]byte, nTok)
	var tokLen, postsLen, metaLen uint64
	for id := 0; id < nTok; id++ {
		stream, meta, df, lastPos := ix.postingsForWrite(uint32(id))
		streams[id], metas[id] = stream, meta
		tok := ix.tokenOf(uint32(id))
		e := tab[id*tokEntrySize:]
		binary.LittleEndian.PutUint64(e[0:], postsLen)
		binary.LittleEndian.PutUint32(e[8:], uint32(len(stream)))
		binary.LittleEndian.PutUint32(e[12:], df)
		binary.LittleEndian.PutUint32(e[16:], uint32(lastPos))
		binary.LittleEndian.PutUint32(e[20:], uint32(metaLen/8))
		binary.LittleEndian.PutUint32(e[24:], uint32(len(meta)/8))
		binary.LittleEndian.PutUint32(e[28:], uint32(tokLen))
		binary.LittleEndian.PutUint32(e[32:], uint32(len(tok)))
		tokLen += uint64(len(tok))
		postsLen += uint64(len(stream))
		metaLen += uint64(len(meta))
	}

	// Token hash: power-of-two, load factor <= 0.5.
	hashEntries := uint32(8)
	for int(hashEntries) < 2*nTok {
		hashEntries *= 2
	}
	tokHash := make([]byte, hashEntries*4)
	for id := 0; id < nTok; id++ {
		i := uint32(fnv64String(ix.tokenOf(uint32(id)))) & (hashEntries - 1)
		for binary.LittleEndian.Uint32(tokHash[i*4:]) != 0 {
			i = (i + 1) & (hashEntries - 1)
		}
		binary.LittleEndian.PutUint32(tokHash[i*4:], uint32(id)+1)
	}

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()

	w := &pageWriter{w: bufio.NewWriterSize(f, 1<<20)}
	// Header page is written last (record-byte sizes are only known
	// after streaming); reserve it with a zero page now.
	w.write(zeroPage[:])
	if err := w.flushErr(); err != nil {
		return err
	}

	var secs [emixSections][2]uint64 // {off, len}
	begin := func(i int) { secs[i][0] = w.off }
	end := func(i int) error { secs[i][1] = w.off - secs[i][0]; return w.pad(emixPage) }

	begin(secTokenTable)
	w.write(tab)
	if err := end(secTokenTable); err != nil {
		return err
	}
	begin(secTokenBytes)
	for id := 0; id < nTok; id++ {
		w.writeString(ix.tokenOf(uint32(id)))
	}
	if err := end(secTokenBytes); err != nil {
		return err
	}
	begin(secTokenHash)
	w.write(tokHash)
	if err := end(secTokenHash); err != nil {
		return err
	}
	begin(secBlockMeta)
	for _, m := range metas {
		w.write(m)
	}
	if err := end(secBlockMeta); err != nil {
		return err
	}
	begin(secPostings)
	for _, s := range streams {
		w.write(s)
	}
	if err := end(secPostings); err != nil {
		return err
	}

	// Records: stream the bytes, collect the offsets, and fill the
	// by-ID hash as positions go by (ascending inserts + linear probing
	// make the lowest position of a duplicate ID win at lookup).
	recEntries := uint32(8)
	for int(recEntries) < 2*n {
		recEntries *= 2
	}
	recHash := make([]byte, recEntries*4)
	recIdx := make([]byte, 0, (n+1)*8)
	var scratch []byte
	begin(secRecordBytes)
	recBase := w.off
	for pos := 0; pos < n; pos++ {
		recIdx = binary.LittleEndian.AppendUint64(recIdx, w.off-recBase)
		r := ix.Record(pos)
		i := uint32(fnv64String(r.ID)) & (recEntries - 1)
		for binary.LittleEndian.Uint32(recHash[i*4:]) != 0 {
			i = (i + 1) & (recEntries - 1)
		}
		binary.LittleEndian.PutUint32(recHash[i*4:], uint32(pos)+1)
		scratch = appendRecord(scratch[:0], r)
		w.write(scratch)
	}
	recIdx = binary.LittleEndian.AppendUint64(recIdx, w.off-recBase)
	if err := end(secRecordBytes); err != nil {
		return err
	}
	begin(secRecordIndex)
	w.write(recIdx)
	if err := end(secRecordIndex); err != nil {
		return err
	}
	begin(secRecordHash)
	w.write(recHash)
	if err := end(secRecordHash); err != nil {
		return err
	}
	if err := w.flush(); err != nil {
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
	if _, err := f.WriteAt(hdr, 0); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

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
// boundaries. Write errors are deferred to flush/pad (bufio sticks on
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

func (p *pageWriter) pad(align uint64) error {
	if rem := p.off % align; rem != 0 {
		p.write(zeroPage[:align-rem])
	}
	return p.flushErr()
}

func (p *pageWriter) flushErr() error {
	// Surface any sticky bufio error without forcing a flush.
	_, err := p.w.Write(nil)
	return err
}

func (p *pageWriter) flush() error { return p.w.Flush() }

// syncDir fsyncs a directory so a rename into it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return err
	}
	return d.Close()
}

// OpenMapped opens an EMIX snapshot written by WriteSnapshot, serving
// postings, token table and records straight out of the mmap'ed file —
// no ingest replay, no IDF precomputation (weights materialize lazily
// per token on first use). Validation is O(1): magic, version, header
// CRC and section-size consistency; ErrSnapshotVersion and
// ErrSnapshotTorn (both wrapped with detail) tell callers to rebuild
// instead. The returned index accepts Add — post-open records live on
// the heap as extensions chained onto the mapped streams — and must be
// Closed to release the mapping.
func OpenMapped(path string, opts IndexOptions) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < emixPage {
		return nil, fmt.Errorf("%w: %d-byte file is shorter than a header page", ErrSnapshotTorn, st.Size())
	}
	data, unmap, err := mmapFile(f, int(st.Size()))
	if err != nil {
		return nil, err
	}
	m, err := parseMapped(data, unmap)
	if err != nil {
		unmap()
		return nil, err
	}
	ix := &Index{
		stopFrac: opts.stopDocFrac(),
		vocab:    tokenize.NewVocab(),
		snap:     m,
		overlay:  map[uint32]*postingList{},
		idfBits:  make([]uint64, m.nTokens),
		idfAtN:   make([]uint64, m.nTokens),
	}
	ix.scratch.New = func() any { return &queryScratch{} }
	return ix, nil
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
	// tokenSeg at query time — a panic inside serving, where no
	// fallback exists, instead of a typed error here where callers
	// rebuild. One 36-bytes-per-token pass keeps the open fast (the
	// restart benchmarks gate it); the hash tables and the record index
	// are instead range-clamped at each probe/decode — a branch per
	// access, not a scan per open — and the varint stream bytes
	// themselves stay trusted: validating them would mean decoding
	// every posting, the replay cost the format exists to avoid.
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
		data:     data,
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

// Close releases the mmap of an OpenMapped index; on a fresh index it
// is a no-op. The index must not be used after Close.
func (ix *Index) Close() error {
	if ix.snap == nil {
		return nil
	}
	m := ix.snap
	ix.snap = nil
	return m.unmap()
}

// RecordPos returns the position of the record with the given ID in
// the snapshot a mapped index was opened from, answered by the
// snapshot's on-disk hash section — O(1), no per-record decode, no
// rebuilt in-memory map. Only the mapped base is covered: records
// added after OpenMapped (and every record of a fresh index) return
// false, and callers track those themselves — the resolve store keeps
// its post-open records in a per-shard map and consults this for the
// rest.
func (ix *Index) RecordPos(id string) (int, bool) {
	if ix.snap == nil {
		return 0, false
	}
	pos, ok := ix.snap.recordPos(id)
	return int(pos), ok
}

// RecordID returns the ID of the record at an index position without
// decoding its attributes — the cheap accessor for callers walking a
// mapped index's identity space (e.g. rebuilding an entity graph).
func (ix *Index) RecordID(pos int) string {
	s := ix.snapRecords()
	if pos < s {
		return string(ix.snap.recordID(pos))
	}
	return ix.records[pos-s].ID
}

// PostingsBytes reports the bytes the posting lists occupy, skip
// metadata included — the numerator of the bytes-per-record benchmark
// the snapshot format is sized by.
func (ix *Index) PostingsBytes() int {
	if ix.snap == nil {
		total := 0
		for i := range ix.posts {
			total += len(ix.posts[i].stream) + 8*len(ix.posts[i].last)
		}
		return total
	}
	total := len(ix.snap.posts) + len(ix.snap.meta)
	for _, p := range ix.overlay {
		total += len(p.stream) + 8*len(p.last)
	}
	return total
}
