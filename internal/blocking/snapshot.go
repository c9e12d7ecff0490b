package blocking

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"slices"

	"llm4em/internal/entity"
	"llm4em/internal/persist"
)

// EMIX v2 — the mmap-friendly index snapshot format. Everything a
// query needs lives in the file at stable offsets, so OpenMapped costs
// a header validation and an mmap, never an ingest replay: token
// lookup goes through an open-addressing hash section, postings are
// the same delta+varint streams the live index appends (postings.go),
// and records decode lazily per access.
//
// Layout (all integers little-endian, every section page-aligned):
//
//	header page:  "EMIX" | pad u32 | version u64 | nRecords u64 |
//	              nTokens u64 | nNames u64 | 8 x section {off u64, len u64} |
//	              crc32 of the preceding bytes
//	tokenTable:   nTokens+1 fixed 16-byte entries — postOff u32, df u32,
//	              lastPos u32, tokOff u32 — the last a sentinel holding
//	              the postings and token-bytes lengths: a token's
//	              extents end where the next entry's start
//	tokenBytes:   concatenated token strings in ID order
//	tokenHash:    power-of-two open-addressing table, u32 = token ID + 1,
//	              zero empty, keyed by FNV-1a 64 of the token bytes
//	names:        nNames uvarint-framed attribute names, in the order
//	              the records first use them
//	postings:     concatenated per-token varint streams
//	recordBytes:  per record: uvarint-framed ID, attr count, then per
//	              attribute a uvarint index into names and the
//	              uvarint-framed value
//	recordIndex:  nRecords+1 u32 offsets into recordBytes
//	recordHash:   power-of-two open-addressing table, u32 = position + 1,
//	              zero empty, keyed by FNV-1a 64 of the record ID —
//	              by-ID lookup without rebuilding an in-memory map
//
// The writer goes to a temp file and renames into place, so a torn
// write never shadows a good snapshot; validation at open is the O(1)
// header pass (magic, version, header CRC, section-size consistency),
// the framing of the names section, plus one structural sweep of the
// token table, whose extents must run forward and end at their
// sections' ends, so damaged data pages (bit rot past the rename's
// atomicity) that would send tokenSeg out of range surface as
// ErrSnapshotTorn at open, not as a panic at query time. The hash
// tables and the record index are range-clamped at each probe/decode,
// and every probe ends after one pass over its table, instead of being
// swept (keeping the open O(nTokens), which the restart benchmarks
// gate); only the varint stream bytes stay trusted — validating them
// would mean decoding every posting, the replay cost the format exists
// to avoid.

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
	emixVersion  = 2
	emixPage     = 4096
	emixSections = 8
	// emixHeaderSize is the used prefix of the header page: magic+pad
	// (8), three u64 counts after the version (32), the section table,
	// and the trailing CRC.
	emixHeaderSize = 8 + 32 + emixSections*16 + 4
	tokEntrySize   = 16
	// Token-table entry fields, by byte offset.
	entPostOff = 0
	entDF      = 4
	entLastPos = 8
	entTokOff  = 12
)

// Section indices in the header table, in file order.
const (
	secTokenTable = iota
	secTokenBytes
	secTokenHash
	secNames
	secPostings
	secRecordBytes
	secRecordIndex
	secRecordHash
)

// mappedIndex is the immutable base of an Index: section slices
// aliasing an OpenMapped snapshot, the counts the header pins and the
// names copied out at open, or all empty for BuildIndex (emptyBase).
// Every probe answers for an empty base as for a snapshot holding
// nothing.
type mappedIndex struct {
	unmap    func() error
	nRecords uint32
	nTokens  uint32
	hashMask uint32
	recMask  uint32
	names    []string
	tokTab   []byte
	tokBytes []byte
	tokHash  []byte
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

// field reads one u32 field of a token-table entry; id may be nTokens,
// the sentinel.
func (m *mappedIndex) field(id uint32, off int) uint32 {
	return binary.LittleEndian.Uint32(m.tokTab[int(id)*tokEntrySize+off:])
}

// tokenDF returns a token's base document frequency: 0 for an ID the
// base does not hold.
func (m *mappedIndex) tokenDF(id uint32) int32 {
	if id >= m.nTokens {
		return 0
	}
	return int32(m.field(id, entDF))
}

func (m *mappedIndex) tokenLastPos(id uint32) int32 {
	return int32(m.field(id, entLastPos))
}

func (m *mappedIndex) token(id uint32) []byte {
	return m.tokBytes[m.field(id, entTokOff):m.field(id+1, entTokOff)]
}

// tokenSeg wraps a token's base postings as a segment view: stream
// bytes straight off the map, or an empty segment for an ID the base
// does not hold.
func (m *mappedIndex) tokenSeg(id uint32) segView {
	if id >= m.nTokens {
		return segView{}
	}
	return segView{
		stream:  m.posts[m.field(id, entPostOff):m.field(id+1, entPostOff)],
		count:   int(m.field(id, entDF)),
		base:    -1,
		lastPos: int32(m.field(id, entLastPos)),
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

// record decodes the record at a mapped position. IDs and values are
// copied out of the map and names come from the table copied at open,
// so a returned Record outlives Close. Index offsets that do not frame
// a slice of the record bytes — data rot in the uncovered record-index
// pages — decode as an empty record instead of slicing out of range,
// and the attributes end at the first one whose name index or value
// does not frame.
func (m *mappedIndex) record(pos int) entity.Record {
	off := binary.LittleEndian.Uint32(m.recIdx[pos*4:])
	end := binary.LittleEndian.Uint32(m.recIdx[(pos+1)*4:])
	if off > end || int(end) > len(m.recBytes) {
		return entity.Record{}
	}
	id, b, ok := frame(m.recBytes[off:end])
	r := entity.Record{ID: string(id)}
	nAttrs, n := binary.Uvarint(b)
	if !ok || n <= 0 {
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
		name, n := binary.Uvarint(b)
		var v []byte
		if ok = n > 0 && name < uint64(len(m.names)); ok {
			v, b, ok = frame(b[n:])
		}
		if !ok {
			r.Attrs = r.Attrs[:i]
			break
		}
		r.Attrs[i] = entity.Attr{Name: m.names[name], Value: string(v)}
	}
	return r
}

// recordID returns the ID bytes of the record at a mapped position,
// aliasing the map — no record decode, no allocation.
func (m *mappedIndex) recordID(pos int) []byte {
	off := binary.LittleEndian.Uint32(m.recIdx[pos*4:])
	if int(off) > len(m.recBytes) {
		return nil // rotten index entry: no ID can match
	}
	id, _, _ := frame(m.recBytes[off:])
	return id // nil for rotten framing: no ID can match
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

// frame splits one uvarint-framed byte string off the front of b. ok is
// false when b cannot hold the frame — rotten data the structural
// open-time checks cannot see inside record bytes.
func frame(b []byte) (v, rest []byte, ok bool) {
	l, n := binary.Uvarint(b)
	if n <= 0 || l > uint64(len(b)-n) {
		return nil, nil, false
	}
	return b[n : n+int(l)], b[n+int(l):], true
}

// appendFramed appends s uvarint-framed, as frame reads it.
func appendFramed(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
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
	prev := uint32(0)
	for pos := 0; pos*4 < len(m.recIdx); pos++ {
		off := binary.LittleEndian.Uint32(m.recIdx[pos*4:])
		if off < prev || int(off) > len(m.recBytes) {
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
// each, and each base token's stream as it is: its tail chains its
// deltas off the base's last position, so base stream then tail stream
// is the stream of the one merged list. The names section is the
// base's names, then those the tail's records use first, so base
// records keep their name indices. Token bytes and hashes are read off
// the map, uncopied. A base whose record index does not frame its
// record bytes fails the write with ErrSnapshotTorn, and a section too
// long for the format's u32 offsets fails it with an error.
func (ix *Index) Encode(f persist.File) error {
	b := ix.base
	if err := b.checkRecordIndex(); err != nil {
		return err
	}
	nBase := int(b.nTokens)
	nTok := nBase + ix.vocab.Len()
	n := ix.Len()
	touched := slices.AppendSeq(make([]uint32, 0, len(ix.basePosts)), maps.Keys(ix.basePosts))
	slices.Sort(touched)

	// Per-token pass: table entries and the token hash (power-of-two,
	// load factor <= 0.5), in ID order, then the sentinel entry.
	tab := make([]byte, (nTok+1)*tokEntrySize)
	tokHash := hashTable(nTok)
	var tokLen, postsLen uint64
	t := 0
	for id := 0; id < nTok; id++ {
		bs, pl := ix.writeSegs(uint32(id), touched, &t)
		streamLen, df, lastPos := len(bs.stream), bs.count, bs.lastPos
		if pl != nil {
			streamLen += len(pl.stream)
			df += int(pl.df)
			lastPos = pl.lastPos
		}
		putEntry(tab[id*tokEntrySize:], postsLen, uint64(df), uint64(lastPos), tokLen)
		postsLen += uint64(streamLen)
		if id < nBase {
			tok := b.token(uint32(id))
			tokLen += uint64(len(tok))
			hashInsert(tokHash, fnv64(tok), uint32(id)+1)
		} else {
			tok := ix.vocab.Token(uint32(id - nBase))
			tokLen += uint64(len(tok))
			hashInsert(tokHash, fnv64String(tok), uint32(id)+1)
		}
	}
	putEntry(tab[nTok*tokEntrySize:], postsLen, 0, 0, tokLen)

	// Record hash: ascending inserts + linear probing make the lowest
	// position of a duplicate ID win at lookup.
	recHash := hashTable(n)
	for pos := 0; pos < n; pos++ {
		if pos < int(b.nRecords) {
			hashInsert(recHash, fnv64(b.recordID(pos)), uint32(pos)+1)
		} else {
			hashInsert(recHash, fnv64String(ix.records[pos-int(b.nRecords)].ID), uint32(pos)+1)
		}
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
	names, nameIdx := ix.nameTable()
	var scratch []byte
	begin(secNames)
	for _, name := range names {
		scratch = appendFramed(scratch, name)
	}
	w.write(scratch)
	end(secNames)
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
	tailIdx := make([]byte, 0, (len(ix.records)+1)*4)
	for _, r := range ix.records {
		tailIdx = binary.LittleEndian.AppendUint32(tailIdx, uint32(w.off-recBase))
		scratch = appendRecord(scratch[:0], r, nameIdx)
		w.write(scratch)
	}
	tailIdx = binary.LittleEndian.AppendUint32(tailIdx, uint32(w.off-recBase))
	if max(postsLen, tokLen, w.off-recBase) > math.MaxUint32 {
		return fmt.Errorf("blocking: a section passes the 4 GiB that EMIX's u32 offsets address")
	}
	end(secRecordBytes)
	begin(secRecordIndex)
	w.write(b.recIdx[:int(b.nRecords)*4])
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
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(names)))
	for i, s := range secs {
		binary.LittleEndian.PutUint64(hdr[40+i*16:], s[0])
		binary.LittleEndian.PutUint64(hdr[48+i*16:], s[1])
	}
	binary.LittleEndian.PutUint32(hdr[emixHeaderSize-4:], crc32.ChecksumIEEE(hdr[:emixHeaderSize-4]))
	_, err := f.WriteAt(hdr, 0)
	return err
}

// putEntry fills one token-table entry.
func putEntry(e []byte, postOff, df, lastPos, tokOff uint64) {
	binary.LittleEndian.PutUint32(e[entPostOff:], uint32(postOff))
	binary.LittleEndian.PutUint32(e[entDF:], uint32(df))
	binary.LittleEndian.PutUint32(e[entLastPos:], uint32(lastPos))
	binary.LittleEndian.PutUint32(e[entTokOff:], uint32(tokOff))
}

// hashTable returns an empty open-addressing table for n keys: a power
// of two of at least 8 u32 slots, load factor <= 0.5.
func hashTable(n int) []byte {
	slots := 8
	for slots < 2*n {
		slots *= 2
	}
	return make([]byte, slots*4)
}

// hashInsert puts v in the first free slot from h's home slot on.
func hashInsert(tab []byte, h uint64, v uint32) {
	mask := uint32(len(tab)/4 - 1)
	i := uint32(h) & mask
	for binary.LittleEndian.Uint32(tab[i*4:]) != 0 {
		i = (i + 1) & mask
	}
	binary.LittleEndian.PutUint32(tab[i*4:], v)
}

// nameTable returns the names the file stores — the base's, then each
// name the tail's records use first, in record order — and each name's
// index, the first one for a name the base repeats.
func (ix *Index) nameTable() ([]string, map[string]uint64) {
	names := slices.Clip(ix.base.names)
	idx := make(map[string]uint64, len(names))
	for i, name := range names {
		if _, ok := idx[name]; !ok {
			idx[name] = uint64(i)
		}
	}
	for _, r := range ix.records {
		for _, a := range r.Attrs {
			if _, ok := idx[a.Name]; !ok {
				idx[a.Name] = uint64(len(names))
				names = append(names, a.Name)
			}
		}
	}
	return names, idx
}

// writeBuffer sizes Encode's write buffer, allocated per call
// and dropped with it.
const writeBuffer = 64 << 10

// appendRecord encodes one record: uvarint-framed ID, attribute count,
// then per attribute its name's index and its uvarint-framed value.
func appendRecord(dst []byte, r entity.Record, nameIdx map[string]uint64) []byte {
	dst = appendFramed(dst, r.ID)
	dst = binary.AppendUvarint(dst, uint64(len(r.Attrs)))
	for _, a := range r.Attrs {
		dst = binary.AppendUvarint(dst, nameIdx[a.Name])
		dst = appendFramed(dst, a.Value)
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
// O(vocabulary): magic, version, header CRC, section sizes, the names
// framing and the token-table sweep; a file that fails it is released
// and refused with ErrSnapshotVersion or ErrSnapshotTorn (both wrapped
// with detail). The file is the index's base: it accepts Add into its
// heap tail, allocating nothing per token at open, and Close releases
// it.
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
	nNames := binary.LittleEndian.Uint64(data[32:])
	// Positions are int32 and token IDs uint32 throughout the index.
	if nRecords > 1<<31-1 || nTokens > 1<<32-1 {
		return nil, fmt.Errorf("%w: counts overflow (%d records, %d tokens)", ErrSnapshotTorn, nRecords, nTokens)
	}
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
	if got, want := uint64(len(sec[secTokenTable])), (nTokens+1)*tokEntrySize; got != want {
		return nil, fmt.Errorf("%w: token table holds %d bytes, %d tokens and the sentinel need %d", ErrSnapshotTorn, got, nTokens, want)
	}
	if got, want := uint64(len(sec[secRecordIndex])), (nRecords+1)*4; got != want {
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
	if last := binary.LittleEndian.Uint32(sec[secRecordIndex][nRecords*4:]); uint64(last) != uint64(len(sec[secRecordBytes])) {
		return nil, fmt.Errorf("%w: record index ends at %d, record bytes hold %d", ErrSnapshotTorn, last, len(sec[secRecordBytes]))
	}
	names, err := parseNames(sec[secNames], nNames)
	if err != nil {
		return nil, err
	}
	// Structural validation of the token table. The header CRC only
	// vouches for the header page; these offsets come from data pages,
	// and a snapshot whose data rotted (bit damage past the rename's
	// atomicity) would otherwise slice the map out of range in tokenSeg
	// or token at query time — a panic inside serving instead of a
	// typed error here. A token's extents end where the next entry's
	// start, so extents that never run backwards and a sentinel at the
	// sections' ends keep every slice in range. One pass over the
	// 16-byte entries keeps the open fast (the restart benchmarks gate
	// it); the rest is range-clamped per access (see the format
	// comment).
	var post, tok uint32
	for id, tab := uint64(0), sec[secTokenTable]; id <= nTokens; id, tab = id+1, tab[tokEntrySize:] {
		p, k := binary.LittleEndian.Uint32(tab[entPostOff:]), binary.LittleEndian.Uint32(tab[entTokOff:])
		if p < post || k < tok {
			return nil, fmt.Errorf("%w: token %d extents start at postings %d, token byte %d, before the previous token's %d, %d", ErrSnapshotTorn, id, p, k, post, tok)
		}
		post, tok = p, k
	}
	if uint64(post) != uint64(len(sec[secPostings])) || uint64(tok) != uint64(len(sec[secTokenBytes])) {
		return nil, fmt.Errorf("%w: token table ends at postings %d, token byte %d; the sections hold %d and %d bytes", ErrSnapshotTorn, post, tok, len(sec[secPostings]), len(sec[secTokenBytes]))
	}
	return &mappedIndex{
		unmap:    unmap,
		nRecords: uint32(nRecords),
		nTokens:  uint32(nTokens),
		hashMask: uint32(he - 1),
		recMask:  uint32(re - 1),
		names:    names,
		tokTab:   sec[secTokenTable],
		tokBytes: sec[secTokenBytes],
		tokHash:  sec[secTokenHash],
		posts:    sec[secPostings],
		recBytes: sec[secRecordBytes],
		recIdx:   sec[secRecordIndex],
		recHash:  sec[secRecordHash],
	}, nil
}

// parseNames frames the names section: exactly n names, copied out of
// the map, so records decoded with them outlive Close.
func parseNames(b []byte, n uint64) ([]string, error) {
	if n > uint64(len(b)) { // every name takes at least its length byte
		return nil, fmt.Errorf("%w: %d names cannot fit a %d-byte names section", ErrSnapshotTorn, n, len(b))
	}
	names := make([]string, n)
	for i := range names {
		v, rest, ok := frame(b)
		if !ok {
			return nil, fmt.Errorf("%w: name %d does not frame", ErrSnapshotTorn, i)
		}
		names[i], b = string(v), rest
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d bytes follow the last of %d names", ErrSnapshotTorn, len(b), n)
	}
	return names, nil
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

// PostingsBytes reports the bytes the posting lists occupy — the
// numerator of the bytes-per-record benchmark the snapshot format is
// sized by.
func (ix *Index) PostingsBytes() int {
	total := len(ix.base.posts)
	for i := range ix.posts {
		total += len(ix.posts[i].stream)
	}
	for _, pl := range ix.basePosts {
		total += len(pl.stream)
	}
	return total
}
