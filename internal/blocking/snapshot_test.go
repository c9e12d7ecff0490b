package blocking

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"llm4em/internal/detrand"
	"llm4em/internal/entity"
	"llm4em/internal/telemetry"
)

// writeTestSnapshot writes ix to a temp EMIX file and returns its path.
func writeTestSnapshot(t *testing.T, ix *Index) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.emx")
	if err := ix.WriteSnapshot(path); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return path
}

// queryBoth runs the same query workload against two indexes and
// fails on any ranking divergence (order AND scores).
func queryBoth(t *testing.T, label string, got, want *Index, queries []string) {
	t.Helper()
	for _, text := range queries {
		for _, maxC := range []int{0, 1, 5, 1000} {
			for _, minS := range []float64{0, 1.0} {
				g := got.Query(text, maxC, minS)
				w := want.Query(text, maxC, minS)
				if len(g) == 0 && len(w) == 0 {
					continue
				}
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: query %q (max=%d min=%v):\n got %v\nwant %v", label, text, maxC, minS, g, w)
				}
			}
		}
	}
}

// queryReference runs a query workload against an index and fails on
// any ranking divergence (order AND scores) from referenceQuery over
// the same records.
func queryReference(t *testing.T, label string, got *Index, recs []entity.Record, stopFrac float64, queries []string) {
	t.Helper()
	for _, text := range queries {
		for _, maxC := range []int{0, 1, 5, 1000} {
			for _, minS := range []float64{0, 1.0} {
				g := got.Query(text, maxC, minS)
				w := referenceQuery(recs, stopFrac, text, maxC, minS)
				if len(g) == 0 && len(w) == 0 {
					continue
				}
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: query %q (max=%d min=%v):\n got %v\nwant %v", label, text, maxC, minS, g, w)
				}
			}
		}
	}
}

// TestCompressedPrunedMatchesReferenceScan is the core differential
// pin of the pruning scorer: block-max WAND over the varint postings
// must rank byte-identically to the exhaustive reference scan across
// randomized workloads big enough to seal posting blocks
// (df >> postingBlock), with tie-heavy scoring, score floors and stop
// tokens — and must actually have skipped postings undecoded on the
// way, or the workload pins nothing about pruning.
func TestCompressedPrunedMatchesReferenceScan(t *testing.T) {
	forceCursorPath(t)
	met := telemetry.New(telemetry.Options{}).Blocking
	rng := detrand.New("compressed-differential")
	for round := 0; round < 6; round++ {
		n := []int{30, 300, 1200}[rng.Intn(3)]
		recs := randomRecords(rng, n)
		stopFrac := []float64{0, 0.2, 0.5, 1}[rng.Intn(4)]
		pruned := BuildIndex(recs, IndexOptions{StopDocFrac: Float(stopFrac)})
		pruned.SetMetrics(met)
		var queries []string
		for q := 0; q < 10; q++ {
			queries = append(queries, recs[rng.Intn(n)].Serialize()+" "+recs[rng.Intn(n)].Serialize())
		}
		queries = append(queries, "zzz unknown only")
		queryReference(t, "pruned-vs-reference", pruned, recs, stopFrac, queries)
	}
	if met.PostingsPruned.Value() == 0 {
		t.Fatal("no posting was pruned: the workload never exercised block skipping")
	}
}

// TestSnapshotRoundTrip pins that an index reopened from its mmap
// snapshot ranks byte-identically to the live index it was written
// from and to the reference scan, that the file is a pure function of
// the index (writing the reopened index again yields the same bytes),
// and that records decode losslessly.
func TestSnapshotRoundTrip(t *testing.T) {
	rng := detrand.New("snapshot-roundtrip")
	recs := randomRecords(rng, 700)
	live := BuildIndex(recs, IndexOptions{})
	path := writeTestSnapshot(t, live)
	mapped, err := OpenMapped(path, IndexOptions{})
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	defer mapped.Close()
	if mapped.Len() != live.Len() {
		t.Fatalf("mapped Len = %d, live %d", mapped.Len(), live.Len())
	}
	var queries []string
	for q := 0; q < 15; q++ {
		queries = append(queries, recs[rng.Intn(len(recs))].Serialize())
	}
	queryBoth(t, "mapped-vs-live", mapped, live, queries)
	queryReference(t, "mapped-vs-reference", mapped, recs, DefaultStopDocFrac, queries)
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(writeTestSnapshot(t, mapped))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("snapshot of the reopened index differs from the file it was opened from")
	}
	// Records decode losslessly from the map, and the on-disk ID
	// hash finds every position without a decode.
	for _, pos := range []int{0, 13, len(recs) - 1} {
		if got := mapped.Record(pos); !reflect.DeepEqual(got, recs[pos]) {
			t.Fatalf("mapped Record(%d) = %+v, want %+v", pos, got, recs[pos])
		}
		if got, ok := mapped.RecordPos(recs[pos].ID); !ok || got != pos {
			t.Fatalf("mapped RecordPos(%q) = %d,%v, want %d", recs[pos].ID, got, ok, pos)
		}
		if got := mapped.RecordID(pos); got != recs[pos].ID {
			t.Fatalf("mapped RecordID(%d) = %q, want %q", pos, got, recs[pos].ID)
		}
	}
	if _, ok := mapped.RecordPos("no-such-id"); ok {
		t.Fatal("RecordPos found a record that was never indexed")
	}
}

// TestMappedOverlayAppend pins the append path of a mapped index:
// records added after OpenMapped — repeating snapshot tokens and
// introducing new ones — must score exactly as if the whole collection
// had been indexed live, and a re-snapshot of the grown index (merged
// streams) must reopen identically too.
func TestMappedOverlayAppend(t *testing.T) {
	rng := detrand.New("snapshot-overlay")
	base := randomRecords(rng, 400)
	extra := randomRecords(rng, 150)
	for i := range extra {
		extra[i].ID = "x" + extra[i].ID
		if i%3 == 0 { // new tokens the snapshot has never seen
			extra[i].Attrs[0].Value += " novel gadget"
		}
	}

	path := writeTestSnapshot(t, BuildIndex(base, IndexOptions{}))
	mapped, err := OpenMapped(path, IndexOptions{})
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	defer mapped.Close()
	for _, r := range extra {
		mapped.Add(r)
	}
	all := append(append([]entity.Record{}, base...), extra...)
	live := BuildIndex(all, IndexOptions{})
	var queries []string
	for q := 0; q < 15; q++ {
		queries = append(queries, all[rng.Intn(len(all))].Serialize()+" novel")
	}
	queryBoth(t, "overlay-vs-live", mapped, live, queries)

	// Re-snapshot the grown index: overlay extensions merge back into
	// single per-token streams.
	path2 := filepath.Join(t.TempDir(), "index2.emx")
	if err := mapped.WriteSnapshot(path2); err != nil {
		t.Fatalf("re-WriteSnapshot: %v", err)
	}
	mapped2, err := OpenMapped(path2, IndexOptions{})
	if err != nil {
		t.Fatalf("OpenMapped(resnapshot): %v", err)
	}
	defer mapped2.Close()
	queryBoth(t, "resnapshot-vs-live", mapped2, live, queries)
	if got := mapped2.Record(len(base)); !reflect.DeepEqual(got, extra[0]) {
		t.Fatalf("resnapshot Record(%d) = %+v, want %+v", len(base), got, extra[0])
	}
}

// TestSnapshotTornTyped pins the typed failure modes of OpenMapped on
// damaged files: truncation, corrupt magic and a corrupt header CRC
// all surface ErrSnapshotTorn so callers fall back to a rebuild.
func TestSnapshotTornTyped(t *testing.T) {
	rng := detrand.New("snapshot-torn")
	path := writeTestSnapshot(t, BuildIndex(randomRecords(rng, 120), IndexOptions{}))
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	damage := map[string]func([]byte) []byte{
		"truncated-to-header": func(b []byte) []byte { return b[:emixPage] },
		"truncated-mid-data":  func(b []byte) []byte { return b[:len(b)/2] },
		"short-file":          func(b []byte) []byte { return b[:100] },
		"bad-magic": func(b []byte) []byte {
			b[0] = 'X'
			return b
		},
		"bad-header-crc": func(b []byte) []byte {
			b[20] ^= 0xff // flip a count byte without fixing the CRC
			return b
		},
	}
	for name, f := range damage {
		p := filepath.Join(t.TempDir(), name+".emx")
		if err := os.WriteFile(p, f(append([]byte{}, good...)), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenMapped(p, IndexOptions{})
		if !errors.Is(err, ErrSnapshotTorn) {
			t.Fatalf("%s: OpenMapped error = %v, want ErrSnapshotTorn", name, err)
		}
	}
}

// TestSnapshotVersionTyped pins that a version bump refuses old (and
// future) snapshots with the typed error, not a parse failure: the
// header's 64-bit version is rewritten and the CRC fixed up, so only
// the version check can object.
func TestSnapshotVersionTyped(t *testing.T) {
	rng := detrand.New("snapshot-version")
	path := writeTestSnapshot(t, BuildIndex(randomRecords(rng, 50), IndexOptions{}))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(b[8:], emixVersion+1)
	binary.LittleEndian.PutUint32(b[emixHeaderSize-4:], crc32.ChecksumIEEE(b[:emixHeaderSize-4]))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenMapped(path, IndexOptions{})
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("OpenMapped error = %v, want ErrSnapshotVersion", err)
	}
}

// TestSnapshotEmptyIndex: the degenerate snapshot (no records, no
// tokens) round-trips and serves empty results.
func TestSnapshotEmptyIndex(t *testing.T) {
	path := writeTestSnapshot(t, BuildIndex(nil, IndexOptions{}))
	mapped, err := OpenMapped(path, IndexOptions{})
	if err != nil {
		t.Fatalf("OpenMapped(empty): %v", err)
	}
	defer mapped.Close()
	if got := mapped.Query("sony camera", 10, 0); got != nil {
		t.Fatalf("empty mapped Query = %v, want nil", got)
	}
	// And it grows from empty exactly like a fresh index.
	mapped.Add(rec("a", "sony camera"))
	if got := mapped.Query("sony camera", 10, 0); len(got) != 1 || got[0].Pos != 0 {
		t.Fatalf("post-Add mapped Query = %v, want the added record", got)
	}
}

// TestCursorSeek unit-tests the block-skipping cursor against a long
// posting list: seeks land on the first position >= target, skipped
// entries are counted without being decoded, and iteration after a
// seek continues exactly.
func TestCursorSeek(t *testing.T) {
	var pl postingList
	var want []int32
	pos := int32(0)
	rng := detrand.New("cursor-seek")
	for i := 0; i < 1000; i++ {
		pos += int32(1 + rng.Intn(5))
		pl.add(pos, -1)
		want = append(want, pos)
	}

	// Full iteration decodes every posting in order.
	var c plCursor
	c.reset([2]segView{liveSeg(&pl, -1)}, 1)
	for i, w := range want {
		if !c.next() {
			t.Fatalf("next() exhausted at %d of %d", i, len(want))
		}
		if c.cur != w {
			t.Fatalf("posting %d = %d, want %d", i, c.cur, w)
		}
	}
	if c.next() {
		t.Fatal("next() past the end returned true")
	}

	// Seeks from the start to arbitrary targets.
	for trial := 0; trial < 50; trial++ {
		target := int32(rng.Intn(int(pos) + 10))
		c.reset([2]segView{liveSeg(&pl, -1)}, 1)
		c.next()
		// Expected: first posting >= target.
		exp := int32(-1)
		for _, w := range want {
			if w >= target {
				exp = w
				break
			}
		}
		ok := c.seek(target)
		if exp < 0 {
			if ok {
				t.Fatalf("seek(%d) = true at %d, want exhausted", target, c.cur)
			}
			continue
		}
		if !ok || c.cur != exp {
			t.Fatalf("seek(%d) landed on %d (ok=%v), want %d", target, c.cur, ok, exp)
		}
		if target > want[300] && c.skipped == 0 {
			t.Fatalf("seek(%d) decoded everything; expected block skips", target)
		}
	}
}

// rawPostingsBytes is what the index's postings would occupy as plain
// int32 positions: 4 bytes per (token, record) posting.
func rawPostingsBytes(ix *Index) int {
	total := 0
	for id := range ix.posts {
		total += 4 * int(ix.posts[id].df)
	}
	return total
}

// TestPostingsBytesCompression pins the headline compression claim:
// varint postings, skip metadata included, take at most half the
// bytes of raw int32 positions — on a realistic 20k collection and on
// the deterministic synthetic 100k index the benchmarks report
// (6.167 against 20 B/record).
func TestPostingsBytesCompression(t *testing.T) {
	for _, n := range []int{20000, 100000} {
		ix := BuildIndex(syntheticRecords(n), IndexOptions{})
		c, r := ix.PostingsBytes(), rawPostingsBytes(ix)
		t.Logf("%d records: %.3f B/record compressed, %.3f raw", n, float64(c)/float64(n), float64(r)/float64(n))
		if c*2 > r {
			t.Fatalf("%d records: compressed postings = %d bytes, raw = %d; want >= 2x reduction", n, c, r)
		}
	}
}

// TestSnapshotCorruptEntriesTyped pins the two-tier handling of
// damaged data pages under an intact header CRC (the CRC covers only
// the header page). Token-table offsets — the ones tokenSeg slices
// with — are swept at open and must surface as ErrSnapshotTorn there,
// where callers fall back to a rebuild. Hash-table entries and the
// record index are range-clamped at each probe/decode instead: open
// succeeds, and corrupted entries degrade to lookup misses or empty
// records. Neither tier may ever reach an out-of-range panic inside
// serving.
func TestSnapshotCorruptEntriesTyped(t *testing.T) {
	rng := detrand.New("snapshot-corrupt-entries")
	recs := randomRecords(rng, 120)
	path := writeTestSnapshot(t, BuildIndex(recs, IndexOptions{}))
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	secOff := func(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[40+i*16:]) }
	secLen := func(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[40+i*16+8:]) }
	corrupt := func(t *testing.T, name string, f func(b []byte)) string {
		t.Helper()
		p := filepath.Join(t.TempDir(), name+".emx")
		b := append([]byte{}, good...)
		f(b)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Tier 1: token-table damage fails the open-time sweep.
	torn := map[string]func(b []byte){
		"token-postings-offset": func(b []byte) {
			binary.LittleEndian.PutUint64(b[secOff(b, secTokenTable):], 1<<60)
		},
		"token-postings-length": func(b []byte) {
			binary.LittleEndian.PutUint32(b[secOff(b, secTokenTable)+8:], 1<<31)
		},
		"token-block-range": func(b []byte) {
			binary.LittleEndian.PutUint32(b[secOff(b, secTokenTable)+24:], 1<<30)
		},
		"token-bytes-range": func(b []byte) {
			binary.LittleEndian.PutUint32(b[secOff(b, secTokenTable)+28:], 1<<31)
		},
	}
	for name, f := range torn {
		p := corrupt(t, name, f)
		_, err := OpenMapped(p, IndexOptions{})
		if !errors.Is(err, ErrSnapshotTorn) {
			t.Fatalf("%s: OpenMapped error = %v, want ErrSnapshotTorn", name, err)
		}
	}

	// Tier 2: hash-table and record-index damage opens fine and is
	// clamped per access — every corrupted slot in the file is hit by
	// exercising all records and queries, and none may panic.
	degrade := map[string]func(b []byte){
		"token-hash-entries": func(b []byte) {
			off, end := secOff(b, secTokenHash), secOff(b, secTokenHash)+secLen(b, secTokenHash)
			for o := off; o+4 <= end; o += 4 {
				binary.LittleEndian.PutUint32(b[o:], 1<<31)
			}
		},
		"record-hash-entries": func(b []byte) {
			off, end := secOff(b, secRecordHash), secOff(b, secRecordHash)+secLen(b, secRecordHash)
			for o := off; o+4 <= end; o += 4 {
				binary.LittleEndian.PutUint32(b[o:], 1<<31)
			}
		},
		"record-index-monotonicity": func(b []byte) {
			binary.LittleEndian.PutUint64(b[secOff(b, secRecordIndex):], 1<<60)
		},
	}
	for name, f := range degrade {
		p := corrupt(t, name, f)
		ix, err := OpenMapped(p, IndexOptions{})
		if err != nil {
			t.Fatalf("%s: OpenMapped error = %v, want clamped degrade", name, err)
		}
		for pos := 0; pos < ix.Len(); pos++ {
			_ = ix.Record(pos)   // may be empty; must not panic
			_ = ix.RecordID(pos) // may be ""; must not panic
		}
		for _, r := range recs {
			_ = ix.Query(r.Serialize(), 10, 0) // may miss; must not panic
			if _, ok := ix.RecordPos(r.ID); ok && name == "record-hash-entries" {
				t.Fatalf("%s: RecordPos(%q) hit through a corrupted hash table", name, r.ID)
			}
		}
		if err := ix.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
	}
}
