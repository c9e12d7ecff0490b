package blocking

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"llm4em/internal/detrand"
	"llm4em/internal/entity"
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
				g := queryText(got, text, maxC, minS)
				w := queryText(want, text, maxC, minS)
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
				g := queryText(got, text, maxC, minS)
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

// TestRecordPosCoversTail: RecordPos answers for every record of a
// mapped index, the base through the on-disk hash and the records added
// since through the tail's ID map, and a repeated ID — of a base record
// or within the tail — resolves to its first position.
func TestRecordPosCoversTail(t *testing.T) {
	var base []entity.Record
	for i := 0; i < 20; i++ {
		base = append(base, rec(fmt.Sprintf("b%02d", i), fmt.Sprintf("widget model%d", i)))
	}
	ix, err := OpenMapped(writeTestSnapshot(t, BuildIndex(base, IndexOptions{})), IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	tail := []entity.Record{
		rec("t0", "gadget alpha"),
		rec("b07", "a repeat of a base ID"),
		rec("t1", "gadget beta"),
		rec("t0", "a repeat within the tail"),
		rec("t2", "gadget gamma"),
	}
	for _, r := range tail {
		ix.Add(r)
	}
	first := map[string]int{}
	for pos := 0; pos < ix.Len(); pos++ {
		id := ix.RecordID(pos)
		if _, seen := first[id]; !seen {
			first[id] = pos
		}
	}
	for pos := 0; pos < ix.Len(); pos++ {
		id := ix.RecordID(pos)
		if got, ok := ix.RecordPos(id); !ok || got != first[id] {
			t.Errorf("RecordPos(%q) = %d,%v, want %d", id, got, ok, first[id])
		}
	}
	if first["b07"] != 7 || first["t0"] != len(base) {
		t.Fatalf("first positions %v: the test's repeats are not where it put them", first)
	}
	if _, ok := ix.RecordPos("no-such-id"); ok {
		t.Fatal("RecordPos found a record that was never indexed")
	}
	if got := ix.TailLen(); got != len(tail) {
		t.Fatalf("TailLen = %d, want the %d added records", got, len(tail))
	}
}

// TestMappedOverlayAppend pins the append path of a mapped index:
// records added after OpenMapped — repeating snapshot tokens and
// introducing new ones — must score exactly as if the whole collection
// had been indexed live, and a re-snapshot of the grown base+tail index
// (merged streams) must be byte-identical to the snapshot BuildIndex
// writes over the same collection: the file is a function of the
// collection, not of its build history. The index is written, mapped,
// grown and re-written twice, and each growth covers the three ways a
// token's postings reach the file: base only ("vintage"), tail only
// ("gadget"), and a base token whose tail chains onto its base stream
// ("deal").
// A base whose record index does not frame its record bytes is refused
// by the rewrite, which copies both verbatim.
func TestMappedOverlayAppend(t *testing.T) {
	rng := detrand.New("snapshot-overlay")
	all := randomRecords(rng, 400)
	for i := range all {
		switch {
		case i < 100:
			all[i].Attrs[0].Value += " deal"
		case i < 110:
			all[i].Attrs[0].Value += " vintage"
		}
	}
	path := writeTestSnapshot(t, BuildIndex(all, IndexOptions{}))
	for round := 1; round <= 2; round++ {
		extra := randomRecords(rng, 150)
		for i := range extra {
			extra[i].ID = fmt.Sprintf("x%d-%s", round, extra[i].ID)
			extra[i].Attrs[0].Value += " deal"
			if i%3 == 0 { // new tokens the snapshot has never seen
				extra[i].Attrs[0].Value += fmt.Sprintf(" novel gadget%d", round)
			}
		}
		mapped, err := OpenMapped(path, IndexOptions{})
		if err != nil {
			t.Fatalf("round %d: OpenMapped: %v", round, err)
		}
		defer mapped.Close()
		for _, r := range extra {
			mapped.Add(r)
		}
		checkOverlayCoverage(t, mapped, fmt.Sprintf("gadget%d", round))
		nBase := len(all)
		all = append(all, extra...)
		live := BuildIndex(all, IndexOptions{})
		var queries []string
		for q := 0; q < 15; q++ {
			queries = append(queries, all[rng.Intn(len(all))].Serialize()+" novel")
		}
		queryBoth(t, fmt.Sprintf("round %d: overlay-vs-live", round), mapped, live, queries)

		// Re-snapshot the grown index: each token's base and tail merge
		// back into a single stream.
		path = filepath.Join(t.TempDir(), fmt.Sprintf("index%d.emx", round))
		if err := mapped.WriteSnapshot(path); err != nil {
			t.Fatalf("round %d: re-WriteSnapshot: %v", round, err)
		}
		mapped2, err := OpenMapped(path, IndexOptions{})
		if err != nil {
			t.Fatalf("round %d: OpenMapped(resnapshot): %v", round, err)
		}
		defer mapped2.Close()
		queryBoth(t, fmt.Sprintf("round %d: resnapshot-vs-live", round), mapped2, live, queries)
		grown, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		built, err := os.ReadFile(writeTestSnapshot(t, live))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(grown, built) {
			t.Fatalf("round %d: snapshot of the mapped index grown by Add differs from BuildIndex's over the same records", round)
		}
		if got := mapped2.Record(nBase); !reflect.DeepEqual(got, extra[0]) {
			t.Fatalf("round %d: resnapshot Record(%d) = %+v, want %+v", round, nBase, got, extra[0])
		}
	}

	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx := binary.LittleEndian.Uint64(good[40+secRecordIndex*16:])
	for name, at := range map[string]uint64{
		"entry 1 past the record bytes": idx + 4 + 3, // top byte
		"entry 1 after entry 2":         idx + 4,     // low byte
	} {
		bad := append([]byte(nil), good...)
		bad[at] ^= 0xff
		damaged := filepath.Join(t.TempDir(), "damaged.emx")
		if err := os.WriteFile(damaged, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		ix, err := OpenMapped(damaged, IndexOptions{})
		if err != nil {
			t.Fatalf("%s: OpenMapped: %v (open checks only the last entry)", name, err)
		}
		out := filepath.Join(t.TempDir(), "rewrite.emx")
		if err := ix.WriteSnapshot(out); !errors.Is(err, ErrSnapshotTorn) {
			t.Errorf("%s: WriteSnapshot = %v, want ErrSnapshotTorn", name, err)
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: the refused rewrite left %s behind (%v)", name, out, err)
		}
		ix.Close()
	}
}

// checkOverlayCoverage fails unless the grown mapped index holds every
// shape of postings the rewrite treats apart: a base token no Add
// touched, a tail-only token named newTok, and a base token whose tail
// chains onto its base stream.
func checkOverlayCoverage(t *testing.T, ix *Index, newTok string) {
	t.Helper()
	if id, ok := ix.vocab.Lookup(newTok); !ok || ix.tailOf(ix.base.nTokens+id).df == 0 {
		t.Errorf("no tail-only token %q", newTok)
	}
	baseOnly, chained := false, false
	for id := uint32(0); id < ix.base.nTokens; id++ {
		if pl := ix.basePosts[id]; pl == nil {
			baseOnly = true
		} else if pl.df > 0 && ix.base.tokenDF(id) > 0 {
			chained = true
		}
	}
	if !baseOnly || !chained {
		t.Errorf("base-only token present: %v; base token with a tail: %v", baseOnly, chained)
	}
}

// TestSnapshotTornTyped pins the typed failure modes of OpenMapped on
// damaged files: truncation, corrupt magic and a corrupt header CRC
// all surface ErrSnapshotTorn.
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
	if got := queryText(mapped, "sony camera", 10, 0); got != nil {
		t.Fatalf("empty mapped Query = %v, want nil", got)
	}
	// And it grows from empty exactly like a built index.
	mapped.Add(rec("a", "sony camera"))
	if got := queryText(mapped, "sony camera", 10, 0); len(got) != 1 || got[0].Pos != 0 {
		t.Fatalf("post-Add mapped Query = %v, want the added record", got)
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
// varint postings take at most half the bytes of raw int32 positions —
// on a realistic 20k collection and on the deterministic synthetic
// 100k index the benchmarks report (5.917 against 20 B/record).
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

// emixBudget is TestEMIXBytesPerRecord's bound: the 141.0 B/record
// the version-2 format measured on its shard, plus 3%. (Version 1 wrote
// 187.0 B/record for the same records.)
const emixBudget = 141.0 * 1.03

// TestEMIXBytesPerRecord keeps the index file's size: it writes a
// deterministic 4 096-record shard of the WDC records bench/ serves
// (wdcCorpus), logs each section's bytes per record, and fails when the
// whole file, page padding included, passes emixBudget.
func TestEMIXBytesPerRecord(t *testing.T) {
	const n = 4096
	recs, _ := wdcCorpus(t, n)
	b, err := os.ReadFile(writeTestSnapshot(t, BuildIndex(recs, IndexOptions{})))
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"token table", "token bytes", "token hash", "names", "postings", "record bytes", "record index", "record hash"} {
		t.Logf("%-12s %6.2f B/record", name, float64(binary.LittleEndian.Uint64(b[48+i*16:]))/n)
	}
	got := float64(len(b)) / n
	t.Logf("file         %6.2f B/record (budget %.2f)", got, emixBudget)
	if got > emixBudget {
		t.Fatalf("the index file takes %.2f B/record, over the %.2f budget", got, emixBudget)
	}
}

// TestSnapshotCorruptEntriesTyped pins the two-tier handling of
// damaged data pages under an intact header CRC (the CRC covers only
// the header page). Token-table offsets — the ones tokenSeg and token
// slice with — are swept at open, and the names section is framed
// there: damage to either must surface as ErrSnapshotTorn at open.
// Hash-table entries and the record index are range-clamped at each
// probe/decode instead: open succeeds, and corrupted entries degrade to
// lookup misses or empty records. Neither tier may ever reach an
// out-of-range panic inside serving.
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

	// Tier 1: token-table and names damage fails the open-time sweep.
	// The sentinel is the table's last entry.
	sentinel := func(b []byte) uint64 { return secOff(b, secTokenTable) + secLen(b, secTokenTable) - tokEntrySize }
	torn := map[string]func(b []byte){
		"token-postings-backwards": func(b []byte) {
			binary.LittleEndian.PutUint32(b[secOff(b, secTokenTable)+entPostOff:], 1<<31)
		},
		"token-postings-end": func(b []byte) {
			binary.LittleEndian.PutUint32(b[sentinel(b)+entPostOff:], uint32(secLen(b, secPostings))+1)
		},
		"token-bytes-backwards": func(b []byte) {
			binary.LittleEndian.PutUint32(b[secOff(b, secTokenTable)+entTokOff:], 1<<31)
		},
		"token-bytes-end": func(b []byte) {
			binary.LittleEndian.PutUint32(b[sentinel(b)+entTokOff:], uint32(secLen(b, secTokenBytes))-1)
		},
		"names-framing": func(b []byte) {
			b[secOff(b, secNames)] = 0x7f // the first name's length
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
			binary.LittleEndian.PutUint32(b[secOff(b, secRecordIndex):], 1<<30)
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
			_ = queryText(ix, r.Serialize(), 10, 0) // may miss; must not panic
			if _, ok := ix.RecordPos(r.ID); ok && name == "record-hash-entries" {
				t.Fatalf("%s: RecordPos(%q) hit through a corrupted hash table", name, r.ID)
			}
		}
		if err := ix.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
	}
}

// TestMappedProbesEnd: the hash pages are outside the header CRC, so
// rot can fill a table with in-range values and leave no empty slot to
// end a probe. Lookups of absent keys through both tables must still
// return, as misses.
func TestMappedProbesEnd(t *testing.T) {
	rng := detrand.New("snapshot-probes-end")
	path := writeTestSnapshot(t, BuildIndex(randomRecords(rng, 40), IndexOptions{}))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range []int{secTokenHash, secRecordHash} {
		off := binary.LittleEndian.Uint64(b[40+sec*16:])
		end := off + binary.LittleEndian.Uint64(b[48+sec*16:])
		for o := off; o < end; o += 4 {
			binary.LittleEndian.PutUint32(b[o:], 1)
		}
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	ix, err := OpenMapped(path, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if got := queryText(ix, "zzzabsent", 10, 0); len(got) != 0 {
			t.Errorf("Query of an absent token = %v, want none", got)
		}
		if got := ix.QueryTokens([]string{"zzzabsent"}, 10, 0); len(got) != 0 {
			t.Errorf("QueryTokens of an absent token = %v, want none", got)
		}
		if _, ok := ix.RecordPos("no-such-id"); ok {
			t.Error("RecordPos found an absent ID")
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a probe of a table with no empty slot never ended")
	}
}
